/**
 * @file
 * Tests for the certified worst-case interrupt-response bound
 * (lint/wcirt.hh): hand-computed ceilings per core scheme, the CFG
 * handler-path bound (finite, looped, RTI-free), the RUU-W303 runaway-
 * handler lint, soundness against TrapController on every core, the
 * derived watchdog's tightness over the legacy constant, and the
 * memoized cache.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "asm/builder.hh"
#include "kernels/lll.hh"
#include "lint/analyze.hh"
#include "lint/wcirt.hh"
#include "oracle/verify.hh"
#include "sim/machine.hh"
#include "trap/controller.hh"
#include "trap/handlers.hh"

namespace ruu
{
namespace
{

using lint::Check;
using lint::kWcirtUnbounded;

bool
has(const std::vector<lint::Diagnostic> &diags, Check check)
{
    return std::any_of(diags.begin(), diags.end(),
                       [check](const lint::Diagnostic &d) {
                           return d.check == check;
                       });
}

/** A three-instruction straight line with known serialized costs. */
Workload
tinyWorkload()
{
    // smovi: Transmit (1)   -> 1 + 1 + 2 = 4
    // sadd:  ScalarAdd (3)  -> 1 + 3 + 2 = 6
    // halt:                 -> 1 + 1     = 2
    return workloadFromSource(R"(
.program tiny
    smovi S1, 1
    sadd S2, S1, S1
    halt
)",
                              "tiny");
}

/** The canonical two-instruction handler: mfcause(4) + rti(2) = 6. */
Program
straightHandler()
{
    ProgramBuilder b("straight");
    b.handler();
    b.mfcause(regS(1));
    b.rti();
    return b.build();
}

TEST(Wcirt, HandComputedCeilingPerScheme)
{
    // CRAY-1 model: deepest latency 14 (FpRecip), worst branch penalty
    // 5 (taken / mispredict), one bus, one commit slot, no banks.
    // per-op drain = 15; drain(occ) = occ*15 + occ + occ + 5 + 8
    //              = occ*17 + 13; imprecise schemes double it (restart).
    struct Case
    {
        CoreKind kind;
        std::uint64_t occupancy;
        std::uint64_t cut;
    };
    // occupancy: Simple = deepest(14)+2; Tomasulo = 2 RS x 12 classes
    // + 6 load regs + 2; Rstu/Ruu/SpecRuu = 10 entries + 6 + 2;
    // History = 16 entries + 6 + 2.
    const Case cases[] = {
        {CoreKind::Simple, 16, 2 * (16 * 17 + 13)},
        {CoreKind::Tomasulo, 32, 2 * (32 * 17 + 13)},
        {CoreKind::Rstu, 18, 2 * (18 * 17 + 13)},
        {CoreKind::Ruu, 18, 18 * 17 + 13},
        {CoreKind::SpecRuu, 18, 18 * 17 + 13},
        {CoreKind::History, 24, 24 * 17 + 13},
    };
    Workload w = tinyWorkload();
    Program handler = straightHandler();
    for (const Case &c : cases) {
        lint::WcirtBound bound = lint::wcirtBound(
            w.trace(), handler, UarchConfig::cray1(), c.kind);
        EXPECT_EQ(bound.breakdown.occupancy, c.occupancy)
            << coreKindName(c.kind);
        EXPECT_EQ(bound.breakdown.perOpDrain, 15u)
            << coreKindName(c.kind);
        EXPECT_EQ(bound.breakdown.cut, c.cut) << coreKindName(c.kind);
        // Default exchange latency is 8 cycles.
        EXPECT_EQ(bound.cycles, c.cut + 8) << coreKindName(c.kind);
        EXPECT_NE(bound.cycles, kWcirtUnbounded);
    }
}

TEST(Wcirt, PreciseSchemesPayNoRestart)
{
    Workload w = tinyWorkload();
    Program handler = straightHandler();
    for (CoreKind kind : allCoreKinds()) {
        lint::WcirtBound bound = lint::wcirtBound(
            w.trace(), handler, UarchConfig::cray1(), kind);
        const bool precise = kind == CoreKind::Ruu ||
                             kind == CoreKind::SpecRuu ||
                             kind == CoreKind::History;
        if (precise)
            EXPECT_EQ(bound.breakdown.restart, 0u) << coreKindName(kind);
        else
            EXPECT_EQ(bound.breakdown.restart, bound.breakdown.drain)
                << coreKindName(kind);
        EXPECT_EQ(bound.breakdown.cut,
                  bound.breakdown.drain + bound.breakdown.restart)
            << coreKindName(kind);
    }
}

TEST(Wcirt, SegmentShadowAndMaskedComponentsAreSummedCosts)
{
    Workload w = tinyWorkload();
    Program handler = straightHandler();
    lint::WcirtBound bound = lint::wcirtBound(
        w.trace(), handler, UarchConfig::cray1(), CoreKind::Ruu);
    // 4 + 6 + 2 serialized over the three-record trace.
    EXPECT_EQ(bound.breakdown.segment, 12u);
    // Worst single record (sadd, 6) plus the two fixed shadow cycles.
    EXPECT_EQ(bound.breakdown.shadow, 8u);
    // No DINT anywhere: nothing can stretch a masked window.
    EXPECT_EQ(bound.breakdown.maskedStretch, 0u);
    EXPECT_EQ(bound.segmentCeiling(),
              bound.breakdown.segment + bound.breakdown.cut);
    EXPECT_EQ(lint::wcirtTraceCeiling(w.trace(), UarchConfig::cray1(),
                                      CoreKind::Ruu),
              bound.breakdown.segment + bound.breakdown.drain);
}

TEST(Wcirt, DintStretchRaisesTheMaskedComponent)
{
    // dint(2) + sadd(6) + eint(2): the masked stretch charges the
    // serialized cost of the whole DINT..EINT window.
    Workload w = workloadFromSource(R"(
.program masked
    smovi S1, 1
    dint
    sadd S2, S1, S1
    eint
    halt
)",
                                    "masked");
    lint::WcirtBound bound =
        lint::wcirtBound(w.trace(), straightHandler(),
                         UarchConfig::cray1(), CoreKind::Ruu);
    EXPECT_EQ(bound.breakdown.maskedStretch, 10u);
}

TEST(Wcirt, ResponseCeilingFoldsNestingAndMasking)
{
    Workload w = tinyWorkload();
    Program handler = straightHandler();
    lint::WcirtParams params;
    params.exchangeCycles = 8;
    params.maxLevels = 4;
    lint::WcirtBound bound =
        lint::wcirtBound(w.trace(), handler, UarchConfig::cray1(),
                         CoreKind::Ruu, params);
    ASSERT_TRUE(bound.handlerFinite());
    // handlerPath (6) + drain; each of maxLevels-1 in-progress levels
    // unwinds through its handler, its RTI exchange and its shadow.
    EXPECT_EQ(bound.breakdown.handlerPath, 6u);
    EXPECT_EQ(bound.breakdown.handler, 6u + bound.breakdown.drain);
    const std::uint64_t unwind =
        bound.breakdown.handler + 8 + bound.breakdown.shadow;
    EXPECT_EQ(bound.responseCeiling(),
              3 * unwind + bound.breakdown.shadow +
                  bound.breakdown.maskedStretch + bound.cycles);
}

TEST(Wcirt, UnboundedHandlerKeepsDeliveryAndSegmentCeilingsFinite)
{
    ProgramBuilder b("no_rti");
    b.handler();
    b.smovi(regS(1), 1);
    b.halt();
    Workload w = tinyWorkload();
    lint::WcirtBound bound = lint::wcirtBound(
        w.trace(), b.build(), UarchConfig::cray1(), CoreKind::Ruu);
    EXPECT_FALSE(bound.handlerFinite());
    EXPECT_EQ(bound.responseCeiling(), kWcirtUnbounded);
    EXPECT_NE(bound.cycles, kWcirtUnbounded);
    EXPECT_NE(bound.segmentCeiling(), kWcirtUnbounded);
}

// --- the CFG handler-path bound ---------------------------------------

TEST(WcirtHandlerPath, StraightLineIsTheSerializedSum)
{
    EXPECT_EQ(
        lint::wcirtHandlerPathBound(straightHandler(),
                                    UarchConfig::cray1()),
        6u);
}

TEST(WcirtHandlerPath, BranchAroundRtiTakesTheLongerPath)
{
    // jaz(1+5) then either mfcause(4)+rti(2) or the short rti(2):
    // the bound is the longer entry-to-RTI path, 12.
    ProgramBuilder b("branchy");
    b.handler();
    b.jaz("skip");
    b.mfcause(regS(1));
    b.rti();
    b.label("skip");
    b.rti();
    EXPECT_EQ(lint::wcirtHandlerPathBound(b.build(),
                                          UarchConfig::cray1()),
              12u);
}

TEST(WcirtHandlerPath, LoopOnAnEntryToRtiPathIsUnbounded)
{
    // The spin block sits between entry and the RTI, so no finite
    // ceiling exists even though an RTI is reachable.
    ProgramBuilder b("spinny");
    b.handler();
    b.label("spin");
    b.nop();
    b.jaz("spin");
    b.rti();
    Program handler = b.build();
    EXPECT_EQ(lint::wcirtHandlerPathBound(handler,
                                          UarchConfig::cray1()),
              kWcirtUnbounded);
    // ...but the handler is not a W303 runaway: RTI stays reachable.
    EXPECT_FALSE(has(lint::analyze(handler),
                     Check::HandlerNoRtiPath));
}

TEST(WcirtHandlerPath, NoRtiAndEmptyHandlersAreUnbounded)
{
    ProgramBuilder b("haltish");
    b.handler();
    b.smovi(regS(1), 1);
    b.halt();
    EXPECT_EQ(lint::wcirtHandlerPathBound(b.build(),
                                          UarchConfig::cray1()),
              kWcirtUnbounded);
    EXPECT_EQ(lint::wcirtHandlerPathBound(Program{},
                                          UarchConfig::cray1()),
              kWcirtUnbounded);
}

// --- RUU-W303: handler with no RTI-reachable exit ----------------------

TEST(LintHandlerRunaway, HaltingHandlerIsFlaggedWithAPath)
{
    ProgramBuilder b("runaway");
    b.handler();
    b.smovi(regS(1), 1);
    b.halt();
    auto diags = lint::analyze(b.build());
    ASSERT_TRUE(has(diags, Check::HandlerNoRtiPath));
    auto it = std::find_if(diags.begin(), diags.end(),
                           [](const lint::Diagnostic &d) {
                               return d.check == Check::HandlerNoRtiPath;
                           });
    EXPECT_NE(it->message.find("parcel"), std::string::npos)
        << it->message;
    EXPECT_NE(it->fixHint.find("RTI"), std::string::npos);
}

TEST(LintHandlerRunaway, RtiOnEveryPathIsClean)
{
    ProgramBuilder b("clean");
    b.handler();
    b.jaz("skip");
    b.mfcause(regS(1));
    b.rti();
    b.label("skip");
    b.rti();
    EXPECT_FALSE(has(lint::analyze(b.build()),
                     Check::HandlerNoRtiPath));
}

TEST(LintHandlerRunaway, OnlyTheRunawayRegionRootIsReported)
{
    // One branch escapes to a two-block HALT region; only the region's
    // first block draws the diagnostic, not every block inside it.
    ProgramBuilder b("partial");
    b.handler();
    b.jaz("stuck");
    b.rti();
    b.label("stuck");
    b.smovi(regS(1), 1);
    b.jap("tail"); // whichever way it goes, no RTI ahead
    b.label("tail");
    b.halt();
    auto diags = lint::analyze(b.build());
    const auto count = std::count_if(
        diags.begin(), diags.end(), [](const lint::Diagnostic &d) {
            return d.check == Check::HandlerNoRtiPath;
        });
    EXPECT_EQ(count, 1);
}

TEST(LintHandlerRunaway, NonHandlerProgramsAreExempt)
{
    ProgramBuilder b("plain");
    b.smovi(regS(1), 1);
    b.halt();
    EXPECT_FALSE(has(lint::analyze(b.build()),
                     Check::HandlerNoRtiPath));
}

// --- soundness against the controller ----------------------------------

/** The trap-loop workload from test_trap, compact trap area. */
Workload
loopWorkload()
{
    ProgramBuilder b("wcirt_loop");
    for (int i = 0; i < 8; ++i)
        b.word(static_cast<Addr>(100 + i), static_cast<Word>(10 + i));
    b.amovi(regA(1), 100);
    b.amovi(regA(2), 8);
    b.amovi(regA(3), 1);
    b.smovi(regS(1), 0);
    b.label("loop");
    b.lds(regS(2), regA(1), 0);
    b.sadd(regS(1), regS(1), regS(2));
    b.aadd(regA(1), regA(1), regA(3));
    b.asub(regA(2), regA(2), regA(3));
    b.mova(regA(0), regA(2));
    b.jan("loop");
    b.sts(regA(1), 0, regS(1));
    b.halt();
    return makeWorkload(b.build());
}

trap::TrapConfig
makeTrapConfig()
{
    trap::TrapConfig config;
    config.checkOracle = true;
    config.layout.exchangeBase = 0xf000;
    config.layout.scratchBase = 0xf800;
    config.memoryWords = 1u << 16;
    return config;
}

TEST(WcirtSoundness, EveryDeliveryStaysUnderTheCeilingOnEveryCore)
{
    Workload w = loopWorkload();
    trap::TrapConfig tconfig = makeTrapConfig();
    auto handler =
        std::make_shared<const Program>(trap::counterHandler());
    tconfig.handler = handler;
    for (CoreKind kind : allCoreKinds()) {
        auto core = makeCore(kind, UarchConfig::cray1());
        trap::TrapController controller(*core, tconfig);
        trap::TrapRunResult res = controller.run(
            w.trace(), trap::InterruptSource::periodic(32));
        ASSERT_TRUE(res.ok()) << coreKindName(kind) << ": " << res.error;
        ASSERT_FALSE(res.deliveries.empty()) << coreKindName(kind);

        lint::WcirtParams params;
        params.exchangeCycles = tconfig.exchangeCycles;
        params.maxLevels = tconfig.layout.maxLevels;
        lint::WcirtBound bound =
            lint::wcirtBound(w.trace(), *handler, UarchConfig::cray1(),
                             kind, params);
        EXPECT_EQ(res.wcirtCeiling, bound.cycles) << coreKindName(kind);
        EXPECT_NE(bound.cycles, kWcirtUnbounded);
        EXPECT_LE(res.maxDeliveryLatency, res.wcirtCeiling)
            << coreKindName(kind);
        EXPECT_LE(res.maxDrainCycles(), bound.breakdown.cut)
            << coreKindName(kind);
        const std::uint64_t response = bound.responseCeiling();
        for (const trap::Delivery &d : res.deliveries) {
            if (d.drainCycles != kNoCycle) {
                EXPECT_LE(d.drainCycles, bound.breakdown.cut)
                    << coreKindName(kind);
            }
            if (!d.sync && d.responseCycles != kNoCycle &&
                response != kWcirtUnbounded) {
                EXPECT_LE(d.responseCycles, response)
                    << coreKindName(kind);
            }
        }
    }
}

TEST(WcirtSoundness, KernelCeilingsHoldAndBeatTheLegacyWatchdog)
{
    // The derived watchdog budget (4x the whole-trace ceiling plus
    // fixed headroom) must be strictly tighter than the legacy
    // 2-billion-cycle constant on every kernel and scheme.
    const std::uint64_t legacy = trap::TrapConfig{}.maxCyclesPerSegment;
    for (std::size_t i : {std::size_t{0}, std::size_t{4},
                          std::size_t{10}}) {
        const Workload &w = livermoreWorkloads()[i];
        for (CoreKind kind : allCoreKinds()) {
            const std::uint64_t ceiling = lint::wcirtTraceCeiling(
                w.trace(), UarchConfig::cray1(), kind);
            ASSERT_NE(ceiling, kWcirtUnbounded)
                << w.name << " on " << coreKindName(kind);
            EXPECT_LT(ceiling * 4 + 1024, legacy)
                << w.name << " on " << coreKindName(kind);
            // And the run itself must fit under the segment ceiling.
            auto core = makeCore(kind, UarchConfig::cray1());
            RunResult run = core->run(w.trace());
            EXPECT_LE(run.cycles, ceiling)
                << w.name << " on " << coreKindName(kind);
        }
    }
}

// --- the runtime guards still fire with derived watchdogs --------------

TEST(WcirtGuards, RunawayHandlerStillTripsTheInstructionGuard)
{
    Workload w = loopWorkload();
    trap::TrapConfig tconfig = makeTrapConfig();
    tconfig.checkOracle = false;
    tconfig.maxHandlerInstructions = 500;
    ProgramBuilder h("spin_handler");
    h.handler();
    h.amovi(regA(0), 0);
    h.label("spin");
    h.nop();
    h.jaz("spin");
    h.rti(); // unreachable at runtime: A0 is pinned to zero
    tconfig.handler = std::make_shared<const Program>(h.build());
    auto core = makeCore(CoreKind::Ruu, UarchConfig::cray1());
    trap::TrapController controller(*core, tconfig);
    trap::TrapRunResult res =
        controller.run(w.trace(), trap::InterruptSource::periodic(64));
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error.find("without RTI"), std::string::npos)
        << res.error;
}

TEST(WcirtGuards, DeliveryStormStillTripsTheDeliveryGuard)
{
    Workload w = loopWorkload();
    trap::TrapConfig tconfig = makeTrapConfig();
    tconfig.checkOracle = false;
    tconfig.maxDeliveries = 2;
    auto core = makeCore(CoreKind::Ruu, UarchConfig::cray1());
    trap::TrapController controller(*core, tconfig);
    trap::TrapRunResult res =
        controller.run(w.trace(), trap::InterruptSource::periodic(16));
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error.find("delivery storm"), std::string::npos)
        << res.error;
}

// --- the memoized cache -------------------------------------------------

TEST(WcirtCache, CachedBoundMatchesDirectAndHitsOnRepeat)
{
    Workload w = tinyWorkload();
    Program handler = straightHandler();
    UarchConfig config = UarchConfig::cray1();
    lint::WcirtBound direct =
        lint::wcirtBound(w.trace(), handler, config, CoreKind::Ruu);
    const lint::WcirtBound &cached = lint::cachedWcirtBound(
        w.trace(), handler, config, CoreKind::Ruu);
    EXPECT_EQ(cached.cycles, direct.cycles);
    EXPECT_EQ(cached.breakdown.cut, direct.breakdown.cut);
    EXPECT_EQ(cached.breakdown.segment, direct.breakdown.segment);

    // Counters are process-global: assert on deltas only.
    lint::BoundCacheStats before = lint::wcirtBoundCacheStats();
    const lint::WcirtBound &again = lint::cachedWcirtBound(
        w.trace(), handler, config, CoreKind::Ruu);
    lint::BoundCacheStats after = lint::wcirtBoundCacheStats();
    EXPECT_EQ(&again, &cached); // stable reference
    EXPECT_EQ(after.lookups, before.lookups + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(WcirtCache, KeyDistinguishesSchemeHandlerAndParameters)
{
    Workload w = tinyWorkload();
    Program handler = straightHandler();
    UarchConfig config = UarchConfig::cray1();
    const lint::WcirtBound &base = lint::cachedWcirtBound(
        w.trace(), handler, config, CoreKind::Ruu);

    // A different scheme, a different handler, different trap
    // parameters and a different window size each get their own entry.
    const lint::WcirtBound &scheme = lint::cachedWcirtBound(
        w.trace(), handler, config, CoreKind::History);
    EXPECT_NE(&scheme, &base);

    Program other = trap::counterHandler();
    const lint::WcirtBound &swapped = lint::cachedWcirtBound(
        w.trace(), other, config, CoreKind::Ruu);
    EXPECT_NE(&swapped, &base);

    lint::WcirtParams params;
    params.exchangeCycles = 16;
    const lint::WcirtBound &exchanged = lint::cachedWcirtBound(
        w.trace(), handler, config, CoreKind::Ruu, params);
    EXPECT_NE(&exchanged, &base);
    EXPECT_EQ(exchanged.breakdown.cut, base.breakdown.cut);
    EXPECT_EQ(exchanged.cycles, base.breakdown.cut + 16);

    UarchConfig pool = config;
    pool.poolEntries = 24;
    const lint::WcirtBound &larger = lint::cachedWcirtBound(
        w.trace(), handler, pool, CoreKind::Ruu);
    EXPECT_NE(&larger, &base);
    EXPECT_GT(larger.breakdown.occupancy, base.breakdown.occupancy);
}

} // namespace
} // namespace ruu
