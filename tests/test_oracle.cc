/**
 * @file
 * Tests for the verification stack itself (src/oracle, the dataflow
 * bound): the lockstep commit oracle and the interrupt sweep must
 * accept every real core and, crucially, must *catch* a deliberately
 * broken one. ToyCore plants classic commit bugs — dropping a store,
 * reporting commits out of order, committing a wrong value, applying a
 * younger write before surfacing a fault — and each must be detected
 * by the layer designed for it.
 */

#include <gtest/gtest.h>

#include "kernels/lll.hh"
#include "lint/dataflow_bound.hh"
#include "oracle/commit_oracle.hh"
#include "oracle/sweep.hh"
#include "oracle/verify.hh"
#include "sim/random_program.hh"

namespace ruu
{
namespace
{

/**
 * A deliberately minimal sequential core: walks the trace in order,
 * applying the recorded effects — architecturally perfect, one cycle
 * per instruction — except for one plantable bug. Declares the
 * strongest contracts (Total order, precise interrupts) so every bug
 * is a contract violation the oracle stack must catch.
 */
class ToyCore : public Core
{
  public:
    enum class Bug
    {
        None,           //!< behave perfectly
        DropStore,      //!< first store never reaches memory or commits
        SwapCommits,    //!< report two adjacent commits in swapped order
        WrongValue,     //!< last register write commits a corrupt value
        ImpreciseFault, //!< apply one younger write before the interrupt
    };

    ToyCore(const UarchConfig &config, Bug bug)
        : Core(config), _bug(bug)
    {}

    const char *name() const override { return "toy"; }
    CommitOrder commitOrder() const override
    {
        return CommitOrder::Total;
    }
    bool preciseInterrupts() const override { return true; }

  protected:
    RunResult runImpl(const Trace &trace,
                      const RunOptions &options) override
    {
        RunResult result = makeInitialResult(trace, options);
        const auto &records = trace.records();
        bool dropped = false;
        bool swapped = false;
        const TraceRecord *delayed = nullptr;
        SeqNum delayedSeq = 0;
        SeqNum lastWriter = kNoSeqNum;
        for (SeqNum seq = records.size(); seq-- > options.startSeq;) {
            if (records[seq].inst.dst.valid() &&
                records[seq].fault == Fault::None) {
                lastWriter = seq;
                break;
            }
        }

        for (SeqNum seq = options.startSeq; seq < records.size();
             ++seq) {
            const TraceRecord &rec = records[seq];
            ++result.cycles;

            if (rec.fault != Fault::None) {
                if (_bug == Bug::ImpreciseFault) {
                    // The canonical imprecision: a younger instruction's
                    // result reaches the register file before the fault
                    // freezes the machine.
                    for (SeqNum young = seq + 1; young < records.size();
                         ++young) {
                        const TraceRecord &yrec = records[young];
                        if (yrec.fault == Fault::None &&
                            yrec.inst.dst.valid()) {
                            result.state.write(yrec.inst.dst,
                                               yrec.result);
                            break;
                        }
                    }
                }
                result.interrupted = true;
                result.fault = rec.fault;
                result.faultSeq = seq;
                result.faultPc = rec.pc;
                return result;
            }

            if (_bug == Bug::DropStore && !dropped &&
                isStore(rec.inst.op)) {
                dropped = true;
                continue; // no memory update, no commit report
            }

            if (rec.inst.dst.valid()) {
                Word value = rec.result;
                if (_bug == Bug::WrongValue && seq == lastWriter)
                    value ^= 1;
                result.state.write(rec.inst.dst, value);
            }
            if (isStore(rec.inst.op))
                result.memory.store(rec.memAddr, rec.storeValue);

            ++result.instructions;
            if (_bug == Bug::SwapCommits && !swapped &&
                isEffectfulRecord(rec) && seq + 1 < records.size()) {
                swapped = true;
                delayed = &rec; // hold this report back one instruction
                delayedSeq = seq;
                continue;
            }
            notifyCommit(seq, rec);
            if (delayed) {
                notifyCommit(delayedSeq, *delayed);
                delayed = nullptr;
            }
        }
        return result;
    }

  private:
    static bool isEffectfulRecord(const TraceRecord &rec)
    {
        return rec.inst.dst.valid() || isStore(rec.inst.op);
    }

    Bug _bug;
};

/** A branch-free program with distinct values at every step. */
Workload
toyWorkload()
{
    return workloadFromSource(R"(
.program toy
    amovi A1, 0
    smovi S1, 7
    sadd S2, S1, S1
    sts 100(A1), S2
    smovi S3, 5
    sadd S4, S2, S3
    sts 101(A1), S4
    sadd S5, S4, S1
    halt
)",
                              "toy");
}

/** Run @p core over @p workload under the oracle; return its verdict. */
bool
oracleAccepts(Core &core, const Workload &workload, std::string *why)
{
    RunOptions options;
    oracle::CommitOracle oracle(workload.trace(), core, options);
    options.observer = &oracle;
    RunResult run = core.run(workload.trace(), options);
    bool ok = oracle.finish(run);
    if (why)
        *why = oracle.report();
    return ok;
}

TEST(CommitOracle, AcceptsTheCleanToyCore)
{
    Workload w = toyWorkload();
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::None);
    std::string why;
    EXPECT_TRUE(oracleAccepts(core, w, &why)) << why;
}

TEST(CommitOracle, CleanToyCoreSurvivesTheExhaustiveSweep)
{
    Workload w = toyWorkload();
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::None);
    oracle::SweepOptions options;
    options.maxPoints = 0; // every faultable instruction
    oracle::SweepResult sweep =
        oracle::sweepInterrupts(core, w, options);
    EXPECT_GT(sweep.points, 0u);
    EXPECT_TRUE(sweep.ok()) << sweep.firstFailure;
    EXPECT_EQ(sweep.precisePoints, sweep.points);
    EXPECT_EQ(sweep.resumedExact, sweep.points);
}

TEST(CommitOracle, CatchesADroppedStore)
{
    Workload w = toyWorkload();
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::DropStore);
    std::string why;
    EXPECT_FALSE(oracleAccepts(core, w, &why));
    EXPECT_NE(why.find("expected"), std::string::npos) << why;
}

TEST(CommitOracle, CatchesSwappedCommits)
{
    Workload w = toyWorkload();
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::SwapCommits);
    std::string why;
    EXPECT_FALSE(oracleAccepts(core, w, &why));
}

TEST(CommitOracle, CatchesAWrongCommittedValue)
{
    Workload w = toyWorkload();
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::WrongValue);
    std::string why;
    EXPECT_FALSE(oracleAccepts(core, w, &why));
    EXPECT_NE(why.find("register state diverges"), std::string::npos)
        << why;
}

TEST(InterruptSweep, SampledSweepIncludesBothEndpoints)
{
    // Regression: the sampler's stride used to be i * n / budget, which
    // can never land on the final faultable instruction — interrupts at
    // the very end of a run went unexercised at every budget (and a
    // budget of 1 divided by zero). This program's dropped store is
    // detectable only at the last faultable position, so a sample that
    // skips the endpoint passes a core that drops stores.
    Workload w = workloadFromSource(R"(
.program tail
    amovi A1, 0
    smovi S1, 7
    sadd S2, S1, S1
    sts 100(A1), S2
    sadd S3, S1, S1
    halt
)",
                                    "tail");
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::DropStore);
    for (std::size_t budget : {std::size_t{1}, std::size_t{2}}) {
        oracle::SweepOptions options;
        options.maxPoints = budget;
        oracle::SweepResult sweep =
            oracle::sweepInterrupts(core, w, options);
        EXPECT_EQ(sweep.points, 2u) << "budget " << budget;
        EXPECT_FALSE(sweep.ok()) << "budget " << budget;
        EXPECT_EQ(sweep.firstFailureSeq, 4u) << "budget " << budget;
    }
}

TEST(InterruptSweep, CatchesTheDroppedStore)
{
    Workload w = toyWorkload();
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::DropStore);
    oracle::SweepOptions options;
    options.maxPoints = 0;
    oracle::SweepResult sweep =
        oracle::sweepInterrupts(core, w, options);
    EXPECT_FALSE(sweep.ok());
}

TEST(InterruptSweep, CatchesTheImpreciseFaultTheCleanOracleCannot)
{
    Workload w = toyWorkload();
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::ImpreciseFault);

    // The bug only manifests when a fault actually interrupts the run,
    // so the clean-run oracle sees nothing wrong...
    std::string why;
    EXPECT_TRUE(oracleAccepts(core, w, &why)) << why;

    // ...and only the sweep exposes the broken precision contract.
    oracle::SweepOptions options;
    options.maxPoints = 0;
    oracle::SweepResult sweep =
        oracle::sweepInterrupts(core, w, options);
    EXPECT_FALSE(sweep.ok());
    EXPECT_LT(sweep.precisePoints, sweep.points);
}

TEST(CommitOracle, AcceptsAllSixCoresOnAKernel)
{
    const Workload &w = livermoreWorkloads()[0];
    oracle::VerifyOptions options;
    auto cases = oracle::verifyWorkload(w, options);
    ASSERT_EQ(cases.size(), 6u);
    for (const auto &vc : cases) {
        EXPECT_TRUE(vc.ok)
            << coreKindName(vc.kind) << ": " << vc.message;
        EXPECT_TRUE(vc.boundOk) << coreKindName(vc.kind);
        EXPECT_GT(vc.pctOfLimit, 0.0);
        EXPECT_LE(vc.pctOfLimit, 100.0);
    }
}

TEST(InterruptSweep, AllSixCoresSurviveASampledSweep)
{
    // Sampled over a small looped random program; the toy-core tests
    // above cover the exhaustive (maxPoints = 0) path, and the
    // suite-scale sweep runs in CI via `ruusim verify suite --sweep`.
    RandomProgramOptions rp;
    rp.loops = 1;
    rp.bodyLength = 6;
    rp.iterations = 4;
    rp.straightLength = 4;
    Workload w = makeWorkload(generateRandomProgram(99, rp));

    oracle::VerifyOptions options;
    options.sweep = true;
    options.sweepOptions.maxPoints = 10;
    auto cases = oracle::verifyWorkload(w, options);
    ASSERT_EQ(cases.size(), 6u);
    for (const auto &vc : cases) {
        EXPECT_TRUE(vc.ok)
            << coreKindName(vc.kind) << ": " << vc.message;
        ASSERT_TRUE(vc.sweepRan);
        EXPECT_EQ(vc.sweep.points, 10u);
        EXPECT_GT(vc.sweep.faultable, vc.sweep.points);
        auto core = makeCore(vc.kind, options.config);
        if (core->preciseInterrupts()) {
            EXPECT_EQ(vc.sweep.precisePoints, vc.sweep.points)
                << coreKindName(vc.kind);
            EXPECT_EQ(vc.sweep.resumedExact, vc.sweep.points)
                << coreKindName(vc.kind);
        }
    }
}

TEST(DataflowBound, HandComputedDependenceChain)
{
    // smovi (Transmit, 1) -> fadd (FpAdd, 6) -> fmul (FpMul, 7):
    // critical path 14 cycles, plus the issue cycle.
    Workload w = workloadFromSource(R"(
.program chain
    smovi S1, 3
    fadd S2, S1, S1
    fmul S3, S2, S2
    halt
)",
                                    "chain");
    lint::DataflowBound bound =
        lint::dataflowBound(w.trace(), UarchConfig::cray1());
    EXPECT_EQ(bound.critPathCycles, 14u);
    EXPECT_EQ(bound.critTail, 2u);
    EXPECT_EQ(bound.critLength, 3u);
    EXPECT_EQ(bound.decodeFloor, 4u);
    EXPECT_EQ(bound.cycles, 15u);
}

TEST(DataflowBound, IndependentInstructionsHitTheDecodeFloor)
{
    std::string source = ".program flat\n";
    for (int i = 1; i <= 7; ++i)
        source += "    amovi A" + std::to_string(i) + ", " +
                  std::to_string(i) + "\n";
    source += "    halt\n";
    Workload w = workloadFromSource(source, "flat");
    lint::DataflowBound bound =
        lint::dataflowBound(w.trace(), UarchConfig::cray1());
    // No dependences: the bound is the decode floor, not the (shorter)
    // critical path.
    EXPECT_EQ(bound.decodeFloor, 8u);
    EXPECT_EQ(bound.cycles, 8u);
    EXPECT_LT(bound.critPathCycles + 1, bound.cycles);
}

TEST(DataflowBound, StoreToLoadEdgeIsOnTheCriticalPath)
{
    // The load's value flows through the store: amovi/smovi (1) ->
    // store (0) -> forwarded load (1) -> sadd (3) = 5 cycles.
    Workload w = workloadFromSource(R"(
.program stld
    amovi A1, 0
    smovi S1, 9
    sts 50(A1), S1
    lds S2, 50(A1)
    sadd S3, S2, S2
    halt
)",
                                    "stld");
    lint::DataflowBound bound =
        lint::dataflowBound(w.trace(), UarchConfig::cray1());
    EXPECT_EQ(bound.critPathCycles, 5u);
    EXPECT_EQ(bound.critTail, 4u);
    EXPECT_EQ(bound.decodeFloor, 6u);
    EXPECT_EQ(bound.cycles, 6u);
}

TEST(DataflowBound, HoldsForEveryCoreOnKernels)
{
    // runSuite() fatals on a bound violation; this is the direct form.
    for (std::size_t i : {std::size_t{4}, std::size_t{10}}) {
        const Workload &w = livermoreWorkloads()[i];
        lint::DataflowBound bound =
            lint::dataflowBound(w.trace(), UarchConfig::cray1());
        EXPECT_GT(bound.cycles, 0u);
        for (CoreKind kind : allCoreKinds()) {
            auto core = makeCore(kind, UarchConfig::cray1());
            RunResult run = core->run(w.trace());
            EXPECT_GE(run.cycles, bound.cycles)
                << w.name << " on " << coreKindName(kind);
        }
    }
}

TEST(CommitOracle, ReportsTheDivergenceWithADisassembledWindow)
{
    Workload w = toyWorkload();
    ToyCore core(UarchConfig::cray1(), ToyCore::Bug::DropStore);
    RunOptions options;
    oracle::CommitOracle oracle(w.trace(), core, options);
    options.observer = &oracle;
    RunResult run = core.run(w.trace(), options);
    oracle.finish(run);
    std::string report = oracle.report();
    EXPECT_NE(report.find("dynamic trace around the divergence"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("sts"), std::string::npos) << report;
    EXPECT_NE(report.find(">"), std::string::npos) << report;
}

} // namespace
} // namespace ruu
