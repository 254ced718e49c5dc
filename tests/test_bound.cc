/**
 * @file
 * Tests for the resource-aware static performance bound
 * (lint/resource_bound.hh): hand-computed floors on small programs,
 * soundness against every core, strict tightening over the PR 2
 * dependence-only bound on the kernel suite, monotonicity in each
 * resource knob, and the memoized cache.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/lll.hh"
#include "lint/resource_bound.hh"
#include "oracle/verify.hh"
#include "sim/machine.hh"

namespace ruu
{
namespace
{

unsigned
fuIndex(FuKind kind)
{
    return static_cast<unsigned>(kind);
}

TEST(ResourceBound, DependenceChainBindsOnTheDependence)
{
    // smovi (Transmit, 1) -> fadd (FpAdd, 6) -> fmul (FpMul, 7):
    // the dependence critical path (14 + issue cycle) dominates every
    // structural floor, so the resource bound equals the PR 2 bound
    // and names the dependence as binding.
    Workload w = workloadFromSource(R"(
.program chain
    smovi S1, 3
    fadd S2, S1, S1
    fmul S3, S2, S2
    halt
)",
                                    "chain");
    lint::ResourceBound bound =
        lint::resourceBound(w.trace(), UarchConfig::cray1());
    EXPECT_EQ(bound.cycles, 15u);
    EXPECT_EQ(bound.breakdown.dependence, 15u);
    EXPECT_EQ(bound.breakdown.schedule, 15u);
    EXPECT_EQ(bound.breakdown.decode, 4u);
    EXPECT_EQ(bound.breakdown.binding, lint::BoundResource::Dependence);
    EXPECT_EQ(bound.bindingName(), "dependence");
    EXPECT_EQ(bound.dataflow.cycles, 15u);
}

TEST(ResourceBound, IndependentInstructionsBindOnDecode)
{
    std::string source = ".program flat\n";
    for (int i = 1; i <= 7; ++i)
        source += "    amovi A" + std::to_string(i) + ", " +
                  std::to_string(i) + "\n";
    source += "    halt\n";
    Workload w = workloadFromSource(source, "flat");
    lint::ResourceBound bound =
        lint::resourceBound(w.trace(), UarchConfig::cray1());
    // Eight records, no branches: the decode floor is the bound.
    EXPECT_EQ(bound.breakdown.decode, 8u);
    EXPECT_EQ(bound.cycles, 8u);
    EXPECT_EQ(bound.breakdown.binding, lint::BoundResource::Decode);
    // Per-class floor of the Transmit class: first decode slot (1) +
    // ceil(7/1) - 1 initiations + 1 cycle drain.
    EXPECT_EQ(bound.breakdown.fuClass[fuIndex(FuKind::Transmit)], 8u);
    // Seven bus deliveries, one bus, none before cycle 2.
    EXPECT_EQ(bound.breakdown.resultBus, 8u);
    EXPECT_EQ(bound.breakdown.commit, 8u);
}

TEST(ResourceBound, TakenBranchBubblesTightenThePipelineSchedule)
{
    // Three-iteration counted loop. The PR 2 bound sees 10 non-branch
    // decode slots and a 9-cycle dependence chain (bound 10); the
    // resource bound charges every record a decode slot plus a bubble
    // of min(taken-1, predicted_taken, mispredict-1) = 1 cycle per
    // taken branch, and interleaves that with the A1 dependence chain.
    Workload w = workloadFromSource(R"(
.program loopy
    amovi A1, 0
    amovi A6, 1
    amovi A5, 3
loop:
    aadd A1, A1, A6
    asub A0, A1, A5
    jam loop
    halt
)",
                                    "loopy");
    UarchConfig config = UarchConfig::cray1();
    lint::ResourceBound bound = lint::resourceBound(w.trace(), config);
    // 13 records, 2 taken branches.
    EXPECT_EQ(bound.breakdown.decode, 15u);
    EXPECT_EQ(bound.breakdown.dependence, 10u);
    EXPECT_EQ(bound.breakdown.schedule, 16u);
    EXPECT_EQ(bound.cycles, 16u);
    EXPECT_EQ(bound.breakdown.binding, lint::BoundResource::Schedule);
    EXPECT_EQ(bound.dataflow.cycles, 10u);
    EXPECT_GT(bound.cycles, bound.dataflow.cycles);

    for (CoreKind kind : allCoreKinds()) {
        auto core = makeCore(kind, config);
        RunResult run = core->run(w.trace());
        EXPECT_GE(run.cycles, bound.cycles)
            << w.name << " on " << coreKindName(kind);
    }
}

TEST(ResourceBound, ExtraUnitsRelaxTheClassFloor)
{
    std::string source = ".program mems\n    amovi A1, 0\n";
    for (int i = 1; i <= 6; ++i)
        source += "    lds S" + std::to_string(i) + ", " +
                  std::to_string(100 + i) + "(A1)\n";
    source += "    halt\n";
    Workload w = workloadFromSource(source, "mems");

    UarchConfig one = UarchConfig::cray1();
    lint::ResourceBound b1 = lint::resourceBound(w.trace(), one);
    // Memory class: first decode slot 2, six initiations, and the
    // cheapest memory op costs min(memory latency, forward) = 1.
    EXPECT_EQ(b1.breakdown.fuClass[fuIndex(FuKind::Memory)], 8u);

    UarchConfig two = one;
    two.fuCount[fuIndex(FuKind::Memory)] = 2;
    lint::ResourceBound b2 = lint::resourceBound(w.trace(), two);
    EXPECT_EQ(b2.breakdown.fuClass[fuIndex(FuKind::Memory)], 5u);
    EXPECT_LE(b2.cycles, b1.cycles);
}

TEST(ResourceBound, WiderBusesAndCommitRelaxTheirFloors)
{
    const Workload &w = livermoreWorkloads()[2];
    UarchConfig narrow = UarchConfig::cray1();
    lint::ResourceBound base = lint::resourceBound(w.trace(), narrow);

    UarchConfig wide = narrow;
    wide.resultBuses = 4;
    wide.commitWidth = 4;
    lint::ResourceBound relaxed = lint::resourceBound(w.trace(), wide);
    EXPECT_LT(relaxed.breakdown.resultBus, base.breakdown.resultBus);
    EXPECT_LT(relaxed.breakdown.commit, base.breakdown.commit);
    EXPECT_LE(relaxed.cycles, base.cycles);
}

TEST(ResourceBound, MonotoneInEveryResourceKnob)
{
    const Workload &w = livermoreWorkloads()[0];
    UarchConfig base = UarchConfig::cray1();
    std::uint64_t baseline = lint::resourceBound(w.trace(), base).cycles;

    // More of any resource never raises the bound.
    for (unsigned i = 0; i < kNumFuKinds; ++i) {
        UarchConfig c = base;
        c.fuCount[i] = 4;
        EXPECT_LE(lint::resourceBound(w.trace(), c).cycles, baseline)
            << "fuCount[" << fuKindName(static_cast<FuKind>(i)) << "]";
    }
    for (unsigned buses : {2u, 4u}) {
        UarchConfig c = base;
        c.resultBuses = buses;
        EXPECT_LE(lint::resourceBound(w.trace(), c).cycles, baseline);
    }
    for (unsigned width : {2u, 4u}) {
        UarchConfig c = base;
        c.commitWidth = width;
        EXPECT_LE(lint::resourceBound(w.trace(), c).cycles, baseline);
    }

    // Higher latency never lowers it.
    for (unsigned i = 0; i + 1 < kNumFuKinds; ++i) {
        UarchConfig c = base;
        c.fuLatency[i] += 5;
        EXPECT_GE(lint::resourceBound(w.trace(), c).cycles, baseline)
            << "fuLatency[" << fuKindName(static_cast<FuKind>(i))
            << "]";
    }
}

TEST(ResourceBound, SoundOnKernelsForEveryCore)
{
    for (std::size_t i : {std::size_t{0}, std::size_t{4},
                          std::size_t{10}}) {
        const Workload &w = livermoreWorkloads()[i];
        lint::ResourceBound bound =
            lint::resourceBound(w.trace(), UarchConfig::cray1());
        EXPECT_GE(bound.cycles, bound.dataflow.cycles) << w.name;
        for (CoreKind kind : allCoreKinds()) {
            auto core = makeCore(kind, UarchConfig::cray1());
            RunResult run = core->run(w.trace());
            EXPECT_GE(run.cycles, bound.cycles)
                << w.name << " on " << coreKindName(kind);
        }
    }
}

TEST(ResourceBound, StrictlyTighterThanDependenceOnMostKernels)
{
    // The acceptance bar of the analyzer: on the paper's machine
    // model, the resource-aware bound must strictly beat the
    // dependence-only bound on at least half of the 14 kernels.
    const auto &workloads = livermoreWorkloads();
    std::size_t tighter = 0;
    for (const Workload &w : workloads) {
        lint::ResourceBound bound =
            lint::resourceBound(w.trace(), UarchConfig::cray1());
        ASSERT_GE(bound.cycles, bound.dataflow.cycles) << w.name;
        if (bound.cycles > bound.dataflow.cycles)
            ++tighter;
    }
    EXPECT_GE(tighter, workloads.size() / 2)
        << "resource bound no tighter than the dependence bound";
}

TEST(ResourceBound, EstimateIsReportedAndNeverBelowTheBound)
{
    for (const Workload &w : livermoreWorkloads()) {
        lint::ResourceBound bound =
            lint::resourceBound(w.trace(), UarchConfig::cray1());
        EXPECT_GE(bound.estimateCycles,
                  static_cast<double>(bound.cycles))
            << w.name;
        EXPECT_GT(bound.estimateOccupancy, 0.0) << w.name;
        EXPECT_TRUE(std::isfinite(bound.estimateCycles)) << w.name;
        EXPECT_TRUE(std::isfinite(bound.estimateOccupancy)) << w.name;
    }
}

TEST(ResourceBound, CachedBoundMatchesDirectComputation)
{
    const Workload &w = livermoreWorkloads()[1];
    UarchConfig config = UarchConfig::cray1();
    lint::ResourceBound direct = lint::resourceBound(w.trace(), config);
    const lint::ResourceBound &cached =
        lint::cachedResourceBound(w.trace(), config);
    EXPECT_EQ(cached.cycles, direct.cycles);
    EXPECT_EQ(cached.breakdown.binding, direct.breakdown.binding);
    EXPECT_EQ(cached.dataflow.cycles, direct.dataflow.cycles);

    // Counters are process-global: assert on deltas only.
    lint::BoundCacheStats before = lint::resourceBoundCacheStats();
    const lint::ResourceBound &again =
        lint::cachedResourceBound(w.trace(), config);
    lint::BoundCacheStats after = lint::resourceBoundCacheStats();
    EXPECT_EQ(&again, &cached); // stable reference
    EXPECT_EQ(after.lookups, before.lookups + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(ResourceBound, CacheDistinguishesResourceKnobs)
{
    // poolEntries is deliberately absent from the key (the bound is
    // invariant across pool sizes); the resource knobs are present.
    const Workload &w = livermoreWorkloads()[3];
    UarchConfig config = UarchConfig::cray1();
    const lint::ResourceBound &base =
        lint::cachedResourceBound(w.trace(), config);

    UarchConfig pool = config;
    pool.poolEntries = 99;
    EXPECT_EQ(&lint::cachedResourceBound(w.trace(), pool), &base);

    UarchConfig buses = config;
    buses.resultBuses = 2;
    const lint::ResourceBound &other =
        lint::cachedResourceBound(w.trace(), buses);
    EXPECT_NE(&other, &base);
}

} // namespace
} // namespace ruu
