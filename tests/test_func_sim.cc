/**
 * @file
 * Tests for the functional simulator / trace generator
 * (arch/func_sim.hh) — the reproduction's stand-in for the paper's
 * CRAY-1 simulation tools.
 */

#include <gtest/gtest.h>

#include "arch/func_sim.hh"
#include "asm/builder.hh"
#include "common/bitfield.hh"

namespace ruu
{
namespace
{

/** A counting loop: sums 0..n-1 into S1 and stores it at @p out. */
Program
sumProgram(int n, Addr out)
{
    ProgramBuilder b("sum");
    b.amovi(regA(1), 0);
    b.amovi(regA(6), 1);
    b.amovi(regA(5), n);
    b.smovi(regS(1), 0);
    b.label("loop");
    b.movsa(regS(2), regA(1));
    b.sadd(regS(1), regS(1), regS(2));
    b.aadd(regA(1), regA(1), regA(6));
    b.asub(regA(0), regA(1), regA(5));
    b.jam("loop");
    b.amovi(regA(2), 0);
    b.sts(regA(2), static_cast<std::int64_t>(out), regS(1));
    b.halt();
    return b.build();
}

TEST(FuncSim, RunsALoopToCompletion)
{
    auto program = std::make_shared<const Program>(sumProgram(10, 500));
    FuncResult result = runFunctional(program);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.fault, Fault::None);
    EXPECT_EQ(result.finalMemory.at(500), 45u); // 0+1+...+9
    // 4 prologue + 10 * 5 loop + 3 epilogue (incl. HALT).
    EXPECT_EQ(result.trace.size(), 4u + 50u + 3u);
}

TEST(FuncSim, TraceRecordsBranchOutcomes)
{
    auto program = std::make_shared<const Program>(sumProgram(3, 500));
    FuncResult result = runFunctional(program);
    unsigned taken = 0, untaken = 0;
    for (const auto &rec : result.trace.records()) {
        if (!isBranch(rec.inst.op))
            continue;
        if (rec.taken)
            ++taken;
        else
            ++untaken;
    }
    EXPECT_EQ(taken, 2u);   // loop closes twice
    EXPECT_EQ(untaken, 1u); // final fall-through
    EXPECT_EQ(result.trace.countCondBranches(), 3u);
}

TEST(FuncSim, TraceRecordsResultsAndAddresses)
{
    ProgramBuilder b("vals");
    b.fword(100, 1.5);
    b.amovi(regA(1), 0);
    b.lds(regS(1), regA(1), 100);
    b.fadd(regS(2), regS(1), regS(1));
    b.sts(regA(1), 101, regS(2));
    b.halt();
    auto program = std::make_shared<const Program>(b.build());
    FuncResult result = runFunctional(program);

    const auto &records = result.trace.records();
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[1].memAddr, 100u);
    EXPECT_EQ(records[1].result, doubleToWord(1.5));
    EXPECT_EQ(records[2].result, doubleToWord(3.0));
    EXPECT_EQ(records[3].memAddr, 101u);
    EXPECT_EQ(records[3].storeValue, doubleToWord(3.0));
    // Each record carries its parcel address.
    EXPECT_EQ(records[0].pc, 0u);
    EXPECT_EQ(records[1].pc, 2u);
    EXPECT_EQ(result.trace.countMemOps(), 2u);
}

TEST(FuncSim, PrefixExecutionIsAnOracle)
{
    auto program = std::make_shared<const Program>(sumProgram(10, 500));
    FuncResult full = runFunctional(program);
    for (std::uint64_t k : {0u, 1u, 5u, 20u, 40u}) {
        FuncResult prefix = runPrefix(program, k);
        EXPECT_EQ(prefix.trace.size(), k);
        EXPECT_FALSE(prefix.halted && k < full.trace.size());
    }
    // The complete prefix equals the full run.
    FuncResult all = runPrefix(program, full.trace.size());
    EXPECT_EQ(all.finalState, full.finalState);
    EXPECT_TRUE(all.finalMemory == full.finalMemory);
}

TEST(FuncSim, InstructionLimitStopsRunaways)
{
    ProgramBuilder b("forever");
    b.label("spin");
    b.j("spin");
    auto program = std::make_shared<const Program>(b.build());
    FuncSimOptions options;
    options.maxInstructions = 100;
    FuncResult result = runFunctional(program, options);
    EXPECT_FALSE(result.halted);
    EXPECT_EQ(result.trace.size(), 100u);
}

TEST(FuncSim, OrganicFaultStopsAndIsRecorded)
{
    ProgramBuilder b("faulty");
    b.amovi(regA(1), (1 << 21) - 1); // beyond memory
    b.lda(regA(2), regA(1), 0);
    b.halt();
    auto program = std::make_shared<const Program>(b.build());
    FuncResult result = runFunctional(program);
    EXPECT_FALSE(result.halted);
    EXPECT_EQ(result.fault, Fault::PageFault);
    EXPECT_EQ(result.faultSeq, 1u);
    EXPECT_EQ(result.trace.at(1).fault, Fault::PageFault);
}

TEST(FuncSim, DataInitsPopulateMemory)
{
    ProgramBuilder b("data");
    b.fword(10, 2.25);
    b.word(11, 77);
    b.halt();
    auto program = std::make_shared<const Program>(b.build());
    FuncResult result = runFunctional(program);
    EXPECT_DOUBLE_EQ(result.finalMemory.atDouble(10), 2.25);
    EXPECT_EQ(result.finalMemory.at(11), 77u);
}

TEST(Trace, FaultInjectionAnnotatesRecords)
{
    auto program = std::make_shared<const Program>(sumProgram(5, 500));
    FuncResult result = runFunctional(program);
    Trace trace = result.trace;
    trace.injectFault(3, Fault::PageFault);
    EXPECT_EQ(trace.at(3).fault, Fault::PageFault);
    trace.clearFaults();
    EXPECT_EQ(trace.at(3).fault, Fault::None);
}

TEST(Memory, BoundsChecking)
{
    Memory memory(128);
    EXPECT_TRUE(memory.mapped(127));
    EXPECT_FALSE(memory.mapped(128));
    EXPECT_TRUE(memory.store(5, 42));
    EXPECT_EQ(memory.load(5), std::optional<Word>(42));
    EXPECT_FALSE(memory.store(128, 1));
    EXPECT_FALSE(memory.load(128).has_value());
    memory.clear();
    EXPECT_EQ(memory.at(5), 0u);
}

TEST(Memory, FaultsAtAndPastCapacity)
{
    Memory memory;
    const Addr cap = Memory::kDefaultWords;
    EXPECT_EQ(memory.sizeWords(), cap);
    EXPECT_TRUE(memory.store(cap - 1, 9));
    EXPECT_EQ(memory.load(cap - 1), std::optional<Word>(9));
    for (Addr addr : {cap, cap + 1, cap + Memory::kPageWords, ~Addr{0}}) {
        EXPECT_FALSE(memory.mapped(addr));
        EXPECT_FALSE(memory.store(addr, 1));
        EXPECT_FALSE(memory.load(addr).has_value());
    }
    EXPECT_DEATH(memory.at(cap), "unmapped address");
    EXPECT_DEATH(memory.set(cap, 1), "unmapped address");

    // A capacity that ends mid-page faults at the capacity, not at the
    // page boundary.
    Memory odd(Memory::kPageWords + 3);
    EXPECT_TRUE(odd.store(Memory::kPageWords + 2, 1));
    EXPECT_FALSE(odd.store(Memory::kPageWords + 3, 1));

    Memory none(0);
    EXPECT_FALSE(none.mapped(0));
    EXPECT_FALSE(none.load(0).has_value());
}

TEST(Memory, UnwrittenWordsReadAsZero)
{
    Memory memory;
    for (Addr addr : {Addr{0}, Addr{511}, Addr{512}, Addr{70000},
                      Addr{Memory::kDefaultWords - 1}}) {
        EXPECT_EQ(memory.load(addr), std::optional<Word>(0));
        EXPECT_EQ(memory.at(addr), 0u);
    }
    memory.set(1000, doubleToWord(2.5));
    EXPECT_DOUBLE_EQ(memory.atDouble(1000), 2.5);
    EXPECT_EQ(memory.at(999), 0u);
    EXPECT_EQ(memory.at(1001), 0u);
}

TEST(Memory, StoringZeroIntoAMissingPageEqualsAFreshImage)
{
    Memory memory;
    EXPECT_TRUE(memory.store(4096, 0));
    memory.set(Memory::kDefaultWords - 1, 0);
    EXPECT_EQ(memory, Memory());

    // Zeroing a written word brings it back to equal a fresh image too.
    memory.set(7, 3);
    EXPECT_NE(memory, Memory());
    memory.set(7, 0);
    EXPECT_EQ(memory, Memory());
    EXPECT_FALSE(memory.firstDifference(Memory()).has_value());
}

TEST(Memory, CopiesAreIndependentInBothDirections)
{
    Memory original;
    original.set(10, 1);
    original.set(5000, 2);

    Memory copy = original;
    EXPECT_EQ(copy, original);
    copy.set(10, 100);    // shared page
    copy.set(20000, 200); // page the original never had
    EXPECT_EQ(original.at(10), 1u);
    EXPECT_EQ(original.at(20000), 0u);
    EXPECT_EQ(copy.at(10), 100u);
    EXPECT_EQ(copy.at(5000), 2u);

    Memory second = original;
    original.set(5000, 3);
    original.store(10, 4);
    EXPECT_EQ(second.at(5000), 2u);
    EXPECT_EQ(second.at(10), 1u);
    EXPECT_EQ(copy.at(5000), 2u);

    Memory assigned;
    assigned = second;
    second.clear();
    EXPECT_EQ(assigned.at(10), 1u);
    EXPECT_EQ(second, Memory());
}

TEST(Memory, EqualityIgnoresPageSharing)
{
    Memory a;
    a.set(3, 30);
    a.set(900, 90);
    Memory shared = a;  // every page shared
    Memory rebuilt;     // same contents, no page shared
    rebuilt.set(900, 90);
    rebuilt.set(3, 30);
    Memory partly = a;  // one page shared, one cloned
    partly.set(901, 0);
    EXPECT_EQ(a, shared);
    EXPECT_EQ(a, rebuilt);
    EXPECT_EQ(a, partly);
    EXPECT_EQ(rebuilt, partly);

    rebuilt.set(901, 1);
    EXPECT_NE(a, rebuilt);
    EXPECT_EQ(a.firstDifference(rebuilt), std::optional<Addr>(901));
    EXPECT_EQ(rebuilt.firstDifference(a), std::optional<Addr>(901));
    EXPECT_EQ(a.firstDifference(Memory()), std::optional<Addr>(3));

    // Capacity is part of equality, as it was for the dense image.
    EXPECT_NE(Memory(128), Memory(256));
    EXPECT_NE(Memory(0), Memory());
}

TEST(ArchState, ReadWriteAllFiles)
{
    ArchState state;
    for (unsigned flat = 0; flat < kNumArchRegs; ++flat)
        state.write(RegId::fromFlat(flat), flat * 3 + 1);
    for (unsigned flat = 0; flat < kNumArchRegs; ++flat)
        EXPECT_EQ(state.read(RegId::fromFlat(flat)), flat * 3 + 1);
    ArchState other = state;
    EXPECT_EQ(state, other);
    other.write(regT(60), 0);
    EXPECT_NE(state, other);
    EXPECT_FALSE(state.dump().empty());
}

} // namespace
} // namespace ruu
