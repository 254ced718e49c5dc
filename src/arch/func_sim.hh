/**
 * @file
 * The functional simulator: executes a Program to completion and
 * produces the dynamic Trace consumed by the timing cores.
 *
 * This is the reproduction's stand-in for the CRAY-1 simulation tools
 * of Pang & Smith that the paper used to generate its traces (§2.1).
 */

#ifndef RUU_ARCH_FUNC_SIM_HH
#define RUU_ARCH_FUNC_SIM_HH

#include <memory>

#include "arch/executor.hh"
#include "arch/memory.hh"
#include "arch/state.hh"
#include "asm/program.hh"
#include "trace/trace.hh"

namespace ruu
{

/** Result of a functional run. */
struct FuncResult
{
    Trace trace;          //!< full dynamic trace (includes HALT)
    ArchState finalState; //!< registers after the last instruction
    Memory finalMemory;   //!< memory after the last instruction
    bool halted = false;  //!< program reached HALT
    Fault fault = Fault::None; //!< first organic fault, if any
    SeqNum faultSeq = kNoSeqNum; //!< dynamic index of that fault

    /** Dynamic instruction count. */
    std::size_t instructions() const { return trace.size(); }
};

/** Options for a functional run. */
struct FuncSimOptions
{
    /** Abort runaway programs after this many dynamic instructions. */
    std::uint64_t maxInstructions = 50'000'000;

    /** Data memory capacity in words. */
    std::size_t memoryWords = Memory::kDefaultWords;
};

/**
 * Execute @p program from instruction 0 until HALT, a fault, or the
 * instruction limit.
 *
 * @param program shared so the returned Trace can reference it.
 */
FuncResult runFunctional(std::shared_ptr<const Program> program,
                         const FuncSimOptions &options = {});

/**
 * Execute only the first @p count dynamic instructions of @p program.
 *
 * This is the precise-interrupt oracle: the RUU's state after
 * committing k instructions must equal runPrefix(..., k).
 */
FuncResult runPrefix(std::shared_ptr<const Program> program,
                     std::uint64_t count,
                     const FuncSimOptions &options = {});

/**
 * Execute @p program from static instruction @p startIndex, starting
 * from the given architectural @p state and @p memory, until HALT, a
 * fault, or the instruction limit.
 *
 * This is the interrupt-service model of the sweep harness
 * (oracle/sweep.hh): reconstruct the architectural state a timing core
 * reported at an interrupt, hand it to the sequential machine, and let
 * it finish the program. For a precise core the result must be
 * bit-identical to an uninterrupted run.
 */
FuncResult resumeFunctional(std::shared_ptr<const Program> program,
                            std::size_t startIndex,
                            const ArchState &state, const Memory &memory,
                            const FuncSimOptions &options = {});

} // namespace ruu

#endif // RUU_ARCH_FUNC_SIM_HH
