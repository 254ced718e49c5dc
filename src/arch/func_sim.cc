#include "arch/func_sim.hh"

#include "common/logging.hh"

namespace ruu
{

namespace
{

FuncResult
runFrom(std::shared_ptr<const Program> program, std::size_t start,
        std::uint64_t limit, FuncResult result)
{
    ruu_assert(program != nullptr, "null program");
    result.trace = Trace(program);

    if (program->empty())
        return result;

    std::size_t index = start;
    std::uint64_t executed = 0;
    while (executed < limit) {
        ExecOutcome out = execute(*program, index, result.finalState,
                                  result.finalMemory);

        TraceRecord record;
        record.inst = program->inst(index);
        record.staticIndex = index;
        record.pc = program->pc(index);
        record.memAddr = out.memAddr;
        record.result = out.value;
        record.storeValue = out.storeValue;
        record.taken = out.taken;
        record.fault = out.fault;

        if (out.fault != Fault::None) {
            // A faulting instruction is recorded (the timing cores need
            // to see it to raise the interrupt) but has no side effects
            // and ends the functional run.
            result.trace.append(record);
            result.fault = out.fault;
            result.faultSeq = result.trace.size() - 1;
            return result;
        }

        result.trace.append(record);
        ++executed;

        if (out.halted) {
            result.halted = true;
            return result;
        }
        ruu_assert(out.nextIndex.has_value(),
                   "no successor for a non-halting instruction");
        index = *out.nextIndex;
        ruu_assert(index < program->size(),
                   "control fell off the end of program '%s'",
                   program->name().c_str());
    }
    return result;
}

FuncResult
run(std::shared_ptr<const Program> program, std::uint64_t limit,
    const FuncSimOptions &options)
{
    FuncResult initial;
    initial.finalMemory = Memory(options.memoryWords);
    for (const auto &init : program->dataInits()) {
        if (!initial.finalMemory.store(init.addr, init.value))
            ruu_fatal("data init at %llu is outside memory (%zu words)",
                      static_cast<unsigned long long>(init.addr),
                      initial.finalMemory.sizeWords());
    }
    return runFrom(std::move(program), 0, limit, std::move(initial));
}

} // namespace

FuncResult
runFunctional(std::shared_ptr<const Program> program,
              const FuncSimOptions &options)
{
    return run(std::move(program), options.maxInstructions, options);
}

FuncResult
runPrefix(std::shared_ptr<const Program> program, std::uint64_t count,
          const FuncSimOptions &options)
{
    std::uint64_t limit = std::min<std::uint64_t>(count,
                                                  options.maxInstructions);
    return run(std::move(program), limit, options);
}

FuncResult
resumeFunctional(std::shared_ptr<const Program> program,
                 std::size_t startIndex, const ArchState &state,
                 const Memory &memory, const FuncSimOptions &options)
{
    ruu_assert(program && startIndex < program->size(),
               "resumeFunctional start index out of range");
    FuncResult initial;
    initial.finalState = state;
    initial.finalMemory = memory;
    return runFrom(std::move(program), startIndex,
                   options.maxInstructions, std::move(initial));
}

} // namespace ruu
