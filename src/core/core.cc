#include "core/core.hh"

#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "engine/stream.hh"
#include "isa/disasm.hh"

namespace ruu
{

namespace
{

bool
invariantsForced()
{
    const char *env = std::getenv("RUU_CHECK_INVARIANTS");
    return env && *env != '\0' && std::string(env) != "0";
}

} // namespace

const char *
commitOrderName(CommitOrder order)
{
    switch (order) {
      case CommitOrder::Total: return "total";
      case CommitOrder::DataInOrder: return "data_in_order";
      case CommitOrder::None: return "none";
    }
    return "?";
}

Core::Core(const UarchConfig &config) : _config(config)
{
    std::string problem = config.validate();
    if (!problem.empty())
        ruu_fatal("bad UarchConfig: %s", problem.c_str());
}

RunResult
Core::run(const Trace &trace, const RunOptions &options)
{
    ruu_assert(options.startSeq <= trace.size(),
               "startSeq %llu beyond trace end",
               static_cast<unsigned long long>(options.startSeq));
    _stats.reset();
    _invariants.reset();
    _observer = options.observer;
    _activeEngine = engine::activeFor(options.tap != nullptr);
    if (_activeEngine == engine::Kind::Compiled)
        _stream = engine::cachedStream(trace);
    else
        _stream.reset();
    if (_config.checkInvariants || invariantsForced()) {
        lint::InvariantChecker::Limits limits;
        limits.resultBuses = _config.resultBuses;
        limits.commitWidth = _config.commitWidth;
        _invariants = std::make_unique<lint::InvariantChecker>(name(),
                                                               limits);
    }
    RunResult result = runImpl(trace, options);
    // A wedged run was stopped mid-flight: its in-flight bookkeeping
    // (unfreed tags, unretired entries) is expected, not a bug — the
    // watchdog diagnostic is the report.
    if (_invariants && !result.wedged) {
        _invariants->onRunEnd(result.interrupted);
        if (!_invariants->ok())
            ruu_panic("%s: %zu microarchitectural invariant "
                      "violation(s):\n%s",
                      name(), _invariants->violations().size(),
                      _invariants->report().c_str());
    }
    return result;
}

void
Core::markWedged(RunResult &result, const Trace &trace, Cycle cycle,
                 const RunOptions &options, SeqNum decodeSeq,
                 const std::string &detail) const
{
    std::ostringstream os;
    os << "watchdog: core '" << name() << "' exceeded its cycle budget\n"
       << "  cycle " << cycle << " of " << options.maxCycles
       << " allowed; " << result.instructions << " of " << trace.size()
       << " instruction(s) committed\n";
    if (decodeSeq < trace.size()) {
        const TraceRecord &rec = trace.at(decodeSeq);
        os << "  next undecoded: seq " << decodeSeq << " pc " << rec.pc
           << "  " << disassemble(rec.inst) << "\n";
    } else {
        os << "  decode finished; the pipeline never drained\n";
    }
    if (!detail.empty())
        os << detail;
    result.wedged = true;
    result.diagnostic = os.str();
    result.cycles = cycle;
}

RunResult
Core::makeInitialResult(const Trace &trace,
                        const RunOptions &options) const
{
    RunResult result;
    if (options.initialState)
        result.state = *options.initialState;
    if (options.initialMemory) {
        result.memory = *options.initialMemory;
    } else if (trace.programPtr()) {
        for (const auto &init : trace.program().dataInits())
            result.memory.set(init.addr, init.value);
    }
    return result;
}

} // namespace ruu
