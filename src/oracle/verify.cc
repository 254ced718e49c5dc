#include "oracle/verify.hh"

#include "common/logging.hh"
#include "oracle/commit_oracle.hh"

namespace ruu::oracle
{

using detail::vformat;

namespace
{

VerifyCase
verifyOne(CoreKind kind, const Workload &workload,
          const lint::ResourceBound &bound, const VerifyOptions &options)
{
    VerifyCase vc;
    vc.workload = workload.name;
    vc.kind = kind;
    vc.bound = bound;

    // The delivery ceiling is handler-independent; verify reports it
    // with an empty handler program, like the sweep's own gate.
    static const Program kNoHandler;
    vc.wcirt = lint::cachedWcirtBound(workload.trace(), kNoHandler,
                                      options.config, kind);

    std::unique_ptr<Core> core = makeCore(kind, options.config);

    // Clean run under the lockstep commit oracle.
    RunOptions runOptions;
    CommitOracle oracle(workload.trace(), *core, runOptions);
    runOptions.observer = &oracle;
    RunResult run = core->run(workload.trace(), runOptions);

    vc.cycles = run.cycles;
    vc.instructions = run.instructions;
    vc.oracleOk = oracle.finish(run);
    if (!vc.oracleOk)
        vc.message = oracle.report();

    vc.matchesFunc = matchesFunctional(run, workload.func);
    if (!vc.matchesFunc && vc.message.empty())
        vc.message = "final state does not match the functional machine";

    vc.boundOk = run.cycles >= bound.cycles;
    vc.pctOfLimit = bound.pctOfLimit(run.cycles);
    vc.pctOfDataflowLimit = bound.dataflow.pctOfLimit(run.cycles);
    if (!vc.boundOk && vc.message.empty()) {
        vc.message = vformat("cycle count %llu beats the %s-bound "
                             "resource lower bound %llu — the bound or "
                             "the core is broken",
                             static_cast<unsigned long long>(run.cycles),
                             bound.bindingName().c_str(),
                             static_cast<unsigned long long>(
                                 bound.cycles));
    }

    bool sweepOk = true;
    if (options.sweep) {
        vc.sweepRan = true;
        SweepOptions sweepOptions = options.sweepOptions;
        sweepOptions.pool = options.pool;
        sweepOptions.coreFactory = [kind, &options] {
            return makeCore(kind, options.config);
        };
        vc.sweep = sweepInterrupts(*core, workload, sweepOptions);
        sweepOk = vc.sweep.ok();
        if (vc.sweep.points)
            vc.pctOfWcirt = vc.wcirt.pctOfCeiling(
                vc.sweep.maxDrainCycles + vc.wcirt.exchangeCycles);
        if (!sweepOk && vc.message.empty()) {
            vc.message = vformat("interrupt sweep: %zu of %zu points "
                                 "failed; first at seq %llu: %s",
                                 vc.sweep.failures, vc.sweep.points,
                                 static_cast<unsigned long long>(
                                     vc.sweep.firstFailureSeq),
                                 vc.sweep.firstFailure.c_str());
        }
    }

    vc.ok = vc.oracleOk && vc.matchesFunc && vc.boundOk && sweepOk;
    return vc;
}

} // namespace

std::vector<VerifyCase>
verifyWorkload(const Workload &workload, const VerifyOptions &options)
{
    const std::vector<CoreKind> &kinds =
        options.cores.empty() ? allCoreKinds() : options.cores;
    const lint::ResourceBound &bound =
        lint::cachedResourceBound(workload.trace(), options.config);

    std::vector<VerifyCase> cases;
    cases.reserve(kinds.size());
    for (CoreKind kind : kinds)
        cases.push_back(verifyOne(kind, workload, bound, options));
    return cases;
}

bool
allOk(const std::vector<VerifyCase> &cases)
{
    for (const VerifyCase &vc : cases) {
        if (!vc.ok)
            return false;
    }
    return true;
}

} // namespace ruu::oracle
