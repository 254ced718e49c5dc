#include "sim/job.hh"

#include <algorithm>

#include "common/flat_json.hh"
#include "common/logging.hh"
#include "engine/engine.hh"
#include "kernels/lll.hh"
#include "lint/dataflow_bound.hh"
#include "serve/cache.hh"
#include "sim/json.hh"
#include "trap/storm.hh"

namespace ruu
{

namespace
{

Expected<CoreKind>
resolveCore(const std::string &name)
{
    if (auto kind = coreKindFromName(name))
        return *kind;
    return Error("unknown core '" + name + "'");
}

/** An empty @p json is the default (cray1) configuration. */
Expected<UarchConfig>
resolveConfig(const std::string &json)
{
    if (json.empty())
        return UarchConfig::cray1();
    auto parsed = parseUarchConfig(json);
    if (!parsed)
        return Error("bad config: " + parsed.error().message());
    return parsed;
}

} // namespace

std::vector<std::string>
expandSuite(const std::string &argument)
{
    if (argument == "suite")
        return livermoreKernelNames();
    return {argument};
}

Expected<serve::JobSpec>
jobFor(const std::string &name, serve::JobSpec base,
       const SourceReader &readSource)
{
    base.id = name;
    const std::vector<std::string> kernels = livermoreKernelNames();
    if (std::find(kernels.begin(), kernels.end(), name) != kernels.end()) {
        base.workload = name;
        return base;
    }
    if (!readSource)
        return Error("unknown workload '" + name + "'");
    auto source = readSource(name);
    if (!source)
        return source.error();
    base.program = source.take();
    base.name = name;
    return base;
}

Expected<std::shared_ptr<const Workload>>
resolveWorkload(const serve::JobSpec &spec)
{
    if (!spec.workload.empty()) {
        const Workload *kernel = findLivermoreWorkload(spec.workload);
        if (!kernel)
            return Error("unknown workload '" + spec.workload + "'");
        // The cached kernel lives for the process: alias it, own nothing.
        return std::shared_ptr<const Workload>(
            std::shared_ptr<const Workload>(), kernel);
    }
    auto built = workloadFromSourceChecked(
        spec.program, spec.name.empty() ? spec.id : spec.name);
    if (!built)
        return built.error();
    Workload workload = built.take();
    if (!spec.name.empty())
        workload.name = spec.name;
    return std::make_shared<const Workload>(std::move(workload));
}

Expected<Program>
resolveProgram(const serve::JobSpec &spec)
{
    if (spec.workload.empty())
        return assembleChecked(spec.program,
                               spec.name.empty() ? spec.id : spec.name);
    const Kernel *kernel = findLivermoreKernel(spec.workload);
    if (!kernel)
        return Error("unknown workload '" + spec.workload + "'");
    return kernel->program;
}

Expected<ResolvedJob>
resolveJob(const serve::JobSpec &spec)
{
    auto core = resolveCore(spec.core);
    if (!core)
        return core.error();
    auto config = resolveConfig(spec.configJson);
    if (!config)
        return config.error();
    if (spec.ibuffers && spec.period)
        return Error("ibuffers applies to plain runs, not periodic jobs");
    auto workload = resolveWorkload(spec);
    if (!workload)
        return workload.error();
    ResolvedJob job{*core, workload.take(), config.take(), {}, spec.period};
    job.options.modelIBuffers = spec.ibuffers;
    return job;
}

std::uint64_t
jobKey(const ResolvedJob &job)
{
    const Trace &trace = job.workload->trace();
    serve::CacheKeyInputs inputs;
    inputs.displayName = job.workload->name;
    inputs.traceFingerprint = lint::boundTraceFingerprint(trace);
    inputs.traceLength = trace.size();
    inputs.configJson = configToJson(job.config);
    inputs.core = coreKindName(job.core);
    inputs.period = job.period;
    inputs.ibuffers = job.options.modelIBuffers;
    inputs.engineVersion = engine::kStreamFormatVersion;
    return serve::cacheKey(inputs);
}

JobResult
executeJob(const ResolvedJob &job)
{
    const Workload &workload = *job.workload;
    JobResult result;
    if (job.period) {
        result.payload = trap::stormRowToJson(trap::runStormCell(
            workload, job.core, job.config, {job.period},
            /*prune=*/true)[0]);
        return result;
    }
    result.core = makeCore(job.core, job.config);
    result.run = result.core->run(workload.trace(), job.options);
    if (!matchesFunctional(result.run, workload.func))
        ruu_fatal("'%s' committed the wrong state (simulator bug)",
                  workload.name.c_str());
    result.payload = runToJson(workload.name, result.core->name(),
                               result.run, result.core->stats());
    return result;
}

Expected<inject::CampaignOptions>
injectCampaignOptions(const serve::CampaignSpec &spec,
                      const SourceReader &readSource)
{
    inject::CampaignOptions options;
    for (const std::string &name : spec.cores) {
        auto kind = resolveCore(name);
        if (!kind)
            return kind.error();
        options.cores.push_back(*kind);
    }
    for (const std::string &name : spec.workloads) {
        auto job = jobFor(name, {}, readSource);
        if (!job)
            return job.error();
        auto workload = resolveWorkload(*job);
        if (!workload)
            return workload.error();
        options.workloads.push_back(**workload);
    }
    auto config = resolveConfig(spec.configJson);
    if (!config)
        return config.error();
    options.config = config.take();
    options.trials = spec.trials;
    options.seed = spec.seed;
    options.modelIBuffers = spec.ibuffers;
    return options;
}

std::uint64_t
injectUnitKey(const serve::CampaignSpec &spec, std::uint64_t trial)
{
    serve::CacheKeyInputs inputs;
    inputs.displayName = "inject:" + flat::joinCommas(spec.cores) + ":" +
                         flat::joinCommas(spec.workloads);
    inputs.traceFingerprint = spec.seed;
    inputs.traceLength = spec.trials;
    inputs.configJson = spec.configJson;
    inputs.core = "inject";
    inputs.period = trial;
    inputs.ibuffers = spec.ibuffers;
    inputs.engineVersion = engine::kStreamFormatVersion;
    return serve::cacheKey(inputs);
}

} // namespace ruu
