/**
 * @file
 * perfbench_driver — the benchmark's per-layer driver (README.md).
 *
 * Re-enacts one ruusim operation in-process, with a span around every
 * library call it makes, and prints the operation's output byte-equal
 * to that of the command it stands for:
 *
 *   perfbench_driver run <lllNN> <core>    ruusim run <lllNN> --core <core> --json
 *   perfbench_driver sweep <core>          ruusim sweep suite --core <core> -j1 --json
 *   perfbench_driver storm <lllNN> <core>  ruusim storm <lllNN> --core <core> -j1 --json
 *   perfbench_driver serve <cache-dir>     ruusimd's job path; one job per stdin
 *                                          line, "<id> <lllNN> <core> <period>",
 *                                          one payload line out each
 *
 * Options, before the operation: --spans FILE (the span log, written
 * when the process ends), --op ID (tags the spans), --parent ID and
 * --id-base N (place them in the caller's span tree).
 *
 * After an operation's output is printed, a few calls are timed again
 * on the same inputs ("probes") to split costs that the outer calls do
 * not expose: compileStream, an uncached resourceBound or wcirtBound,
 * Core::run with a CommitOracle attached, and an empty fork sandbox.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "engine/engine.hh"
#include "engine/stream.hh"
#include "inject/sandbox.hh"
#include "kernels/lll.hh"
#include "lint/dataflow_bound.hh"
#include "lint/resource_bound.hh"
#include "lint/wcirt.hh"
#include "oracle/commit_oracle.hh"
#include "par/pool.hh"
#include "serve/cache.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "trap/controller.hh"
#include "trap/handlers.hh"

using namespace ruu;

namespace
{

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
    std::exit(2);
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_minflt);
}

/** One timed interval around a library call or a group of them. */
struct Span
{
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::string op;
    std::vector<std::pair<std::string, double>> counts;
};

/**
 * In-memory span log. A span's parent is the innermost span open when
 * it began; spans of forked children come back as serialized text and
 * are kept verbatim.
 */
class Tracer
{
  public:
    void place(std::int64_t idBase, std::int64_t root)
    {
        _next = idBase;
        _root = root;
    }

    void setOp(std::string op) { _op = std::move(op); }

    std::size_t begin(const char *name)
    {
        Span span;
        span.name = name;
        span.id = _next++;
        span.parent = _open.empty() ? _root : _spans[_open.back()].id;
        span.op = _op;
        span.start = nowNs();
        _open.push_back(_spans.size());
        _spans.push_back(std::move(span));
        return _spans.size() - 1;
    }

    void end(std::size_t index)
    {
        _spans[index].end = nowNs();
        if (!_open.empty() && _open.back() == index)
            _open.pop_back();
    }

    void count(std::size_t index, const char *key, double value)
    {
        _spans[index].counts.emplace_back(key, value);
    }

    /** Set aside @p n ids for a forked child; returns the first. */
    std::int64_t reserve(std::int64_t n)
    {
        std::int64_t base = _next;
        _next += n;
        return base;
    }

    void restartAt(std::int64_t next) { _next = next; }

    std::size_t size() const { return _spans.size(); }

    /** Spans from index @p from on, as one JSON array on one line. */
    std::string serializeArray(std::size_t from) const
    {
        std::string out = "[";
        for (std::size_t i = from; i < _spans.size(); ++i) {
            if (i > from)
                out += ", ";
            out += toJson(_spans[i]);
        }
        return out + "]";
    }

    void adopt(const std::string &serialized)
    {
        if (!serialized.empty())
            _adopted.push_back(serialized);
    }

    void write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            die("cannot write '" + path + "'");
        for (const Span &span : _spans)
            out << toJson(span) << "\n";
        for (const std::string &text : _adopted)
            out << text << "\n";
    }

  private:
    static std::string toJson(const Span &span)
    {
        std::string out = detail::vformat(
            "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
            "\"op\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
            "\"counts\": {",
            span.name.c_str(), static_cast<long long>(span.id),
            static_cast<long long>(span.parent), span.op.c_str(),
            static_cast<long long>(span.start),
            static_cast<long long>(span.end));
        for (std::size_t i = 0; i < span.counts.size(); ++i) {
            out += detail::vformat("%s\"%s\": %.17g", i ? ", " : "",
                                   span.counts[i].first.c_str(),
                                   span.counts[i].second);
        }
        return out + "}}";
    }

    std::vector<Span> _spans;
    std::vector<std::size_t> _open;
    std::vector<std::string> _adopted;
    std::int64_t _next = 1;
    std::int64_t _root = 0;
    std::string _op;
};

Tracer gTracer;

/** A span for the lifetime of the object (or until close()). */
class Scope
{
  public:
    explicit Scope(const char *name) : _index(gTracer.begin(name)) {}
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void count(const char *key, double value)
    {
        gTracer.count(_index, key, value);
    }

    void close()
    {
        if (!_closed)
            gTracer.end(_index);
        _closed = true;
    }

  private:
    std::size_t _index;
    bool _closed = false;
};

/** Process-wide memo counters, read before an operation. */
struct MemoCounters
{
    engine::StreamCacheStats stream = engine::streamCacheStats();
    lint::BoundCacheStats bound = lint::resourceBoundCacheStats();
    lint::BoundCacheStats wcirt = lint::wcirtBoundCacheStats();

    /** Attach what the memos counted since construction to @p span. */
    void countDelta(Scope &span) const
    {
        auto stream2 = engine::streamCacheStats();
        auto bound2 = lint::resourceBoundCacheStats();
        auto wcirt2 = lint::wcirtBoundCacheStats();
        span.count("stream_lookups",
                   static_cast<double>(stream2.lookups - stream.lookups));
        span.count("stream_hits",
                   static_cast<double>(stream2.hits - stream.hits));
        span.count("bound_lookups",
                   static_cast<double>(bound2.lookups - bound.lookups));
        span.count("bound_hits",
                   static_cast<double>(bound2.hits - bound.hits));
        span.count("wcirt_lookups",
                   static_cast<double>(wcirt2.lookups - wcirt.lookups));
        span.count("wcirt_hits",
                   static_cast<double>(wcirt2.hits - wcirt.hits));
    }
};

CoreKind
coreFromName(const std::string &name)
{
    auto kind = coreKindFromName(name);
    if (!kind)
        die("unknown core '" + name + "'");
    return *kind;
}

/** The set-up every command pays: assemble and run all 14 kernels. */
const std::vector<Workload> &
buildWorkloads()
{
    {
        Scope span("kernels.build");
        span.count("kernels",
                   static_cast<double>(livermoreKernels().size()));
    }
    Scope span("arch.functional");
    std::uint64_t faults = minorFaults();
    const std::vector<Workload> &workloads = livermoreWorkloads();
    std::uint64_t records = 0;
    for (const Workload &workload : workloads)
        records += workload.trace().size();
    span.count("records", static_cast<double>(records));
    span.count("minflt", static_cast<double>(minorFaults() - faults));
    return workloads;
}

const Workload &
findWorkload(const std::vector<Workload> &workloads,
             const std::string &name)
{
    for (const Workload &workload : workloads)
        if (workload.name == name)
            return workload;
    die("unknown workload '" + name + "'");
}

/** makeCore + Core::run with no observer, under a core.run span. */
RunResult
runCore(std::unique_ptr<Core> &core, CoreKind kind,
        const UarchConfig &config, const Trace &trace)
{
    Scope span("core.run");
    std::uint64_t faults = minorFaults();
    core = makeCore(kind, config);
    RunResult run = core->run(trace);
    span.count("cycles", static_cast<double>(run.cycles));
    span.count("minflt", static_cast<double>(minorFaults() - faults));
    return run;
}

void
probeCompile(const Trace &trace)
{
    Scope span("engine.compile");
    engine::CompiledStream stream = engine::compileStream(trace);
    span.count("records", static_cast<double>(stream.size()));
}

/** The same run as runCore, with the lockstep commit oracle attached. */
void
probeOracle(CoreKind kind, const UarchConfig &config, const Trace &trace)
{
    Scope span("oracle.run");
    auto core = makeCore(kind, config);
    RunOptions options;
    oracle::CommitOracle oracle(trace, *core, options);
    options.observer = &oracle;
    RunResult run = core->run(trace, options);
    if (!oracle.finish(run))
        die("commit oracle diverged: " + oracle.report());
    span.count("commits", static_cast<double>(oracle.commits()));
    span.count("cycles", static_cast<double>(run.cycles));
}

// ---------------------------------------------------------------------
// Storm cells: `ruusim storm` and ruusimd's periodic jobs.
// ---------------------------------------------------------------------

/** The trap configuration cmdStorm and runPeriodicJob build. */
trap::TrapConfig
stormConfig(const Workload &workload)
{
    trap::TrapConfig tconfig;
    tconfig.checkOracle = true;
    Addr maxAddr = 0;
    for (const auto &record : workload.trace().records())
        maxAddr = std::max(maxAddr, record.memAddr);
    for (const auto &init : workload.program->dataInits())
        maxAddr = std::max(maxAddr, init.addr);
    if (maxAddr < 0xe000) {
        tconfig.layout.exchangeBase = 0xf000;
        tconfig.layout.scratchBase = 0xf800;
        tconfig.memoryWords = 1u << 16;
    }
    tconfig.handler =
        std::make_shared<const Program>(trap::counterHandler());
    return tconfig;
}

lint::WcirtParams
wcirtParams(const trap::TrapConfig &tconfig)
{
    lint::WcirtParams params;
    params.exchangeCycles = tconfig.exchangeCycles;
    params.maxLevels = tconfig.layout.maxLevels;
    return params;
}

struct PeriodOutcome
{
    trap::TrapRunResult res;
    bool good = true;
    std::string why;
};

/** TrapController::run at one period, then the functional replay. */
PeriodOutcome
runPeriod(Core &core, const Workload &workload,
          const trap::TrapConfig &tconfig, Cycle period)
{
    PeriodOutcome out;
    {
        Scope span("trap.run");
        engine::StreamCacheStats streams = engine::streamCacheStats();
        std::uint64_t faults = minorFaults();
        trap::TrapController controller(core, tconfig);
        out.res = controller.run(workload.trace(),
                                 trap::InterruptSource::periodic(period, 1));
        engine::StreamCacheStats after = engine::streamCacheStats();
        span.count("period", static_cast<double>(period));
        span.count("deliveries",
                   static_cast<double>(out.res.deliveries.size()));
        span.count("cycles", static_cast<double>(out.res.cycles));
        span.count("stream_lookups",
                   static_cast<double>(after.lookups - streams.lookups));
        span.count("streams_compiled",
                   static_cast<double>((after.lookups - streams.lookups) -
                                       (after.hits - streams.hits)));
        span.count("minflt", static_cast<double>(minorFaults() - faults));
    }
    out.good = out.res.ok();
    out.why = out.res.error;
    if (out.good && !out.res.oracleFailure.empty()) {
        out.good = false;
        out.why = out.res.oracleFailure;
    }
    if (out.good) {
        Scope span("trap.replay");
        auto replay = trap::replayFunctional(workload.program, tconfig,
                                             out.res.deliveries);
        span.count("instructions",
                   static_cast<double>(replay.instructions));
        if (!replay.ok) {
            out.good = false;
            out.why = replay.error;
        } else if (replay.state != out.res.state ||
                   replay.memory != out.res.memory ||
                   replay.trapRegs != out.res.trapRegs) {
            out.good = false;
            out.why = "timing run and functional replay disagree on the "
                      "final state";
        }
    }
    return out;
}

/** One `ruusim storm --json` line. */
std::string
stormLine(const Workload &workload, CoreKind kind, Cycle period,
          const trap::TrapRunResult &res, const RunResult &baseline,
          bool good, bool pruned)
{
    const double pctCeil =
        res.wcirtCeiling
            ? 100.0 * static_cast<double>(res.maxDeliveryLatency) /
                  static_cast<double>(res.wcirtCeiling)
            : 0.0;
    const double degrade =
        baseline.cycles
            ? 100.0 *
                  (static_cast<double>(res.cycles) -
                   static_cast<double>(baseline.cycles)) /
                  static_cast<double>(baseline.cycles)
            : 0.0;
    return detail::vformat(
        "{\"workload\": \"%s\", \"core\": \"%s\", "
        "\"k\": %llu, \"deliveries\": %zu, "
        "\"handler_mean_cycles\": %.2f, "
        "\"handler_max_cycles\": %llu, "
        "\"cycles\": %llu, \"baseline_cycles\": %llu, "
        "\"degradation_pct\": %.2f, \"wcirt\": %llu, "
        "\"max_delivery_latency\": %llu, "
        "\"pct_ceiling\": %.2f, \"ok\": %s, "
        "\"pruned\": %s}",
        workload.name.c_str(), coreKindName(kind),
        static_cast<unsigned long long>(period), res.deliveries.size(),
        res.meanHandlerCycles(),
        static_cast<unsigned long long>(res.maxHandlerCycles()),
        static_cast<unsigned long long>(res.cycles),
        static_cast<unsigned long long>(baseline.cycles), degrade,
        static_cast<unsigned long long>(res.wcirtCeiling),
        static_cast<unsigned long long>(res.maxDeliveryLatency), pctCeil,
        good ? "true" : "false", pruned ? "true" : "false");
}

/** `ruusim storm <kernel> --core <core> -j1 --json`. */
int
opStorm(const std::string &kernel, CoreKind kind)
{
    Scope op("op");
    MemoCounters memo;
    const Workload &workload = findWorkload(buildWorkloads(), kernel);
    const UarchConfig config = UarchConfig::cray1();
    trap::TrapConfig tconfig = stormConfig(workload);

    std::uint64_t segCeil = 0;
    std::uint64_t ceiling = 0;
    {
        Scope span("lint.wcirt");
        const lint::WcirtBound &bound =
            lint::cachedWcirtBound(workload.trace(), *tconfig.handler,
                                   config, kind, wcirtParams(tconfig));
        segCeil = bound.segmentCeiling();
        ceiling = bound.cycles;
    }
    std::unique_ptr<Core> core;
    RunResult baseline = runCore(core, kind, config, workload.trace());

    bool ok = true;
    std::string firstFailure;
    std::size_t pruned = 0;
    for (Cycle period : {16, 64, 256, 1024}) {
        PeriodOutcome out;
        const bool skip = period > segCeil;
        if (skip) {
            ++pruned;
            out.res.completed = true;
            out.res.cycles = baseline.cycles;
            out.res.instructions = baseline.instructions;
            out.res.wcirtCeiling = ceiling;
        } else {
            out = runPeriod(*core, workload, tconfig, period);
        }
        std::printf("%s\n", stormLine(workload, kind, period, out.res,
                                      baseline, out.good, skip)
                                .c_str());
        if (!out.good && ok) {
            ok = false;
            firstFailure = workload.name + " on " + coreKindName(kind) +
                           " (K=" + std::to_string(period) +
                           "): " + out.why;
        }
    }
    std::fflush(stdout);
    op.count("pruned_periods", static_cast<double>(pruned));
    memo.countDelta(op);

    probeCompile(workload.trace());
    probeOracle(kind, config, workload.trace());
    if (!ok) {
        std::fprintf(stderr, "storm FAILED: %s\n", firstFailure.c_str());
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------------
// `ruusim run` and `ruusim sweep`.
// ---------------------------------------------------------------------

/** `ruusim run <kernel> --core <core> --json`. */
int
opRun(const std::string &kernel, CoreKind kind)
{
    Scope op("op");
    MemoCounters memo;
    const Workload &workload = findWorkload(buildWorkloads(), kernel);
    std::unique_ptr<Core> core;
    RunResult run =
        runCore(core, kind, UarchConfig::cray1(), workload.trace());
    if (!matchesFunctional(run, workload.func))
        die("'" + workload.name + "' committed the wrong state");
    std::printf("%s\n", runToJson(workload.name, core->name(), run,
                                  core->stats())
                            .c_str());
    std::fflush(stdout);
    memo.countDelta(op);
    probeCompile(workload.trace());
    return 0;
}

/** `ruusim sweep suite --core <core> -j1 --json`. */
int
opSweep(CoreKind kind)
{
    Scope op("op");
    MemoCounters memo;
    const std::vector<Workload> &workloads = buildWorkloads();
    const UarchConfig config = UarchConfig::cray1();
    const std::vector<unsigned> sizes = {3, 5, 8, 12, 20, 30, 50};
    par::Pool pool(1);

    AggregateResult baseline;
    {
        Scope span("sim.baseline");
        baseline = runSuite(CoreKind::Simple, config, workloads, &pool);
        span.count("cycles", static_cast<double>(baseline.cycles));
    }
    std::vector<SweepPoint> points;
    {
        Scope span("sim.sweep");
        SweepOptions options;
        options.prune = true;
        points = sweepPoolSize(kind, config, sizes, workloads,
                               baseline.cycles, &pool, options);
        std::size_t simulated = 0, derived = 0;
        for (const SweepPoint &point : points) {
            simulated += point.simulated;
            derived += workloads.size() - point.simulated;
        }
        span.count("points_simulated", static_cast<double>(simulated));
        span.count("points_derived", static_cast<double>(derived));
    }
    for (const SweepPoint &point : points) {
        std::printf("{\"core\": \"%s\", \"entries\": %u, "
                    "\"cycles\": %llu, \"instructions\": %llu, "
                    "\"speedup\": %.6f, \"issue_rate\": %.6f, "
                    "\"simulated\": %zu, \"derived\": %s}\n",
                    coreKindName(kind), point.entries,
                    static_cast<unsigned long long>(point.total.cycles),
                    static_cast<unsigned long long>(
                        point.total.instructions),
                    point.speedup, point.total.issueRate(),
                    point.simulated, point.derived ? "true" : "false");
    }
    std::fflush(stdout);
    memo.countDelta(op);

    for (const Workload &workload : workloads) {
        Scope span("lint.resource_bound");
        lint::ResourceBound bound =
            lint::resourceBound(workload.trace(), config);
        span.count("cycles", static_cast<double>(bound.cycles));
    }
    for (const Workload &workload : workloads) {
        for (unsigned size : sizes) {
            UarchConfig point = config;
            point.poolEntries = size;
            std::unique_ptr<Core> core;
            runCore(core, kind, point, workload.trace());
        }
        probeCompile(workload.trace());
    }
    return 0;
}

// ---------------------------------------------------------------------
// ruusimd's job path.
// ---------------------------------------------------------------------

/** The sandboxed body of one fresh job: its result payload. */
std::string
computeJob(const Workload &workload, CoreKind kind,
           const UarchConfig &config, std::uint64_t period)
{
    std::unique_ptr<Core> core;
    RunResult baseline = runCore(core, kind, config, workload.trace());
    if (period == 0) {
        if (!matchesFunctional(baseline, workload.func))
            die("'" + workload.name + "' committed the wrong state");
        return runToJson(workload.name, core->name(), baseline,
                         core->stats());
    }
    trap::TrapConfig tconfig = stormConfig(workload);
    PeriodOutcome out = runPeriod(*core, workload, tconfig, period);
    return stormLine(workload, kind, period, out.res, baseline, out.good,
                     false);
}

/** Probes of a fresh job, inside its sandbox. */
void
probeJob(const Workload &workload, CoreKind kind,
         const UarchConfig &config, std::uint64_t period)
{
    probeCompile(workload.trace());
    if (period == 0)
        return;
    trap::TrapConfig tconfig = stormConfig(workload);
    {
        Scope span("lint.wcirt");
        lint::wcirtBound(workload.trace(), *tconfig.handler, config, kind,
                         wcirtParams(tconfig));
    }
    probeOracle(kind, config, workload.trace());
}

/** Answer job lines from stdin the way ruusimd's runJob does. */
int
opServe(const std::string &cacheDir)
{
    const std::vector<Workload> *workloads = nullptr;
    {
        Scope span("serve.startup");
        workloads = &buildWorkloads();
    }
    serve::ResultCache cache(cacheDir);
    const unsigned deadlineMs = 10'000;

    std::string line;
    while (std::getline(std::cin, line)) {
        std::istringstream fields(line);
        std::string id, kernel, coreName;
        std::uint64_t period = 0;
        if (!(fields >> id >> kernel >> coreName >> period))
            die("bad job line '" + line + "'");
        gTracer.setOp(id);
        Scope op("op");
        const Workload &workload = findWorkload(*workloads, kernel);
        const CoreKind kind = coreFromName(coreName);
        const UarchConfig config = UarchConfig::cray1();

        serve::CacheKeyInputs inputs;
        inputs.displayName = workload.name;
        inputs.traceFingerprint =
            lint::boundTraceFingerprint(workload.trace());
        inputs.traceLength = workload.trace().size();
        inputs.configJson = configToJson(config);
        inputs.core = coreKindName(kind);
        inputs.period = period;
        inputs.engineVersion = engine::kStreamFormatVersion;
        const std::uint64_t key = serve::cacheKey(inputs);

        std::optional<std::string> payload;
        {
            Scope span("serve.cache_load");
            payload = cache.load(key);
            span.count("hit", payload ? 1.0 : 0.0);
        }
        if (!payload) {
            const std::int64_t childIds = gTracer.reserve(1'000'000);
            inject::SandboxOutcome outcome;
            {
                Scope span("inject.sandbox");
                outcome = inject::runSandboxed(
                    [&](inject::SandboxChannel &channel) {
                        gTracer.restartAt(childIds);
                        const std::size_t from = gTracer.size();
                        std::string text;
                        {
                            Scope job("serve.job");
                            MemoCounters memo;
                            text = computeJob(workload, kind, config,
                                              period);
                            memo.countDelta(job);
                        }
                        probeJob(workload, kind, config, period);
                        // The child's spans ride back on the PRE line.
                        channel.send("PRE", gTracer.serializeArray(from));
                        channel.send("RES", text);
                    },
                    deadlineMs);
            }
            if (outcome.status !=
                inject::SandboxOutcome::Status::Reported) {
                std::printf("FAILED %s\n", outcome.stderrText.c_str());
                std::fflush(stdout);
                continue;
            }
            gTracer.adopt(outcome.preLine);
            payload = outcome.resLine;
            {
                Scope span("serve.cache_store");
                if (!cache.store(key, *payload))
                    die("cache store failed");
            }
            Scope span("inject.spawn");
            inject::runSandboxed(
                [](inject::SandboxChannel &channel) {
                    channel.send("RES", "{}");
                },
                deadlineMs);
        }
        std::printf("%s\n", payload->c_str());
        std::fflush(stdout);
    }
    return 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver [--spans FILE] [--op ID] "
                 "[--parent ID] [--id-base N]\n"
                 "         run <lllNN> <core> | sweep <core> | "
                 "storm <lllNN> <core> | serve <cache-dir>\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spansPath;
    std::string op = "op";
    std::int64_t parent = 0, idBase = 1;
    int i = 1;
    for (; i + 1 < argc && std::strncmp(argv[i], "--", 2) == 0; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--spans")
            spansPath = argv[i + 1];
        else if (flag == "--op")
            op = argv[i + 1];
        else if (flag == "--parent")
            parent = std::strtoll(argv[i + 1], nullptr, 10);
        else if (flag == "--id-base")
            idBase = std::strtoll(argv[i + 1], nullptr, 10);
        else
            usage();
    }
    std::vector<std::string> args(argv + i, argv + argc);
    if (args.empty())
        usage();
    gTracer.place(idBase, parent);
    gTracer.setOp(op);

    int status = 0;
    if (args[0] == "run" && args.size() == 3)
        status = opRun(args[1], coreFromName(args[2]));
    else if (args[0] == "sweep" && args.size() == 2)
        status = opSweep(coreFromName(args[1]));
    else if (args[0] == "storm" && args.size() == 3)
        status = opStorm(args[1], coreFromName(args[2]));
    else if (args[0] == "serve" && args.size() == 2)
        status = opServe(args[1]);
    else
        usage();

    if (!spansPath.empty())
        gTracer.write(spansPath);
    return status;
}
