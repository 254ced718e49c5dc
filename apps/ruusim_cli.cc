/**
 * @file
 * ruusim — the library's command-line front end; usage() lists the
 * subcommands and options. Workloads are either a textual-assembly
 * file or a built-in Livermore kernel name (lll01..lll14); "suite"
 * means all fourteen. Jobs resolve and run through sim/job.hh, the
 * same code ruusimd uses, so `run` and `submit` print the same bytes.
 *
 * Malformed input — unknown flags and names, unreadable files, broken
 * trace files, truncated JSON configs, programs that fault organically —
 * is diagnosed on stderr and exits with status 2. Status 1 is reserved
 * for verification failures on well-formed input.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "asm/parser.hh"
#include "common/error.hh"
#include "common/file.hh"
#include "common/flat_json.hh"
#include "common/logging.hh"
#include "engine/engine.hh"
#include "inject/campaign.hh"
#include "isa/disasm.hh"
#include "kernels/lll.hh"
#include "lint/analyze.hh"
#include "lint/bound_summary.hh"
#include "lint/resource_bound.hh"
#include "lint/wcirt.hh"
#include "oracle/verify.hh"
#include "par/pool.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/job.hh"
#include "sim/json.hh"
#include "stats/table.hh"
#include "trace/trace_io.hh"
#include "trap/storm.hh"

using namespace ruu;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  ruusim run <prog.s|lllNN> [options]\n"
        "  ruusim sweep <prog.s|lllNN|suite> [--core K] [--sizes "
        "a,b,c,...]\n"
        "         [--no-prune] [--json]\n"
        "  ruusim analyze <prog.s|lllNN|suite> [--json]\n"
        "  ruusim verify <prog.s|lllNN|suite> [--core K] [--sweep] "
        "[--points N]\n"
        "  ruusim storm <prog.s|lllNN|suite> [--core K] [--points N]\n"
        "  ruusim inject <prog.s|lllNN|suite> [--cores a,b,...] "
        "[--trials N]\n"
        "         [--seed S] [--journal FILE] [--timeout-ms N]\n"
        "         [--stop-after K] [--replay-trial N] [--bench-out "
        "FILE]\n"
        "  ruusim disasm <prog.s>\n"
        "  ruusim lint <prog.s|lllNN|suite> [--Werror]\n"
        "  ruusim trace <prog.s|lllNN> <out.trace>\n"
        "  ruusim trace <in.trace>\n"
        "  ruusim serve --socket PATH [--cache DIR] [--journal FILE]\n"
        "         [--queue FILE] [--queue-limit N] [--deadline-ms N]\n"
        "         [--max-connections N]\n"
        "  ruusim submit --socket PATH <prog.s|lllNN|suite> [--core K]\n"
        "         [--period N] [--deadline-ms N] [--status|--ping|"
        "--stop]\n"
        "  ruusim submit --socket PATH --campaign KIND <lllNN|suite>\n"
        "         [--cores a,b,...] [--periods a,b,...] [--trials N]\n"
        "         [--seed S] [--id NAME]\n"
        "  ruusim submit --socket PATH --watch ID | --cancel ID\n"
        "  ruusim list\n"
        "options:\n"
        "  --core K          simple|tomasulo|rstu|ruu|spec_ruu|history\n"
        "  --config FILE     load a JSON config (as emitted in --json "
        "runs);\n"
        "                    flags after --config override its fields\n"
        "  --entries N       pool/RUU/history entries (default 10)\n"
        "  --buses N         result buses (default 1)\n"
        "  --banks N         memory banks, 0 = ideal (default 0)\n"
        "  --load-regs N     load registers (default 6)\n"
        "  --counter-bits N  NI/LI width (default 3)\n"
        "  --bypass M        full|none|limited_a|future_file\n"
        "  --predictor P     always_taken|always_not_taken|btfn|"
        "smith_2bit\n"
        "  --sweep           verify: also sweep interrupts over every "
        "point\n"
        "  --points N        verify: interrupt points per core "
        "(0 = all; default 32)\n"
        "                    storm: arrival rates K = 16*4^i, i < N, "
        "capped at 10000\n"
        "                    (default 4: K in {16, 64, 256, 1024})\n"
        "  --cores LIST      inject: comma list of cores (default: all "
        "six)\n"
        "  --trials N        inject: campaign trial count (default "
        "1000)\n"
        "  --seed S          inject: campaign seed (default 1)\n"
        "  --timeout-ms N    inject: per-trial wall-clock watchdog "
        "(default 10000)\n"
        "  --stop-after K    inject: stop after K new trials (exit 3)\n"
        "  --replay-trial N  inject: re-run one trial and report it\n"
        "  --bench-out FILE  inject: write the campaign summary JSON\n"
        "  --socket PATH     serve/submit: Unix-domain socket path\n"
        "  --cache DIR       serve: content-addressed result cache\n"
        "  --journal FILE    inject: JSONL journal to stream/resume;\n"
        "                    serve: crash-recovery journal\n"
        "  --queue-limit N   serve: admission-queue bound (default "
        "256)\n"
        "  --deadline-ms N   serve: default per-job watchdog; submit: "
        "per-job\n"
        "                    deadline override\n"
        "  --max-connections N  serve: exit after N connections "
        "(0 = run on)\n"
        "  --queue FILE      serve: durable campaign-queue journal\n"
        "  --campaign KIND   submit: enqueue a run|storm|inject "
        "campaign and\n"
        "                    stream its results (kernels/suite only)\n"
        "  --id NAME         submit: campaign id (default "
        "KIND:<workload>)\n"
        "  --periods LIST    submit: storm-campaign arrival periods "
        "(default:\n"
        "                    K = 16*4^i as for storm --points)\n"
        "  --watch ID        submit: re-attach to a campaign's result "
        "stream\n"
        "  --cancel ID       submit: cancel a campaign's pending "
        "units\n"
        "  --period N        submit: periodic-interrupt arrival period "
        "(cycles)\n"
        "  --status          submit: print the daemon status line and "
        "exit\n"
        "  --ping            submit: probe the daemon and exit\n"
        "  --stop            submit: ask the daemon to shut down\n"
        "  --jobs N, -j N    worker threads for sweep/verify/storm/"
        "inject/serve\n"
        "                    (default: hardware threads, or RUU_JOBS; "
        "output is\n"
        "                    byte-identical at any job count)\n"
        "  --engine K        cycle engine: compiled (default) or "
        "interp, the\n"
        "                    reference oracle (or RUU_ENGINE; output "
        "is\n"
        "                    byte-identical under either engine)\n"
        "  --no-prune        sweep: simulate every (workload, size) "
        "point instead\n"
        "                    of deriving sizes past a certified-bound "
        "hit or plateau\n"
        "  --ibuffers        model the instruction buffers\n"
        "  --stats           dump all per-run statistics\n"
        "  --json            emit one JSON object per run\n"
        "  --Werror          lint: treat warnings as errors\n");
    std::exit(2);
}

/**
 * Diagnose bad input on stderr and exit with status 2 — the recoverable
 * counterpart of ruu_fatal (which is reserved for simulator bugs and
 * exits 1).
 */
#define cliFail(...)                                                  \
    do {                                                              \
        std::fprintf(stderr, "ruusim: error: %s\n",                   \
                     ::ruu::detail::vformat(__VA_ARGS__).c_str());    \
        std::exit(2);                                                 \
    } while (0)

/** @p result's value; exit 2 with its diagnostic when it is an error. */
template <typename T>
T
orFail(Expected<T> result)
{
    if (!result)
        cliFail("%s", result.error().message().c_str());
    return result.take();
}

/** @p name looked up with @p lookup; exit 2 when it names no @p what. */
template <typename T>
T
parseName(std::optional<T> (*lookup)(const std::string &),
          const char *what, const std::string &name)
{
    if (auto parsed = lookup(name))
        return *parsed;
    cliFail("unknown %s '%s'", what, name.c_str());
}

struct Cli
{
    CoreKind core = CoreKind::Ruu;
    bool coreSet = false;
    UarchConfig config = UarchConfig::cray1();
    bool ibuffers = false;
    bool stats = false;
    bool json = false;
    bool werror = false;
    bool interruptSweep = false;
    bool noPrune = false;
    std::size_t sweepPoints = 32;
    bool pointsSet = false;
    std::vector<unsigned> sizes = {3, 5, 8, 12, 20, 30, 50};
    std::vector<std::string> positional;

    // inject
    std::vector<std::string> cores; //!< --cores, each a known core
    std::uint64_t trials = 1000;
    std::uint64_t seed = 1;
    std::string journal;
    unsigned timeoutMs = 10'000;
    std::uint64_t stopAfter = 0;
    std::uint64_t replayTrial = 0;
    bool replaySet = false;
    std::string benchOut;

    // serve / submit
    std::string socketPath;
    std::string cacheDir;
    std::size_t queueLimit = 256;
    unsigned deadlineMs = 0;
    std::uint64_t maxConnections = 0;
    std::uint64_t period = 0;
    bool statusOnly = false;
    bool pingOnly = false;
    bool stopDaemon = false;

    // campaigns (serve-side queue)
    std::string queuePath;
    std::string campaignKind;
    std::string campaignId;
    std::string watchId;
    std::string cancelId;
    std::vector<std::uint64_t> periods;

    /** Worker threads for the parallel drivers (par::Pool). */
    unsigned jobs = par::defaultJobs();
};

Cli
parseArgs(int argc, char **argv)
{
    Cli cli;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        // Numbers read as strtoull reads them (junk is 0); a list must
        // name at least one, and every item must be a number.
        auto number = [&] {
            return std::strtoull(value().c_str(), nullptr, 10);
        };
        auto numbers = [&] {
            std::vector<std::uint64_t> list =
                orFail(flat::splitNumbers(value()));
            if (list.empty())
                usage();
            return list;
        };
        if (arg == "--core") {
            cli.core = parseName(coreKindFromName, "core", value());
            cli.coreSet = true;
        } else if (arg == "--sweep") {
            cli.interruptSweep = true;
        } else if (arg == "--no-prune") {
            cli.noPrune = true;
        } else if (arg == "--points") {
            cli.sweepPoints = number();
            cli.pointsSet = true;
        } else if (arg == "--config") {
            std::string path = value();
            Expected<UarchConfig> parsed =
                parseUarchConfig(orFail(readTextFile(path)));
            if (!parsed) {
                cliFail("%s: %s", path.c_str(),
                        parsed.error().message().c_str());
            }
            cli.config = parsed.take();
        } else if (arg == "--entries") {
            unsigned n = static_cast<unsigned>(number());
            cli.config.poolEntries = n;
            cli.config.historyEntries = n;
            cli.config.tuEntries = n;
        } else if (arg == "--buses") {
            cli.config.resultBuses = static_cast<unsigned>(number());
        } else if (arg == "--banks") {
            cli.config.memoryBanks = static_cast<unsigned>(number());
        } else if (arg == "--load-regs") {
            cli.config.loadRegisters = static_cast<unsigned>(number());
        } else if (arg == "--counter-bits") {
            cli.config.counterBits = static_cast<unsigned>(number());
        } else if (arg == "--bypass") {
            cli.config.bypass =
                parseName(bypassFromName, "bypass mode", value());
        } else if (arg == "--predictor") {
            cli.config.predictor =
                parseName(predictorFromName, "predictor", value());
        } else if (arg == "--cores") {
            for (const std::string &item : flat::splitCommas(value()))
                cli.cores.push_back(coreKindName(
                    parseName(coreKindFromName, "core", item)));
            if (cli.cores.empty())
                usage();
        } else if (arg == "--trials") {
            cli.trials = number();
        } else if (arg == "--seed") {
            cli.seed = number();
        } else if (arg == "--journal") {
            cli.journal = value();
        } else if (arg == "--timeout-ms") {
            cli.timeoutMs = static_cast<unsigned>(number());
        } else if (arg == "--stop-after") {
            cli.stopAfter = number();
        } else if (arg == "--replay-trial") {
            cli.replayTrial = number();
            cli.replaySet = true;
        } else if (arg == "--bench-out") {
            cli.benchOut = value();
        } else if (arg == "--socket") {
            cli.socketPath = value();
        } else if (arg == "--cache") {
            cli.cacheDir = value();
        } else if (arg == "--queue-limit") {
            cli.queueLimit = number();
        } else if (arg == "--deadline-ms") {
            cli.deadlineMs = static_cast<unsigned>(number());
        } else if (arg == "--max-connections") {
            cli.maxConnections = number();
        } else if (arg == "--period") {
            cli.period = number();
        } else if (arg == "--queue") {
            cli.queuePath = value();
        } else if (arg == "--campaign") {
            cli.campaignKind = value();
        } else if (arg == "--id") {
            cli.campaignId = value();
        } else if (arg == "--watch") {
            cli.watchId = value();
        } else if (arg == "--cancel") {
            cli.cancelId = value();
        } else if (arg == "--periods") {
            cli.periods = numbers();
        } else if (arg == "--status") {
            cli.statusOnly = true;
        } else if (arg == "--ping") {
            cli.pingOnly = true;
        } else if (arg == "--stop") {
            cli.stopDaemon = true;
        } else if (arg == "--ibuffers") {
            cli.ibuffers = true;
        } else if (arg == "--stats") {
            cli.stats = true;
        } else if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--Werror") {
            cli.werror = true;
        } else if (arg == "--sizes") {
            cli.sizes.clear();
            for (std::uint64_t size : numbers())
                cli.sizes.push_back(static_cast<unsigned>(size));
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            cli.positional.push_back(arg);
        }
    }
    return cli;
}

/** @p cli's configuration as a spec carries it: empty when default. */
std::string
specConfig(const Cli &cli)
{
    std::string json = configToJson(cli.config);
    return json == configToJson(UarchConfig::cray1()) ? "" : json;
}

/**
 * The jobs the workload argument names — the first of exactly
 * @p positionals — by sim/job.hh's suite, kernel and source rule
 * (program files are read here), each on top of @p cli's core,
 * configuration and instruction-buffer switch.
 */
std::vector<serve::JobSpec>
cliJobs(const Cli &cli, std::size_t positionals = 1)
{
    if (cli.positional.size() != positionals)
        usage();
    serve::JobSpec base;
    base.core = coreKindName(cli.core);
    base.configJson = specConfig(cli);
    base.ibuffers = cli.ibuffers;
    std::vector<serve::JobSpec> jobs;
    for (const std::string &name : expandSuite(cli.positional[0]))
        jobs.push_back(orFail(jobFor(name, base, readTextFile)));
    return jobs;
}

/** The workloads of cliJobs; exit 2 on any bad one. */
std::vector<Workload>
resolveWorkloads(const Cli &cli, std::size_t positionals = 1)
{
    std::vector<Workload> workloads;
    for (const serve::JobSpec &job : cliJobs(cli, positionals))
        workloads.push_back(*orFail(resolveWorkload(job)));
    return workloads;
}

/**
 * The campaign @p cli describes over its one workload argument, for
 * `ruusim inject` and `submit --campaign` alike. Its cores are
 * --cores, else --core; an inject campaign with neither runs on all
 * six, run and storm campaigns on --core's default.
 */
serve::CampaignSpec
cliCampaign(const Cli &cli, serve::CampaignKind kind)
{
    if (cli.positional.size() != 1)
        usage();
    serve::CampaignSpec spec;
    spec.kind = kind;
    spec.workloads = expandSuite(cli.positional[0]);
    spec.cores = cli.cores;
    if (kind == serve::CampaignKind::Inject) {
        spec.trials = cli.trials;
        spec.seed = cli.seed;
        if (spec.cores.empty() && !cli.coreSet)
            for (CoreKind core : allCoreKinds())
                spec.cores.push_back(coreKindName(core));
    }
    if (spec.cores.empty())
        spec.cores = {coreKindName(cli.core)};
    spec.configJson = specConfig(cli);
    spec.ibuffers = cli.ibuffers;
    spec.deadlineMs = cli.deadlineMs;
    return spec;
}

int
cmdRun(const Cli &cli)
{
    std::vector<serve::JobSpec> jobs = cliJobs(cli);
    std::uint64_t cycles = 0, instructions = 0;
    for (const serve::JobSpec &spec : jobs) {
        ResolvedJob resolved = orFail(resolveJob(spec));
        JobResult job = executeJob(resolved);
        const RunResult &run = job.run;
        if (cli.json) {
            std::printf("%s\n", job.payload.c_str());
        } else {
            std::printf("%-8s %8llu instructions %9llu cycles  issue "
                        "rate %.3f\n",
                        resolved.workload->name.c_str(),
                        static_cast<unsigned long long>(
                            run.instructions),
                        static_cast<unsigned long long>(run.cycles),
                        run.issueRate());
            if (cli.stats)
                std::printf("%s", job.core->stats().dump().c_str());
        }
        cycles += run.cycles;
        instructions += run.instructions;
    }
    if (jobs.size() > 1 && !cli.json)
        std::printf("total    %8llu instructions %9llu cycles  issue "
                    "rate %.3f\n",
                    static_cast<unsigned long long>(instructions),
                    static_cast<unsigned long long>(cycles),
                    static_cast<double>(instructions) /
                        static_cast<double>(cycles));
    return 0;
}

int
cmdSweep(const Cli &cli)
{
    auto workloads = resolveWorkloads(cli);
    par::Pool pool(cli.jobs);
    AggregateResult baseline = runSuite(
        CoreKind::Simple, UarchConfig::cray1(), workloads, &pool);
    // Bound-guided pruning is on by default at the command line; the
    // simulated points are byte-identical either way, --no-prune just
    // forces every (workload, size) cell to actually run.
    SweepOptions options;
    options.prune = !cli.noPrune;
    auto points = sweepPoolSize(cli.core, cli.config, cli.sizes,
                                workloads, baseline.cycles, &pool,
                                options);
    std::size_t simulated = 0, cells = 0;
    for (const auto &point : points) {
        simulated += point.simulated;
        cells += workloads.size();
    }
    if (cli.json) {
        for (const auto &point : points) {
            std::printf(
                "{\"core\": \"%s\", \"entries\": %u, "
                "\"cycles\": %llu, \"instructions\": %llu, "
                "\"speedup\": %.6f, \"issue_rate\": %.6f, "
                "\"simulated\": %zu, \"derived\": %s}\n",
                coreKindName(cli.core), point.entries,
                static_cast<unsigned long long>(point.total.cycles),
                static_cast<unsigned long long>(
                    point.total.instructions),
                point.speedup, point.total.issueRate(),
                point.simulated, point.derived ? "true" : "false");
        }
        return 0;
    }
    TextTable table({"Entries", "Cycles", "Speedup", "Issue Rate",
                     "Simulated"});
    table.setTitle(std::string("sweep of ") + coreKindName(cli.core) +
                   " (baseline: simple issue, " +
                   TextTable::fmt(baseline.cycles) + " cycles)");
    for (const auto &point : points) {
        table.addRow({TextTable::fmt(std::uint64_t{point.entries}),
                      TextTable::fmt(point.total.cycles),
                      TextTable::fmt(point.speedup),
                      TextTable::fmt(point.total.issueRate()),
                      TextTable::fmt(std::uint64_t{point.simulated}) +
                          "/" +
                          TextTable::fmt(
                              std::uint64_t{workloads.size()}) +
                          (point.derived ? " (derived)" : "")});
    }
    std::printf("%s", table.render().c_str());
    if (options.prune && simulated < cells) {
        std::printf("sweep: pruned %zu of %zu simulations past "
                    "certified-bound hits and plateaus (--no-prune "
                    "to disable)\n",
                    cells - simulated, cells);
    }
    return 0;
}

/**
 * Static resource-aware performance analysis (lint/resource_bound.hh):
 * no simulation, just the certified lower bound of each workload under
 * the active configuration, decomposed into its structural floors,
 * with the binding resource named and the (uncertified) queueing
 * estimate alongside.
 */
int
cmdAnalyze(const Cli &cli)
{
    auto workloads = resolveWorkloads(cli);

    TextTable table({"Workload", "Records", "Bound", "DepBound",
                     "Decode", "Schedule", "FU", "Bus", "Commit",
                     "Binding", "Estimate", "WCIRT", "%Ceiling"});
    table.setTitle(std::string("analyze: certified resource bound per "
                               "workload (cycles; estimate is M/M/m, "
                               "not certified; WCIRT: interrupt "
                               "delivery ceiling on ") +
                   coreKindName(cli.core) + ", % of segment ceiling)");
    table.setAlign(0, Align::Left);
    table.setAlign(9, Align::Left);

    for (const auto &workload : workloads) {
        const lint::ResourceBound &bound =
            lint::cachedResourceBound(workload.trace(), cli.config);
        // The dual ceiling (lint/wcirt.hh): worst-case interrupt
        // delivery on the selected scheme, handler-independent here.
        static const Program kNoHandler;
        const lint::WcirtBound &wcirt = lint::cachedWcirtBound(
            workload.trace(), kNoHandler, cli.config, cli.core);
        const std::uint64_t segCeil = wcirt.segmentCeiling();
        const double pctSeg =
            segCeil && segCeil != lint::kWcirtUnbounded
                ? 100.0 * static_cast<double>(wcirt.cycles) /
                      static_cast<double>(segCeil)
                : 0.0;
        std::uint64_t fuMax = 0;
        for (std::uint64_t floor : bound.breakdown.fuClass)
            fuMax = std::max(fuMax, floor);
        if (cli.json) {
            std::printf(
                "{\"workload\": \"%s\", \"records\": %zu, "
                "\"bound\": %llu, \"dependence_bound\": %llu, "
                "\"decode\": %llu, \"schedule\": %llu, "
                "\"fu_class_max\": %llu, \"result_bus\": %llu, "
                "\"commit\": %llu, \"binding\": \"%s\", "
                "\"estimate_cycles\": %.2f, "
                "\"estimate_occupancy\": %.4f, "
                "\"wcirt_core\": \"%s\", \"wcirt\": %llu, "
                "\"wcirt_cut\": %llu, \"wcirt_segment\": %llu, "
                "\"wcirt_pct_of_segment\": %.2f}\n",
                flat::escape(workload.name).c_str(),
                workload.trace().records().size(),
                static_cast<unsigned long long>(bound.cycles),
                static_cast<unsigned long long>(bound.dataflow.cycles),
                static_cast<unsigned long long>(bound.breakdown.decode),
                static_cast<unsigned long long>(
                    bound.breakdown.schedule),
                static_cast<unsigned long long>(fuMax),
                static_cast<unsigned long long>(
                    bound.breakdown.resultBus),
                static_cast<unsigned long long>(bound.breakdown.commit),
                bound.bindingName().c_str(), bound.estimateCycles,
                bound.estimateOccupancy, coreKindName(cli.core),
                static_cast<unsigned long long>(wcirt.cycles),
                static_cast<unsigned long long>(wcirt.breakdown.cut),
                static_cast<unsigned long long>(segCeil), pctSeg);
        } else {
            table.addRow(
                {workload.name,
                 TextTable::fmt(
                     std::uint64_t{workload.trace().records().size()}),
                 TextTable::fmt(bound.cycles),
                 TextTable::fmt(bound.dataflow.cycles),
                 TextTable::fmt(bound.breakdown.decode),
                 TextTable::fmt(bound.breakdown.schedule),
                 TextTable::fmt(fuMax),
                 TextTable::fmt(bound.breakdown.resultBus),
                 TextTable::fmt(bound.breakdown.commit),
                 bound.bindingName(),
                 TextTable::fmt(bound.estimateCycles, 1),
                 TextTable::fmt(wcirt.cycles),
                 TextTable::fmt(pctSeg, 1)});
        }
    }
    if (!cli.json) {
        std::printf("%s", table.render().c_str());
        std::printf("%s\n",
                    lint::formatBoundSummary(
                        lint::summarizeBounds(workloads, cli.config))
                        .c_str());
    }
    return 0;
}

/**
 * Run every workload through the full verification stack — lockstep
 * commit oracle, certified resource lower bound, optionally the
 * interrupt sweep — on every core (or the one named by --core).
 * Exit 1 on any failure.
 */
int
cmdVerify(const Cli &cli)
{
    auto workloads = resolveWorkloads(cli);

    par::Pool pool(cli.jobs);
    oracle::VerifyOptions options;
    options.config = cli.config;
    options.pool = &pool;
    if (cli.coreSet)
        options.cores = {cli.core};
    options.sweep = cli.interruptSweep;
    options.sweepOptions.maxPoints = cli.sweepPoints;

    std::vector<std::string> headers = {"Workload", "Core",   "Cycles",
                                        "Bound",    "%Limit", "Binding",
                                        "WCIRT",    "Oracle"};
    if (cli.interruptSweep) {
        headers.push_back("Sweep");
        headers.push_back("Precise");
        headers.push_back("%Ceil");
    }
    TextTable table(std::move(headers));
    table.setTitle(cli.interruptSweep
                       ? "verify: commit oracle + resource bound + "
                         "WCIRT ceiling + interrupt sweep"
                       : "verify: commit oracle + resource bound + "
                         "WCIRT ceiling");
    table.setAlign(0, Align::Left);
    table.setAlign(1, Align::Left);
    table.setAlign(5, Align::Left);

    bool ok = true;
    std::string firstFailure;
    for (const auto &workload : workloads) {
        auto cases = oracle::verifyWorkload(workload, options);
        for (const auto &vc : cases) {
            std::vector<std::string> row = {
                vc.workload,
                coreKindName(vc.kind),
                TextTable::fmt(vc.cycles),
                TextTable::fmt(vc.bound.cycles),
                TextTable::fmt(vc.pctOfLimit, 1),
                vc.bound.bindingName(),
                TextTable::fmt(vc.wcirt.cycles),
                vc.oracleOk && vc.matchesFunc && vc.boundOk ? "ok"
                                                            : "FAIL",
            };
            if (cli.interruptSweep) {
                row.push_back(
                    vc.sweep.ok()
                        ? TextTable::fmt(
                              std::uint64_t{vc.sweep.points}) + " pts"
                        : "FAIL");
                row.push_back(
                    TextTable::fmt(100.0 * vc.sweep.preciseFraction(),
                                   0) + "%");
                row.push_back(TextTable::fmt(vc.pctOfWcirt, 1));
            }
            table.addRow(std::move(row));
            if (!vc.ok) {
                ok = false;
                if (firstFailure.empty())
                    firstFailure = vc.workload + " on " +
                                   coreKindName(vc.kind) + ": " +
                                   vc.message;
            }
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("%s\n",
                lint::formatBoundSummary(
                    lint::summarizeBounds(workloads, cli.config))
                    .c_str());
    if (!ok)
        std::fprintf(stderr, "verify FAILED: %s\n",
                     firstFailure.c_str());
    else
        std::printf("verify: all checks passed\n");
    return ok ? 0 : 1;
}

int
cmdDisasm(const Cli &cli)
{
    if (cli.positional.size() != 1)
        usage();
    AsmResult assembled =
        assemble(orFail(readTextFile(cli.positional[0])), cli.positional[0]);
    if (!assembled.ok()) {
        // Malformed input, not a verification failure.
        for (const auto &error : assembled.errors)
            std::fprintf(stderr, "%s\n", error.toString().c_str());
        return 2;
    }
    std::printf("%s", assembled.program->listing().c_str());
    return 0;
}

/**
 * Statically verify workloads without simulating them: kernel names
 * resolve straight to the built-in Program; assembly files are only
 * assembled, never traced.
 */
int
cmdLint(const Cli &cli)
{
    std::vector<std::pair<std::string, Program>> targets;
    for (const serve::JobSpec &job : cliJobs(cli)) {
        // A program that fails to assemble is malformed input, not a
        // lint finding.
        targets.emplace_back(job.id, orFail(resolveProgram(job)));
    }

    unsigned errors = 0, warnings = 0;
    for (const auto &[subject, program] : targets) {
        auto diags = lint::analyze(program);
        std::printf("%s",
                    lint::formatDiagnostics(subject, diags).c_str());
        for (const auto &diag : diags) {
            if (diag.severity == lint::Severity::Error)
                ++errors;
            else
                ++warnings;
        }
    }
    std::printf("%zu program(s): %u error(s), %u warning(s)\n",
                targets.size(), errors, warnings);
    return errors || (cli.werror && warnings) ? 1 : 0;
}

/**
 * Two positionals: dump a workload's trace to a file. One positional:
 * load and validate a previously dumped trace, diagnosing malformed
 * files instead of silently rejecting them.
 */
int
cmdTrace(const Cli &cli)
{
    if (cli.positional.size() == 1) {
        const Trace trace = orFail(loadTraceFileChecked(cli.positional[0]));
        std::size_t faults = 0;
        for (const auto &record : trace.records())
            if (record.fault != Fault::None)
                ++faults;
        std::printf("%s: valid trace, %zu records, %zu fault "
                    "annotation(s)\n",
                    cli.positional[0].c_str(), trace.size(), faults);
        return 0;
    }
    auto workloads = resolveWorkloads(cli, 2);
    if (!saveTraceFile(workloads[0].trace(), cli.positional[1]))
        cliFail("cannot write '%s'", cli.positional[1].c_str());
    std::printf("wrote %zu records to %s\n", workloads[0].trace().size(),
                cli.positional[1].c_str());
    return 0;
}

/**
 * Interrupt-storm sweep: run every workload on every core (or the one
 * named by --core) under periodic external interrupts with arrival
 * periods K = 16*4^i (i < --points, capped at 10000 cycles), servicing
 * each delivery with the stock counter handler. Every run is checked
 * two ways — the per-segment lockstep commit oracle, and a bit-exact
 * functional replay of the full delivery log — and reported with its
 * handler-latency and throughput-degradation numbers. Exit 1 when any
 * check fails.
 */
int
cmdStorm(const Cli &cli)
{
    auto workloads = resolveWorkloads(cli);

    std::vector<CoreKind> kinds = allCoreKinds();
    if (cli.coreSet)
        kinds = {cli.core};

    std::size_t points = cli.pointsSet ? cli.sweepPoints : 4;
    if (points == 0)
        usage();
    const std::vector<Cycle> periods = trap::stormPeriods(points);

    TextTable table({"Workload", "Core", "K", "Deliveries", "Hdl mean",
                     "Hdl max", "Cycles", "Degrade%", "WCIRT", "%Ceil",
                     "Check"});
    table.setTitle("interrupt storm: periodic external interrupts, "
                   "counter handler, oracle + replay + WCIRT checked");
    table.setAlign(0, Align::Left);
    table.setAlign(1, Align::Left);

    // One cell per (workload, core), run concurrently on the pool; the
    // reduction folds them in (workload, core) order, so the report is
    // byte-identical to the serial nested loop.
    par::Pool pool(cli.jobs);
    bool ok = true;
    std::string firstFailure;
    std::size_t prunedRuns = 0;
    par::mapReduce<std::vector<trap::StormRow>>(
        &pool, workloads.size() * kinds.size(), 0,
        [&](std::size_t cell, unsigned) {
            return trap::runStormCell(workloads[cell / kinds.size()],
                                      kinds[cell % kinds.size()],
                                      cli.config, periods, !cli.noPrune);
        },
        [&](int &, std::vector<trap::StormRow> &rows, std::size_t) {
            for (const trap::StormRow &row : rows) {
                if (cli.json) {
                    std::printf("%s\n", trap::stormRowToJson(row).c_str());
                } else {
                    table.addRow(
                        {row.workload, coreKindName(row.core),
                         TextTable::fmt(row.period),
                         TextTable::fmt(std::uint64_t{row.deliveries}),
                         TextTable::fmt(row.handlerMeanCycles, 1),
                         TextTable::fmt(row.handlerMaxCycles),
                         TextTable::fmt(row.cycles),
                         TextTable::fmt(row.degradationPct, 1),
                         TextTable::fmt(row.wcirt),
                         TextTable::fmt(row.pctCeiling, 1),
                         row.ok ? "ok" : "FAIL"});
                }
                prunedRuns += row.pruned;
                if (!row.ok && ok) {
                    ok = false;
                    firstFailure = row.workload + " on " +
                                   coreKindName(row.core) + " (K=" +
                                   std::to_string(row.period) +
                                   "): " + row.error;
                }
            }
        });
    if (!cli.json)
        std::printf("%s", table.render().c_str());
    if (!ok)
        std::fprintf(stderr, "storm FAILED: %s\n", firstFailure.c_str());
    else if (!cli.json) {
        std::printf("storm: all runs serviced, oracle-checked, and "
                    "replayed bit-exactly\n");
        if (prunedRuns) {
            std::printf("storm: derived %zu run(s) past the certified "
                        "segment ceiling (--no-prune to simulate "
                        "them)\n",
                        prunedRuns);
        }
    }
    return ok ? 0 : 1;
}

/** One trial in human-readable form. */
void
printTrial(const inject::TrialResult &trial)
{
    std::printf("trial %llu: %s/%s cycle %llu bit %llu\n"
                "  port:    %s\n"
                "  flip:    0x%llx -> 0x%llx\n"
                "  outcome: %s (%llu cycles, %llu retries)\n",
                static_cast<unsigned long long>(trial.point.index),
                trial.point.core.c_str(), trial.point.workload.c_str(),
                static_cast<unsigned long long>(trial.point.cycle),
                static_cast<unsigned long long>(trial.point.bit),
                trial.port.c_str(),
                static_cast<unsigned long long>(trial.before),
                static_cast<unsigned long long>(trial.after),
                inject::outcomeName(trial.outcome),
                static_cast<unsigned long long>(trial.cycles),
                static_cast<unsigned long long>(trial.retries));
    if (!trial.detail.empty())
        std::printf("  detail:  %s\n", trial.detail.c_str());
}

/**
 * Soft-error fault-injection campaign (docs/FAULTS.md). Samples
 * (core, workload, cycle, bit) points from --seed, runs each in a
 * crash-contained sandbox, classifies it against the detector stack,
 * and streams results to --journal for resumability. Exit 0 when the
 * campaign completes fully classified, 1 when any trial ends
 * unclassified, 2 on malformed input (including a corrupt or
 * mismatched journal), 3 when --stop-after cut the campaign short.
 */
int
cmdInject(const Cli &cli)
{
    inject::CampaignOptions options = orFail(injectCampaignOptions(
        cliCampaign(cli, serve::CampaignKind::Inject), readTextFile));
    options.timeoutMs = cli.timeoutMs;
    options.journalPath = cli.journal;
    options.stopAfter = cli.stopAfter;
    options.jobs = cli.jobs;

    if (cli.replaySet) {
        inject::TrialResult trial =
            orFail(inject::replayTrial(options, cli.replayTrial));
        if (cli.json)
            std::printf("%s\n", inject::trialToLine(trial).c_str());
        else
            printTrial(trial);
        return trial.outcome == inject::Outcome::Unclassified ? 1 : 0;
    }

    if (!cli.json) {
        std::uint64_t step = std::max<std::uint64_t>(1,
                                                     cli.trials / 20);
        options.progress = [step](std::uint64_t done,
                                  std::uint64_t total,
                                  const inject::TrialResult &last) {
            if (done % step == 0 || done == total)
                std::fprintf(stderr,
                             "inject: %llu/%llu trials (last: %s)\n",
                             static_cast<unsigned long long>(done),
                             static_cast<unsigned long long>(total),
                             inject::outcomeName(last.outcome));
        };
    }

    inject::CampaignSummary summary = orFail(inject::runCampaign(options));

    const std::vector<inject::Outcome> kOutcomes = {
        inject::Outcome::Masked,
        inject::Outcome::DetectedInvariant,
        inject::Outcome::DetectedOracle,
        inject::Outcome::Trapped,
        inject::Outcome::Hung,
        inject::Outcome::Sdc,
        inject::Outcome::Unclassified,
    };

    // Per-core outcome tallies (the AVF-style vulnerability view).
    std::map<std::string, std::map<inject::Outcome, std::uint64_t>>
        byCore;
    for (const auto &trial : summary.trials)
        ++byCore[trial.point.core][trial.outcome];
    auto total = inject::tallyOutcomes(summary.trials);
    std::uint64_t unclassified = total[inject::Outcome::Unclassified];

    // The summary's leading fields; --json adds the tallies.
    std::ostringstream os;
    os << "{\"seed\": " << options.seed
       << ", \"trials\": " << options.trials
       << ", \"completed\": " << summary.trials.size();
    if (cli.json) {
        auto tallyJson = [&](std::map<inject::Outcome, std::uint64_t> &tally) {
            os << "{";
            for (inject::Outcome o : kOutcomes)
                os << (o == kOutcomes[0] ? "\"" : ", \"")
                   << inject::outcomeName(o) << "\": " << tally[o];
            os << "}";
        };
        os << ", \"resumed\": " << summary.resumed
           << ", \"executed\": " << summary.executed
           << ", \"stopped_early\": "
           << (summary.stoppedEarly ? "true" : "false")
           << ", \"wall_seconds\": " << summary.wallSeconds
           << ", \"trials_per_sec\": " << summary.trialsPerSecond()
           << ", \"outcomes\": ";
        tallyJson(total);
        os << ", \"by_core\": {";
        for (auto &[core, tally] : byCore) {
            os << (core == byCore.begin()->first ? "\"" : ", \"") << core
               << "\": ";
            tallyJson(tally);
        }
        os << "}}";
        std::printf("%s\n", os.str().c_str());
    } else {
        TextTable table({"Core", "Trials", "Masked", "Det-inv",
                         "Det-orc", "Trapped", "Hung", "SDC",
                         "Unclass", "Unmasked%"});
        table.setTitle("fault-injection campaign: seed " +
                       std::to_string(options.seed) + ", " +
                       std::to_string(summary.trials.size()) + "/" +
                       std::to_string(options.trials) + " trials");
        table.setAlign(0, Align::Left);
        for (auto &[core, tally] : byCore) {
            std::uint64_t n = 0;
            for (auto &[o, count] : tally)
                n += count;
            double unmasked =
                n ? 100.0 *
                        static_cast<double>(
                            n - tally[inject::Outcome::Masked]) /
                        static_cast<double>(n)
                  : 0.0;
            table.addRow(
                {core, TextTable::fmt(n),
                 TextTable::fmt(tally[inject::Outcome::Masked]),
                 TextTable::fmt(
                     tally[inject::Outcome::DetectedInvariant]),
                 TextTable::fmt(tally[inject::Outcome::DetectedOracle]),
                 TextTable::fmt(tally[inject::Outcome::Trapped]),
                 TextTable::fmt(tally[inject::Outcome::Hung]),
                 TextTable::fmt(tally[inject::Outcome::Sdc]),
                 TextTable::fmt(tally[inject::Outcome::Unclassified]),
                 TextTable::fmt(unmasked, 1)});
        }
        std::printf("%s", table.render().c_str());
        std::printf("inject: %llu trials in %.1fs (%.1f trials/sec), "
                    "%llu resumed from journal\n",
                    static_cast<unsigned long long>(summary.executed),
                    summary.wallSeconds, summary.trialsPerSecond(),
                    static_cast<unsigned long long>(summary.resumed));
        os << ", \"wall_seconds\": " << summary.wallSeconds
           << ", \"trials_per_sec\": " << summary.trialsPerSecond()
           << "}";
    }
    if (!cli.benchOut.empty()) {
        std::ofstream out(cli.benchOut);
        if (!out)
            cliFail("cannot write '%s'", cli.benchOut.c_str());
        out << os.str() << "\n";
    }

    if (unclassified) {
        std::fprintf(stderr,
                     "inject: %llu trial(s) ended unclassified\n",
                     static_cast<unsigned long long>(unclassified));
        return 1;
    }
    if (summary.stoppedEarly)
        return 3;
    return 0;
}

/**
 * ruusimd: serve simulation batches on a Unix-domain socket
 * (docs/SERVE.md). Runs until `ruusim submit --stop`, the connection
 * cap, or a fatal environment error (exit 2 — bad socket path,
 * mismatched recovery journal). Job failures never end the daemon.
 */
int
cmdServe(const Cli &cli)
{
    if (cli.socketPath.empty() || !cli.positional.empty())
        usage();
    serve::ServerOptions options;
    options.socketPath = cli.socketPath;
    options.cacheDir = cli.cacheDir;
    options.journalPath = cli.journal;
    options.jobs = cli.jobs;
    options.queueLimit = cli.queueLimit;
    if (cli.deadlineMs)
        options.defaultDeadlineMs = cli.deadlineMs;
    options.seed = cli.seed;
    options.maxConnections = cli.maxConnections;
    options.queuePath = cli.queuePath;
    options.handleSignals = true; // SIGTERM/SIGINT drain, exit 0

    std::fprintf(stderr, "ruusim: serving on %s (%u worker%s%s%s%s)\n",
                 cli.socketPath.c_str(), cli.jobs,
                 cli.jobs == 1 ? "" : "s",
                 cli.cacheDir.empty() ? "" : ", cached",
                 cli.journal.empty() ? "" : ", journaled",
                 cli.queuePath.empty() ? "" : ", queued");
    serve::ServerStats stats;
    int status = orFail(serve::runServer(options, &stats));
    std::fprintf(stderr,
                 "ruusim: served %llu connection(s), %llu job(s) done, "
                 "%llu recovered\n",
                 static_cast<unsigned long long>(stats.connections),
                 static_cast<unsigned long long>(stats.jobsDone),
                 static_cast<unsigned long long>(stats.recovered));
    return status;
}

/** Send @p line and parse the one-line answer; exit 2 on trouble. */
std::pair<std::string, flat::Object>
ask(serve::ServeClient &client, const std::string &line)
{
    std::string reply = orFail(client.request(line));
    auto object = flat::parseObject(reply);
    if (!object)
        cliFail("unparseable response: %s", reply.c_str());
    return {reply, object.take()};
}

/**
 * Send @p request and stream the result lines it answers with, in
 * order: payloads to stdout (byte-identical to the equivalent cold
 * run), failures to stderr. Returns 0 when every result is done, 1
 * otherwise — including an error verdict in place of the summary
 * (unknown campaign, daemon draining, a failed batch commit).
 */
int
streamResults(serve::ServeClient &client, const serve::Request &request)
{
    orFail(client.sendLine(serve::requestToLine(request)));
    bool anyFailed = false;
    while (true) {
        std::string line = orFail(client.recvLine());
        auto object = flat::parseObject(line);
        if (!object)
            cliFail("unparseable response: %s", line.c_str());
        auto op = flat::optString(*object, "op");
        auto why = flat::optString(*object, "error");
        if (op != "result" && op != "unit") {
            if (flat::optNumber(*object, "ok") == 1u)
                break; // the summary: every result line has arrived
            std::fprintf(stderr, "ruusim: %s: %s\n",
                         serve::opName(request.op),
                         why ? why->c_str() : line.c_str());
            return 1;
        }
        auto status = flat::optString(*object, "status");
        if (status == "done") {
            std::printf("%s\n",
                        flat::optString(*object, "payload")
                            .value_or("")
                            .c_str());
            continue;
        }
        std::string id = flat::optString(*object, "id").value_or("?");
        std::string what =
            op == "unit" ? "campaign '" + id + "' unit " +
                               std::to_string(flat::optNumber(*object,
                                                              "unit")
                                                  .value_or(0))
                         : "submit: job '" + id + "'";
        std::fprintf(stderr, "ruusim: %s %s: %s\n", what.c_str(),
                     status ? status->c_str() : "?",
                     why ? why->c_str() : "");
        anyFailed = true;
    }
    return anyFailed ? 1 : 0;
}

/** @p request's ack, or its refusal on stderr; true when acked. */
bool
acked(serve::ServeClient &client, const serve::Request &request,
      const std::string &what)
{
    auto [reply, object] = ask(client, serve::requestToLine(request));
    if (flat::optNumber(object, "ok") == 1u)
        return true;
    auto why = flat::optString(object, "error");
    std::fprintf(stderr, "ruusim: %s refused: %s\n", what.c_str(),
                 why ? why->c_str() : reply.c_str());
    return false;
}

/**
 * Enqueue a durable server-side campaign, then stream its results.
 * Campaigns name built-in kernels only: the daemon re-expands and
 * re-runs units across restarts, so the workload must resolve by name
 * alone — no program text travels.
 */
int
submitCampaign(serve::ServeClient &client, const Cli &cli)
{
    auto kind = serve::campaignKindFromName(cli.campaignKind);
    if (!kind)
        cliFail("unknown campaign kind '%s' (run|storm|inject)",
                cli.campaignKind.c_str());
    serve::Request request;
    request.op = serve::Op::Campaign;
    serve::CampaignSpec &spec = request.campaign;
    spec = cliCampaign(cli, *kind);
    for (const std::string &workload : spec.workloads)
        if (!jobFor(workload, {}, nullptr))
            cliFail("campaigns run built-in kernels only; '%s' is not "
                    "one (see 'ruusim list')",
                    workload.c_str());

    if (spec.kind == serve::CampaignKind::Storm) {
        if (cli.ibuffers)
            cliFail("--ibuffers applies to run and inject campaigns only");
        spec.periods = cli.periods;
        if (spec.periods.empty()) {
            // The periods `ruusim storm --points` runs.
            std::size_t points = cli.pointsSet ? cli.sweepPoints : 4;
            if (points == 0)
                usage();
            spec.periods = trap::stormPeriods(points);
        }
    } else if (!cli.periods.empty()) {
        cliFail("--periods applies to storm campaigns only");
    }
    spec.id = cli.campaignId.empty()
                  ? std::string(serve::campaignKindName(spec.kind)) +
                        ":" + cli.positional[0]
                  : cli.campaignId;

    if (!acked(client, request, "campaign '" + spec.id + "'"))
        return 1;
    serve::Request watch;
    watch.op = serve::Op::Watch;
    watch.target = spec.id;
    return streamResults(client, watch);
}

/**
 * Submit a batch to a running ruusimd and print each result payload —
 * byte-identical to `ruusim run <workload> --json` output. Exit 0 when
 * every job is done, 1 when any job fails (including shed submits),
 * 2 on malformed input or connection trouble. With --campaign /
 * --watch / --cancel, drive the durable campaign queue instead.
 */
int
cmdSubmit(const Cli &cli)
{
    if (cli.socketPath.empty())
        usage();

    serve::ServeClient client;
    BackoffPolicy retry;
    retry.baseUs = 10'000;
    retry.capUs = 500'000;
    retry.maxRetries = 10;
    retry.seed = cli.seed;
    orFail(client.connect(cli.socketPath, retry));

    serve::Request request;
    request.target = cli.watchId.empty() ? cli.cancelId : cli.watchId;
    if (cli.pingOnly || cli.statusOnly || cli.stopDaemon ||
        !cli.cancelId.empty()) {
        // One request, one printed answer.
        request.op = cli.pingOnly     ? serve::Op::Ping
                     : cli.statusOnly ? serve::Op::Status
                     : cli.stopDaemon ? serve::Op::Shutdown
                                      : serve::Op::Cancel;
        auto [reply, object] = ask(client, serve::requestToLine(request));
        std::printf("%s\n", reply.c_str());
        return flat::optNumber(object, "ok") == 1u ? 0 : 1;
    }
    if (!cli.watchId.empty()) {
        request.op = serve::Op::Watch;
        return streamResults(client, request);
    }
    if (!cli.campaignKind.empty())
        return submitCampaign(client, cli);

    // Kernel names travel by name, assembly files as source text (the
    // daemon reads no files on a client's behalf).
    bool anyFailed = false;
    for (serve::JobSpec &job : cliJobs(cli)) {
        job.period = cli.period;
        job.deadlineMs = cli.deadlineMs;
        serve::Request submit;
        submit.op = serve::Op::Submit;
        submit.job = job;
        if (!acked(client, submit, "submit: job '" + job.id + "'"))
            anyFailed = true;
    }
    request.op = serve::Op::Run;
    return streamResults(client, request) || anyFailed ? 1 : 0;
}

int
cmdList()
{
    for (const auto &kernel : livermoreKernels())
        std::printf("%-8s %s\n", kernel.name.c_str(),
                    kernel.description.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    // Strip -j/--jobs and --engine before subcommand parsing so every
    // subcommand accepts them in any position.
    unsigned jobs = par::consumeJobsFlag(argc, argv);
    engine::consumeEngineFlag(argc, argv);
    std::string command = argv[1];
    Cli cli = parseArgs(argc, argv);
    cli.jobs = jobs;
    std::string problem = cli.config.validate();
    if (!problem.empty())
        cliFail("bad configuration: %s", problem.c_str());

    if (command == "run")
        return cmdRun(cli);
    if (command == "sweep")
        return cmdSweep(cli);
    if (command == "analyze")
        return cmdAnalyze(cli);
    if (command == "verify")
        return cmdVerify(cli);
    if (command == "storm")
        return cmdStorm(cli);
    if (command == "inject")
        return cmdInject(cli);
    if (command == "disasm")
        return cmdDisasm(cli);
    if (command == "lint")
        return cmdLint(cli);
    if (command == "trace")
        return cmdTrace(cli);
    if (command == "serve")
        return cmdServe(cli);
    if (command == "submit")
        return cmdSubmit(cli);
    if (command == "list")
        return cmdList();
    usage();
}
