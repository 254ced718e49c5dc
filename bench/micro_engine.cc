/**
 * @file
 * google-benchmark microbenches of the simulator engine itself (not a
 * paper experiment): how fast each issue-logic model simulates, plus
 * the front-end components (assembler, functional simulator, parcel
 * encoder). Useful when extending the library — a regression here
 * makes the table sweeps crawl.
 *
 * Two modes:
 *
 *   micro_engine [gbench flags]     the google-benchmark suite; core
 *                                   benches take a second argument
 *                                   selecting the engine (0 = interp,
 *                                   1 = compiled)
 *   micro_engine --ab [out.json]    the interp-vs-compiled A/B sweep:
 *                                   every core × every Livermore
 *                                   kernel, timed under both engines,
 *                                   written as JSON (default
 *                                   BENCH_engine.json in the cwd).
 *                                   --min-ms N sets the per-sample
 *                                   budget. Exits non-zero if the two
 *                                   engines ever disagree on cycles or
 *                                   instructions.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/func_sim.hh"
#include "asm/parser.hh"
#include "engine/engine.hh"
#include "isa/encoding.hh"
#include "kernels/lll.hh"
#include "lint/resource_bound.hh"
#include "sim/machine.hh"

namespace ruu
{
namespace
{

const Workload &
workload()
{
    return livermoreWorkloads()[0]; // lll01: ~7.2k dynamic instructions
}

void
BM_FunctionalSim(benchmark::State &state)
{
    auto program = std::make_shared<const Program>(
        livermoreKernels()[0].program);
    for (auto _ : state) {
        FuncResult result = runFunctional(program);
        benchmark::DoNotOptimize(result.trace.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(workload().trace().size()));
}
BENCHMARK(BM_FunctionalSim);

/**
 * range(0) is the pool/TU size, range(1) selects the engine: 0 runs
 * the interpreted reference, 1 the compiled fast path. The default
 * engine is restored afterwards so the order benches run in cannot
 * leak one bench's engine into another.
 */
void
runCoreBench(benchmark::State &state, CoreKind kind)
{
    UarchConfig config = UarchConfig::cray1();
    config.poolEntries = static_cast<unsigned>(state.range(0));
    config.tuEntries = static_cast<unsigned>(state.range(0));
    auto core = makeCore(kind, config);
    engine::Kind saved = engine::defaultKind();
    engine::setDefaultKind(state.range(1) ? engine::Kind::Compiled
                                          : engine::Kind::Interp);
    for (auto _ : state) {
        RunResult result = core->run(workload().trace());
        benchmark::DoNotOptimize(result.cycles);
    }
    engine::setDefaultKind(saved);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(workload().trace().size()));
}

void
EngineArgs(benchmark::internal::Benchmark *bench, bool bigPool)
{
    bench->ArgNames({"pool", "compiled"});
    bench->Args({10, 0})->Args({10, 1});
    if (bigPool)
        bench->Args({50, 0})->Args({50, 1});
}

void
BM_SimpleCore(benchmark::State &state)
{
    runCoreBench(state, CoreKind::Simple);
}
BENCHMARK(BM_SimpleCore)->Apply([](auto *b) { EngineArgs(b, false); });

void
BM_TomasuloCore(benchmark::State &state)
{
    runCoreBench(state, CoreKind::Tomasulo);
}
BENCHMARK(BM_TomasuloCore)->Apply([](auto *b) { EngineArgs(b, false); });

void
BM_RstuCore(benchmark::State &state)
{
    runCoreBench(state, CoreKind::Rstu);
}
BENCHMARK(BM_RstuCore)->Apply([](auto *b) { EngineArgs(b, true); });

void
BM_RuuCore(benchmark::State &state)
{
    runCoreBench(state, CoreKind::Ruu);
}
BENCHMARK(BM_RuuCore)->Apply([](auto *b) { EngineArgs(b, true); });

void
BM_SpecRuuCore(benchmark::State &state)
{
    runCoreBench(state, CoreKind::SpecRuu);
}
BENCHMARK(BM_SpecRuuCore)->Apply([](auto *b) { EngineArgs(b, true); });

void
BM_HistoryCore(benchmark::State &state)
{
    runCoreBench(state, CoreKind::History);
}
BENCHMARK(BM_HistoryCore)->Apply([](auto *b) { EngineArgs(b, false); });

void
BM_Assembler(benchmark::State &state)
{
    // Assemble a representative loop repeatedly.
    std::string source = R"(
.program bench
    amovi A1, 0
    amovi A6, 1
    amovi A5, 100
loop:
    lds S1, 1000(A1)
    fmul S2, S1, S1
    fadd S3, S3, S2
    sts 2000(A1), S3
    aadd A1, A1, A6
    asub A0, A1, A5
    jam loop
    halt
)";
    for (auto _ : state) {
        AsmResult result = assemble(source);
        benchmark::DoNotOptimize(result.ok());
    }
}
BENCHMARK(BM_Assembler);

void
BM_EncodeDecode(benchmark::State &state)
{
    const auto &insts = livermoreKernels()[0].program.instructions();
    for (auto _ : state) {
        auto image = encodeAll(insts);
        auto decoded = decodeAll(image);
        benchmark::DoNotOptimize(decoded->size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(insts.size()));
}
BENCHMARK(BM_EncodeDecode);

void
BM_ResourceBound(benchmark::State &state)
{
    // The static analyzer behind `ruusim analyze`, the per-run cycle
    // assertions, and sweep pruning; it runs uncached here, once per
    // (trace, config) in production.
    UarchConfig config = UarchConfig::cray1();
    for (auto _ : state) {
        lint::ResourceBound bound =
            lint::resourceBound(workload().trace(), config);
        benchmark::DoNotOptimize(bound.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(workload().trace().size()));
}
BENCHMARK(BM_ResourceBound);

// ------------------------------------------------------------------
// The interp-vs-compiled A/B sweep (--ab).
// ------------------------------------------------------------------

struct AbRow
{
    std::string core;
    std::string kernel;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double interpMs = 0.0;
    double compiledMs = 0.0;

    double speedup() const { return interpMs / compiledMs; }
};

/**
 * Mean wall-clock milliseconds per run, taken as the best of
 * @p repeats samples where each sample iterates until @p minMs has
 * elapsed. Best-of sampling rejects scheduler noise on the shared
 * containers these numbers are usually taken on.
 */
double
timeRuns(Core &core, const Trace &trace, double minMs, int repeats)
{
    using clock = std::chrono::steady_clock;
    (void)core.run(trace); // warm caches (and the stream memo)
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        std::uint64_t iters = 0;
        auto start = clock::now();
        double elapsedMs = 0.0;
        do {
            RunResult result = core.run(trace);
            benchmark::DoNotOptimize(result.cycles);
            ++iters;
            elapsedMs = std::chrono::duration<double, std::milli>(
                            clock::now() - start)
                            .count();
        } while (elapsedMs < minMs);
        best = std::min(best, elapsedMs / static_cast<double>(iters));
    }
    return best;
}

int
runAbSweep(const std::string &outPath, double minMs)
{
    // The sweep's whole point is one engine per arm; an inherited
    // RUU_ENGINE override would silently time the same engine twice.
    ::unsetenv("RUU_ENGINE");

    constexpr int kRepeats = 3;

    const auto &kernels = livermoreWorkloads();
    std::vector<AbRow> rows;
    bool mismatch = false;
    UarchConfig config = UarchConfig::cray1();
    for (CoreKind kind : allCoreKinds()) {
        auto core = makeCore(kind, config);
        for (const Workload &kernel : kernels) {
            AbRow row;
            row.core = coreKindName(kind);
            row.kernel = kernel.name;
            row.instructions = kernel.trace().size();

            engine::setDefaultKind(engine::Kind::Interp);
            RunResult interp = core->run(kernel.trace());
            row.interpMs =
                timeRuns(*core, kernel.trace(), minMs, kRepeats);

            engine::setDefaultKind(engine::Kind::Compiled);
            RunResult compiled = core->run(kernel.trace());
            row.compiledMs =
                timeRuns(*core, kernel.trace(), minMs, kRepeats);

            row.cycles = interp.cycles;
            if (interp.cycles != compiled.cycles ||
                interp.instructions != compiled.instructions) {
                std::fprintf(stderr,
                             "ENGINE MISMATCH %s/%s: interp %llu cyc "
                             "%llu inst, compiled %llu cyc %llu inst\n",
                             row.core.c_str(), row.kernel.c_str(),
                             (unsigned long long)interp.cycles,
                             (unsigned long long)interp.instructions,
                             (unsigned long long)compiled.cycles,
                             (unsigned long long)compiled.instructions);
                mismatch = true;
            }

            std::printf("%-9s %-6s %7llu inst  interp %8.3f ms  "
                        "compiled %8.3f ms  %5.2fx\n",
                        row.core.c_str(), row.kernel.c_str(),
                        (unsigned long long)row.instructions,
                        row.interpMs, row.compiledMs, row.speedup());
            std::fflush(stdout);
            rows.push_back(std::move(row));
        }
    }
    engine::setDefaultKind(engine::Kind::Compiled);

    double logSum = 0.0;
    double interpTotal = 0.0, compiledTotal = 0.0;
    for (const AbRow &row : rows) {
        logSum += std::log(row.speedup());
        interpTotal += row.interpMs;
        compiledTotal += row.compiledMs;
    }
    double geomean = std::exp(logSum / static_cast<double>(rows.size()));
    double aggregate = interpTotal / compiledTotal;

    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"engine_ab\",\n"
         << "  \"note\": \"Regenerated by micro_engine --ab (see "
            "scripts/ci_perf_smoke.sh). One row per core x Livermore "
            "kernel; each arm is best-of-" << kRepeats
         << " mean wall-clock per full simulation run. interp is the "
            "table-driven decode-per-cycle reference, compiled the "
            "pre-decoded micro-op stream path; both produce "
            "byte-identical results (CI-gated).\",\n"
         << "  \"min_ms_per_sample\": " << minMs << ",\n"
         << "  \"geomean_speedup\": "
         << std::round(geomean * 100.0) / 100.0 << ",\n"
         << "  \"aggregate_speedup\": "
         << std::round(aggregate * 100.0) / 100.0 << ",\n"
         << "  \"interp_total_ms\": "
         << std::round(interpTotal * 1000.0) / 1000.0 << ",\n"
         << "  \"compiled_total_ms\": "
         << std::round(compiledTotal * 1000.0) / 1000.0 << ",\n"
         << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const AbRow &row = rows[i];
        json << "    {\"core\": \"" << row.core << "\", \"kernel\": \""
             << row.kernel << "\", \"instructions\": "
             << row.instructions << ", \"cycles\": " << row.cycles
             << ", \"interp_ms\": "
             << std::round(row.interpMs * 1000.0) / 1000.0
             << ", \"compiled_ms\": "
             << std::round(row.compiledMs * 1000.0) / 1000.0
             << ", \"speedup\": "
             << std::round(row.speedup() * 100.0) / 100.0 << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    std::ofstream out(outPath);
    out << json.str();
    out.close();

    std::printf("\n%zu pairs  geomean %.2fx  aggregate %.2fx  -> %s\n",
                rows.size(), geomean, aggregate, outPath.c_str());
    if (mismatch) {
        std::fprintf(stderr, "FAIL: engines disagreed (see above)\n");
        return 1;
    }
    return 0;
}

} // namespace
} // namespace ruu

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--ab") == 0) {
        std::string outPath = "BENCH_engine.json";
        double minMs = 40.0;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--min-ms") == 0 && i + 1 < argc)
                minMs = std::atof(argv[++i]);
            else
                outPath = argv[i];
        }
        return ruu::runAbSweep(outPath, minMs);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
