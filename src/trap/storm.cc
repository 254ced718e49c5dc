#include "trap/storm.hh"

#include <algorithm>
#include <memory>

#include "common/flat_json.hh"
#include "common/logging.hh"
#include "lint/wcirt.hh"
#include "trap/controller.hh"
#include "trap/handlers.hh"
#include "trap/interrupt_source.hh"

namespace ruu::trap
{

std::vector<Cycle>
stormPeriods(std::size_t points)
{
    std::vector<Cycle> periods;
    for (std::size_t i = 0; i < points; ++i) {
        std::uint64_t k = 16ull << (2 * i);
        periods.push_back(std::min<std::uint64_t>(k, 10000));
        if (k >= 10000)
            break;
    }
    return periods;
}

std::vector<StormRow>
runStormCell(const Workload &workload, CoreKind kind,
             const UarchConfig &config, const std::vector<Cycle> &periods,
             bool prune)
{
    TrapConfig tconfig;
    tconfig.checkOracle = true;

    // Pin the handler program so the controller and the pruning
    // decision below share one cached WCIRT bound entry.
    auto handlerProg = std::make_shared<const Program>(counterHandler());
    tconfig.handler = handlerProg;
    lint::WcirtParams wparams;
    wparams.exchangeCycles = tconfig.exchangeCycles;
    wparams.maxLevels = tconfig.layout.maxLevels;
    const lint::WcirtBound &bound = lint::cachedWcirtBound(
        workload.trace(), *handlerProg, config, kind, wparams);
    const std::uint64_t segCeil = bound.segmentCeiling();

    auto core = makeCore(kind, config);
    const Cycle baselineCycles = core->run(workload.trace()).cycles;

    std::vector<StormRow> rows;
    for (Cycle period : periods) {
        StormRow row;
        row.workload = workload.name;
        row.core = kind;
        row.period = period;
        row.baselineCycles = baselineCycles;
        // An arrival period past the certified segment ceiling can
        // never tick before the run completes: the row is derived,
        // identical to the simulation it skips (kWcirtUnbounded never
        // satisfies the >).
        row.pruned = prune && period > segCeil;
        if (row.pruned) {
            row.ok = true;
            row.cycles = baselineCycles;
            row.wcirt = bound.cycles;
        } else {
            TrapController controller(*core, tconfig);
            TrapRunResult res = controller.run(
                workload.trace(), InterruptSource::periodic(period, 1));
            row.ok = res.ok();
            row.error = res.error.empty() ? res.oracleFailure : res.error;
            if (row.ok) {
                auto replay = replayFunctional(workload.program, tconfig,
                                               res.deliveries);
                if (!replay.ok) {
                    row.ok = false;
                    row.error = replay.error;
                } else if (replay.state != res.state ||
                           replay.memory != res.memory ||
                           replay.trapRegs != res.trapRegs) {
                    row.ok = false;
                    row.error = "timing run and functional replay "
                                "disagree on the final state";
                }
            }
            row.deliveries = res.deliveries.size();
            row.handlerMeanCycles = res.meanHandlerCycles();
            row.handlerMaxCycles = res.maxHandlerCycles();
            row.cycles = res.cycles;
            row.wcirt = res.wcirtCeiling;
            row.maxDeliveryLatency = res.maxDeliveryLatency;
        }
        row.pctCeiling =
            row.wcirt
                ? 100.0 * static_cast<double>(row.maxDeliveryLatency) /
                      static_cast<double>(row.wcirt)
                : 0.0;
        row.degradationPct =
            baselineCycles
                ? 100.0 *
                      (static_cast<double>(row.cycles) -
                       static_cast<double>(baselineCycles)) /
                      static_cast<double>(baselineCycles)
                : 0.0;
        rows.push_back(std::move(row));
    }
    return rows;
}

std::string
stormRowToJson(const StormRow &row)
{
    return detail::vformat(
        "{\"workload\": \"%s\", \"core\": \"%s\", "
        "\"k\": %llu, \"deliveries\": %zu, "
        "\"handler_mean_cycles\": %.2f, "
        "\"handler_max_cycles\": %llu, "
        "\"cycles\": %llu, \"baseline_cycles\": %llu, "
        "\"degradation_pct\": %.2f, \"wcirt\": %llu, "
        "\"max_delivery_latency\": %llu, "
        "\"pct_ceiling\": %.2f, \"ok\": %s, \"pruned\": %s}",
        flat::escape(row.workload).c_str(), coreKindName(row.core),
        static_cast<unsigned long long>(row.period), row.deliveries,
        row.handlerMeanCycles,
        static_cast<unsigned long long>(row.handlerMaxCycles),
        static_cast<unsigned long long>(row.cycles),
        static_cast<unsigned long long>(row.baselineCycles),
        row.degradationPct, static_cast<unsigned long long>(row.wcirt),
        static_cast<unsigned long long>(row.maxDeliveryLatency),
        row.pctCeiling, row.ok ? "true" : "false",
        row.pruned ? "true" : "false");
}

} // namespace ruu::trap
