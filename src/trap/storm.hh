/**
 * @file
 * One interrupt-storm cell: a workload on one core under periodic
 * external interrupts, serviced by the stock counter handler and
 * checked end to end. This is the single implementation behind both
 * `ruusim storm` and ruusimd's periodic-interrupt jobs (and the storm
 * campaign units that reuse them), so the two front ends print the
 * same line for the same (workload, core, config, period).
 */

#ifndef RUU_TRAP_STORM_HH
#define RUU_TRAP_STORM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hh"

namespace ruu::trap
{

/** One (workload, core, period) result of a storm cell. */
struct StormRow
{
    std::string workload;
    CoreKind core = CoreKind::Simple;
    Cycle period = 0;
    std::size_t deliveries = 0;
    double handlerMeanCycles = 0.0;
    Cycle handlerMaxCycles = 0;
    Cycle cycles = 0;
    Cycle baselineCycles = 0;
    double degradationPct = 0.0;
    std::uint64_t wcirt = 0;         //!< certified delivery ceiling
    Cycle maxDeliveryLatency = 0;
    double pctCeiling = 0.0;         //!< max latency, % of wcirt
    bool ok = false;                 //!< serviced, oracle and replay clean
    /** Derived from the baseline: the period exceeds the certified
     * segment ceiling, so no tick could arrive before the run ends. */
    bool pruned = false;
    std::string error;               //!< why the row failed; empty when ok

    bool operator==(const StormRow &) const = default;
};

/**
 * The storm arrival periods for @p points: K = 16*4^i for i < points,
 * capped at (and stopping after) 10000 cycles.
 */
std::vector<Cycle> stormPeriods(std::size_t points);

/**
 * Run @p workload on @p kind under periodic interrupts at each of
 * @p periods, one StormRow per period in order. One interrupt-free
 * baseline run and counter handler serve every period; each simulated
 * period runs under the per-segment commit oracle and is checked by a
 * bit-exact functional replay. With
 * @p prune, a period past the certified WCIRT segment ceiling is
 * derived from the baseline instead of simulated; the row is
 * identical except for `pruned`.
 */
std::vector<StormRow> runStormCell(const Workload &workload, CoreKind kind,
                                   const UarchConfig &config,
                                   const std::vector<Cycle> &periods,
                                   bool prune);

/** One `ruusim storm --json` line (also the periodic-job payload). */
std::string stormRowToJson(const StormRow &row);

} // namespace ruu::trap

#endif // RUU_TRAP_STORM_HH
