/**
 * @file
 * The verification driver behind `ruusim verify` and the oracle tests:
 * run a workload through each issue mechanism with the full checking
 * stack attached —
 *
 *   - the lockstep commit oracle on a clean run (oracle/commit_oracle.hh),
 *   - the static resource-aware bound, asserted as cycles >= bound
 *     (lint/resource_bound.hh; it dominates the PR 2 dataflow bound),
 *     reported as "% of limit" together with the binding resource,
 *   - optionally the interrupt sweep (oracle/sweep.hh)
 *
 * — and report one row per (workload, core) pair.
 */

#ifndef RUU_ORACLE_VERIFY_HH
#define RUU_ORACLE_VERIFY_HH

#include <string>
#include <vector>

#include "lint/resource_bound.hh"
#include "lint/wcirt.hh"
#include "oracle/sweep.hh"
#include "sim/machine.hh"

namespace ruu::oracle
{

/** What to verify and on which mechanisms. */
struct VerifyOptions
{
    UarchConfig config = UarchConfig::cray1();

    /** Cores to verify; empty means all six. */
    std::vector<CoreKind> cores;

    /** Also run the interrupt sweep. */
    bool sweep = false;

    SweepOptions sweepOptions;

    /**
     * Multi-worker pool: each case's interrupt sweep fans its fault
     * points out across the pool (sweepOptions.pool/coreFactory are
     * filled in per case). Results are unchanged at any worker count.
     */
    par::Pool *pool = nullptr;
};

/** Verdict for one (workload, core) pair. */
struct VerifyCase
{
    std::string workload;
    CoreKind kind = CoreKind::Simple;

    std::uint64_t cycles = 0;       //!< clean-run cycle count
    std::uint64_t instructions = 0; //!< clean-run commits

    bool oracleOk = false;     //!< lockstep commit oracle verdict
    bool matchesFunc = false;  //!< final state == functional machine

    /**
     * Static resource-aware bound of (trace, config); its `dataflow`
     * member is the PR 2 dependence-only bound, kept in the row so the
     * tables can show how much the resource floors tightened it.
     */
    lint::ResourceBound bound;
    bool boundOk = false;    //!< cycles >= bound.cycles (certified)
    double pctOfLimit = 0.0; //!< bound.cycles / cycles, in percent

    /** Dependence-only % of limit (the looser PR 2 ratio). */
    double pctOfDataflowLimit = 0.0;

    /**
     * Certified WCIRT ceiling (lint/wcirt.hh) of this scheme and
     * configuration — the dual of `bound`: an *upper* bound on
     * interrupt-delivery latency instead of a lower bound on cycles.
     * The sweep asserts every measured drain residue against its cut
     * component; the worst residue lands in sweep.maxDrainCycles.
     */
    lint::WcirtBound wcirt;

    /** Worst measured delivery latency / WCIRT ceiling, in percent. */
    double pctOfWcirt = 0.0;

    bool sweepRan = false;
    SweepResult sweep;

    /** Everything that was checked passed. */
    bool ok = false;

    /** First failure detail; empty when ok. */
    std::string message;
};

/** Verify @p workload on every core in @p options (default: all six). */
std::vector<VerifyCase> verifyWorkload(const Workload &workload,
                                       const VerifyOptions &options = {});

/** True when every case passed. */
bool allOk(const std::vector<VerifyCase> &cases);

} // namespace ruu::oracle

#endif // RUU_ORACLE_VERIFY_HH
