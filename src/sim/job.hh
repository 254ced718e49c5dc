/**
 * @file
 * The one job resolver behind both front ends: `ruusim run`/`submit`/
 * `inject` (apps/ruusim_cli.cc) and ruusimd (serve/server.cc) fill one
 * spec — serve::JobSpec, or serve::CampaignSpec for an inject campaign
 * — then resolve and run it here, so a job means the same thing and
 * prints the same bytes on either path. Rejections are the per-job
 * texts ruusimd answers with: "unknown core '…'", "unknown workload
 * '…'", "bad config: …", or the checked source build's diagnostic.
 */

#ifndef RUU_SIM_JOB_HH
#define RUU_SIM_JOB_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "inject/campaign.hh"
#include "serve/protocol.hh"
#include "sim/machine.hh"

namespace ruu
{

/** Supplies the text of a program file named on a command line. */
using SourceReader =
    std::function<Expected<std::string>(const std::string &path)>;

/** The workloads @p argument names: all 14 kernels for "suite". */
std::vector<std::string> expandSuite(const std::string &argument);

/**
 * @p base naming workload @p name: a built-in kernel travels by name;
 * anything else is a program file, read through @p readSource and
 * named (id and display name) by @p name. Without a reader — ruusimd
 * reads no files — a name that is no kernel is an unknown workload.
 */
Expected<serve::JobSpec> jobFor(const std::string &name,
                                serve::JobSpec base,
                                const SourceReader &readSource);

/**
 * The workload @p spec names: the process-wide cached kernel, or a
 * checked build of its program (display name first, then id, over a
 * `.program` directive).
 */
Expected<std::shared_ptr<const Workload>>
resolveWorkload(const serve::JobSpec &spec);

/**
 * The program @p spec names, assembled but not run (the linters'
 * input): the kernel's, or its program text's.
 */
Expected<Program> resolveProgram(const serve::JobSpec &spec);

/** A job whose every name has been looked up and checked. */
struct ResolvedJob
{
    CoreKind core = CoreKind::Ruu;
    std::shared_ptr<const Workload> workload;
    UarchConfig config;
    RunOptions options;
    Cycle period = 0; //!< interrupt period; 0 = plain run
};

Expected<ResolvedJob> resolveJob(const serve::JobSpec &spec);

/**
 * The cache key of @p job: a hash of everything its payload depends
 * on, the workload's full trace content included. Only ruusimd needs
 * it, so resolveJob leaves the trace unhashed.
 */
std::uint64_t jobKey(const ResolvedJob &job);

/** What executeJob produced. */
struct JobResult
{
    std::string payload;        //!< the `--json` line
    RunResult run;              //!< a plain job's run
    std::unique_ptr<Core> core; //!< a plain job's core, with its stats
};

/**
 * The one run body. A plain job runs its core, is checked against its
 * functional execution (fatal on a mismatch: a simulator bug) and
 * renders the `ruusim run --json` line. A periodic job is one pruned
 * `ruusim storm` cell and renders that period's `--json` line.
 */
JobResult executeJob(const ResolvedJob &job);

/**
 * Inject campaign @p spec as campaign options: its cores, workloads
 * (by jobFor's rule through @p readSource), trials, seed, config and
 * instruction-buffer switch, rejected as resolveJob rejects. Watchdog,
 * journal and jobs stay at their defaults for the caller to set.
 */
Expected<inject::CampaignOptions>
injectCampaignOptions(const serve::CampaignSpec &spec,
                      const SourceReader &readSource = {});

/**
 * The cache key of trial @p trial of inject campaign @p spec: (seed,
 * index) fully determine a trial, exactly as `--replay-trial` pins.
 */
std::uint64_t injectUnitKey(const serve::CampaignSpec &spec,
                            std::uint64_t trial);

} // namespace ruu

#endif // RUU_SIM_JOB_HH
