/**
 * @file
 * Crash-contained trial execution.
 *
 * A single bit flip can legitimately make the machine dereference a
 * cleared in-flight slot (SIGSEGV), trip a ruu_assert (SIGABRT), or
 * grind forever. The campaign must classify those outcomes, not die of
 * them, so every trial runs in a forked child. The child reports over
 * a pipe with a two-line protocol:
 *
 *   PRE <flat json>   written the moment the fault is armed (port,
 *                     values, pre-fault snapshot) — so a child that
 *                     subsequently crashes or is killed still leaves
 *                     the injection coordinates behind;
 *   RES <flat json>   the finished TrialResult (journal line format).
 *
 * The parent drains the pipe while enforcing a wall-clock deadline;
 * on expiry the child is SIGKILLed. The child's stderr is captured on
 * a second pipe so assertion text becomes the trial's diagnostic.
 */

#ifndef RUU_INJECT_SANDBOX_HH
#define RUU_INJECT_SANDBOX_HH

#include <functional>
#include <string>

#include "common/backoff.hh"

namespace ruu::inject
{

/** The child's half of the reporting pipe. */
class SandboxChannel
{
  public:
    explicit SandboxChannel(int fd) : _fd(fd) {}

    /** Write one "<tag> <payload>" protocol line. */
    void send(const std::string &tag, const std::string &payload) const;

  private:
    int _fd;
};

/** What the parent observed of one sandboxed trial. */
struct SandboxOutcome
{
    enum class Status
    {
        Reported,    //!< child sent RES and exited cleanly
        Crashed,     //!< child died of a signal (or exited reportless)
        TimedOut,    //!< deadline expired; child was SIGKILLed
        SpawnFailed, //!< fork/pipe failure — retryable host trouble
    };

    Status status = Status::SpawnFailed;
    int signal = 0;         //!< terminating signal when Crashed
    int exitCode = 0;       //!< exit status when the child exited
    std::string resLine;    //!< RES payload (empty unless Reported)
    std::string preLine;    //!< PRE payload when it arrived in time
    std::string stderrText; //!< captured child stderr
    std::string spawnError; //!< diagnostic when SpawnFailed
};

/** The last @p keep characters of @p text (child output), "..." first. */
std::string tail(const std::string &text, std::size_t keep);

/**
 * Run @p body in a forked child with a @p timeoutMs wall-clock
 * deadline. The body must do all of its reporting through the channel;
 * its stdout/stderr are captured, and it must not return control to
 * any caller-owned state (the child _exit()s when the body returns).
 */
SandboxOutcome runSandboxed(const std::function<void(SandboxChannel &)> &body,
                            unsigned timeoutMs);

/**
 * runSandboxed(), retrying SpawnFailed outcomes (fork/pipe failure
 * under transient host pressure) on the shared capped-exponential
 * backoff schedule. Any other outcome — including Crashed and
 * TimedOut, which are the child's verdict, not host trouble — returns
 * immediately. On return @p retriesOut (when non-null) holds the
 * number of retries burned; a still-SpawnFailed outcome means the
 * policy was exhausted.
 */
SandboxOutcome
runSandboxedWithRetry(const std::function<void(SandboxChannel &)> &body,
                      unsigned timeoutMs, const BackoffPolicy &policy,
                      unsigned *retriesOut = nullptr);

} // namespace ruu::inject

#endif // RUU_INJECT_SANDBOX_HH
