//===- evalkit/ProcessPool.h - Forked campaign worker processes ----------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The out-of-process generalisation of the campaign's Jobs thread
/// pool: a coordinator forks N worker processes and hands out work
/// items one at a time over pipes, speaking the WireProtocol framing.
/// A worker that segfaults, gets OOM-killed, hangs past the watchdog
/// deadline or answers with a corrupt frame costs exactly one incident
/// — never the campaign:
///
///  - Crash containment: the coordinator decodes the wait status
///    (WIFSIGNALED / unexpected exit) into a canonical error text and
///    reassigns the unacknowledged item to a fresh worker, up to the
///    campaign's attempt limit, with exponential respawn backoff.
///  - Watchdog: each assignment carries a wall deadline; a worker that
///    blows it is SIGKILLed and surfaced as a worker-timeout failure.
///  - Protocol hygiene: frames failing magic/length/CRC checks poison
///    the stream; the worker is recycled, its answer discarded.
///  - Work stealing falls out of the pull model: items are assigned
///    singly on demand, so a skewed instruction occupies one worker
///    while the others drain the queue, and an item whose worker died
///    unacknowledged is simply re-queued (front, retaining catalog
///    priority) for the next free worker.
///
/// The coordinator is deliberately single-threaded (one poll loop on
/// the calling thread): fork() therefore always happens from a
/// single-threaded process, which keeps the child's post-fork state
/// trivially sound (no locks mid-acquisition) and the design clean
/// under TSan. Determinism is the caller's business — the campaign
/// merge loop consumes results slot-by-slot in catalog order, so
/// assignment order never shows in any output file.
///
/// On platforms without fork/pipe/poll, available() is false and the
/// campaign degrades to the in-process thread pool.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_EVALKIT_PROCESSPOOL_H
#define IGDT_EVALKIT_PROCESSPOOL_H

#include "evalkit/WireProtocol.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace igdt {

/// How an assignment failed (names double as incident error classes,
/// matching the in-process WorkerFault classes).
enum class WorkerFailureKind : std::uint8_t {
  /// Worker died by signal or exited without answering.
  Crash,
  /// Worker blew the watchdog deadline and was SIGKILLed.
  Timeout,
  /// Worker answered with a frame failing protocol validation.
  Corruption,
};

const char *workerFailureKindName(WorkerFailureKind Kind);

struct ProcessPoolOptions {
  /// Worker processes to fork.
  unsigned Workers = 1;
  /// Per-assignment watchdog deadline in milliseconds; 0 disables.
  double DeadlineMillis = 0;
  /// Base of the exponential respawn backoff after a failure
  /// (base * 2^(attempt-1), capped); 0 respawns immediately.
  double BackoffMillis = 0;
  /// Assignment attempts per item before OnExhausted.
  unsigned MaxAttempts = 2;
};

/// One assignment: an opaque index into the caller's worklist plus the
/// 1-based attempt the next execution should start from (retries after
/// a worker failure resume counting, like the in-process retry loop).
struct PoolWorkItem {
  std::size_t Index = 0;
  unsigned StartAttempt = 1;
};

/// What a worker computed for one item. CorruptFrame asks the send
/// path to damage the encoded response (the PipeMessageCorruption
/// harness fault lives at exactly this seam).
struct PoolItemResult {
  std::string Payload;
  bool CorruptFrame = false;
};

/// Runs inside the forked worker for each assignment. Must not touch
/// coordinator state (it executes in a copy-on-write address space).
using PoolItemFn = std::function<PoolItemResult(const PoolWorkItem &Item)>;

/// Coordinator-side callbacks, all invoked on the calling thread.
struct ProcessPoolHooks {
  /// A worker answered \p Index. Return false to distrust the payload
  /// (decode failure): the worker is recycled and the item retried,
  /// exactly like frame-level corruption.
  std::function<bool(std::size_t Index, unsigned Attempt,
                     const std::string &Payload)>
      OnResult;
  /// An assignment failed; \p Worker / \p Pid identify the culprit (for
  /// diagnostics only — the campaign blanks them before any record).
  std::function<void(std::size_t Index, unsigned Attempt,
                     WorkerFailureKind Kind, const std::string &Error,
                     unsigned Worker, long Pid)>
      OnFailure;
  /// \p Index failed on every allowed attempt (quarantine signal).
  std::function<void(std::size_t Index, unsigned Attempts)> OnExhausted;
  /// Polled before each assignment; true stops handing out new work
  /// (in-flight items still complete).
  std::function<bool()> ShouldStop;
  /// Increment a named "worker.*" diagnostic counter.
  std::function<void(const char *Counter)> OnCounter;
};

/// The coordinator. start() forks the workers; run() drives the
/// assign/collect loop; shutdown() reaps. Not copyable.
class ProcessPool {
public:
  /// True when the platform can fork worker processes (POSIX, and the
  /// IGDT_NO_FORK escape hatch is unset — tests use it to exercise the
  /// in-process fallback deterministically).
  static bool available();

  ProcessPool(ProcessPoolOptions Options, PoolItemFn Item);
  ~ProcessPool();
  ProcessPool(const ProcessPool &) = delete;
  ProcessPool &operator=(const ProcessPool &) = delete;

  /// Forks the workers. False when none could be spawned (caller should
  /// fall back in-process).
  bool start();

  /// Processes \p Items to completion (or stop/exhaustion). Returns the
  /// items left unprocessed — non-empty only when ShouldStop() ended
  /// the run early or every worker died and respawning kept failing;
  /// the caller finishes those in-process (graceful degradation).
  std::vector<PoolWorkItem> run(std::deque<PoolWorkItem> Items,
                                const ProcessPoolHooks &Hooks);

  /// Kills and reaps every worker; idempotent (the destructor calls it).
  void shutdown();

private:
  struct Worker;

  bool spawnWorker(Worker &W);
  void destroyWorker(Worker &W);
  [[noreturn]] void workerMain(int RequestFd, int ResponseFd);

  ProcessPoolOptions Opts;
  PoolItemFn Item;
  std::vector<Worker> Workers;
  bool Started = false;
  bool SigPipeSaved = false;
  void (*PrevSigPipe)(int) = nullptr;
};

} // namespace igdt

#endif // IGDT_EVALKIT_PROCESSPOOL_H
