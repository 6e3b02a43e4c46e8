//===- evalkit/ProcessPool.cpp - Forked campaign worker processes --------------===//

#include "evalkit/ProcessPool.h"

#include "faults/HarnessFaults.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define IGDT_HAS_FORK 1
#include <cerrno>
#include <csignal>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define IGDT_HAS_FORK 0
#endif

using namespace igdt;

const char *igdt::workerFailureKindName(WorkerFailureKind Kind) {
  switch (Kind) {
  case WorkerFailureKind::Crash:
    return "worker-crash";
  case WorkerFailureKind::Timeout:
    return "worker-timeout";
  case WorkerFailureKind::Corruption:
    return "protocol-corruption";
  }
  return "unknown";
}

/// Coordinator-side view of one forked worker.
struct ProcessPool::Worker {
  long Pid = -1;
  /// Coordinator writes Assign/Shutdown frames here.
  int RequestFd = -1;
  /// Coordinator reads Result frames here.
  int ResponseFd = -1;
  bool Alive = false;
  bool Busy = false;
  PoolWorkItem Item;
  double AssignedAt = 0;
  /// Earliest respawn time (exponential backoff after failures).
  double RespawnAt = 0;
  /// Consecutive failures; resets on a delivered result.
  unsigned FailStreak = 0;
  FrameDecoder Decoder;
};

namespace {

double nowMillis() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#if IGDT_HAS_FORK

bool writeAll(int Fd, const std::string &Bytes) {
  std::size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += std::size_t(N);
  }
  return true;
}

void reapBlocking(long Pid, int &Status) {
  while (::waitpid(pid_t(Pid), &Status, 0) < 0 && errno == EINTR) {
  }
}

#endif // IGDT_HAS_FORK

} // namespace

bool ProcessPool::available() {
#if IGDT_HAS_FORK
  // The escape hatch lets tests (and constrained deployments) force
  // the graceful in-process degradation path deterministically.
  return std::getenv("IGDT_NO_FORK") == nullptr;
#else
  return false;
#endif
}

ProcessPool::ProcessPool(ProcessPoolOptions Options, PoolItemFn ItemFn)
    : Opts(Options), Item(std::move(ItemFn)) {
  Opts.Workers = std::max(1u, Opts.Workers);
  Opts.MaxAttempts = std::max(1u, Opts.MaxAttempts);
}

ProcessPool::~ProcessPool() { shutdown(); }

#if IGDT_HAS_FORK

void ProcessPool::workerMain(int RequestFd, int ResponseFd) {
  // Single-threaded request loop; the process dies with _exit (or a
  // fault) and never returns into the forked campaign state.
  FrameDecoder Decoder;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(RequestFd, Buf, sizeof Buf);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::_exit(0);
    }
    if (N == 0)
      ::_exit(0); // coordinator is gone (shutdown or killed)
    Decoder.feed(Buf, std::size_t(N));
    for (;;) {
      WireFrame Frame;
      FrameDecoder::Status St = Decoder.next(Frame);
      if (St == FrameDecoder::Status::NeedMore)
        break;
      if (St == FrameDecoder::Status::Corrupt)
        ::_exit(83);
      if (Frame.Type == FrameType::Shutdown)
        ::_exit(0);
      if (Frame.Type != FrameType::Assign)
        ::_exit(82);
      unsigned long long Index = 0;
      unsigned StartAttempt = 1;
      if (std::sscanf(Frame.Payload.c_str(), "%llu %u", &Index,
                      &StartAttempt) != 2)
        ::_exit(82);
      PoolWorkItem Assigned;
      Assigned.Index = std::size_t(Index);
      Assigned.StartAttempt = StartAttempt;
      PoolItemResult R;
      try {
        R = Item(Assigned);
      } catch (...) {
        // Unexpected escape from the item function; the coordinator
        // decodes the nonzero status as a worker crash.
        ::_exit(81);
      }
      if (!writeAll(ResponseFd,
                    encodeFrame(FrameType::Result, R.Payload, R.CorruptFrame)))
        ::_exit(0);
    }
  }
}

bool ProcessPool::spawnWorker(Worker &W) {
  int Req[2];
  int Resp[2];
  if (::pipe(Req) != 0)
    return false;
  if (::pipe(Resp) != 0) {
    ::close(Req[0]);
    ::close(Req[1]);
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Req[0]);
    ::close(Req[1]);
    ::close(Resp[0]);
    ::close(Resp[1]);
    return false;
  }
  if (Pid == 0) {
    // Child. Close every coordinator-side descriptor — the siblings'
    // too, so no worker can keep another's pipe artificially open.
    for (Worker &Other : Workers) {
      if (Other.RequestFd >= 0)
        ::close(Other.RequestFd);
      if (Other.ResponseFd >= 0)
        ::close(Other.ResponseFd);
    }
    ::close(Req[1]);
    ::close(Resp[0]);
    setInWorkerProcess();
    workerMain(Req[0], Resp[1]);
  }
  ::close(Req[0]);
  ::close(Resp[1]);
  W.Pid = Pid;
  W.RequestFd = Req[1];
  W.ResponseFd = Resp[0];
  W.Alive = true;
  W.Busy = false;
  W.RespawnAt = 0;
  W.Decoder.reset();
  return true;
}

void ProcessPool::destroyWorker(Worker &W) {
  if (W.RequestFd >= 0)
    ::close(W.RequestFd);
  if (W.ResponseFd >= 0)
    ::close(W.ResponseFd);
  W.RequestFd = W.ResponseFd = -1;
  if (W.Alive && W.Pid > 0) {
    ::kill(pid_t(W.Pid), SIGKILL);
    int Status = 0;
    reapBlocking(W.Pid, Status);
  }
  W.Alive = false;
  W.Busy = false;
  W.Pid = -1;
}

bool ProcessPool::start() {
  if (Started)
    return true;
  if (!available())
    return false;
  // The coordinator must survive a worker dying mid-write; SIGPIPE's
  // default would kill it. Restored in shutdown().
  PrevSigPipe = std::signal(SIGPIPE, SIG_IGN);
  SigPipeSaved = PrevSigPipe != SIG_ERR;
  Started = true;
  Workers.resize(Opts.Workers);
  unsigned Alive = 0;
  for (Worker &W : Workers)
    if (spawnWorker(W))
      ++Alive;
  if (Alive == 0) {
    shutdown();
    return false;
  }
  return true;
}

std::vector<PoolWorkItem> ProcessPool::run(std::deque<PoolWorkItem> Items,
                                           const ProcessPoolHooks &Hooks) {
  auto Counter = [&](const char *Name) {
    if (Hooks.OnCounter)
      Hooks.OnCounter(Name);
  };
  auto ShouldStop = [&] { return Hooks.ShouldStop && Hooks.ShouldStop(); };

  for (Worker &W : Workers)
    if (W.Alive)
      Counter("worker.spawned");

  // Contains a failed worker: reap + decode the wait status, schedule
  // the respawn backoff, and charge the in-flight item (retry on a
  // fresh worker, or OnExhausted past the attempt limit).
  auto FailWorker = [&](Worker &W, WorkerFailureKind Kind) {
    long Pid = W.Pid;
    if (Kind != WorkerFailureKind::Crash && Pid > 0)
      ::kill(pid_t(Pid), SIGKILL);
    int Status = 0;
    if (Pid > 0)
      reapBlocking(Pid, Status);
    std::string Error;
    switch (Kind) {
    case WorkerFailureKind::Timeout:
      Error = workerTimeoutErrorText();
      break;
    case WorkerFailureKind::Corruption:
      Error = protocolCorruptionErrorText();
      break;
    case WorkerFailureKind::Crash:
      // An unsolicited SIGKILL (OOM killer) lands here too — it is a
      // crash; only the watchdog's own kill reports as a timeout.
      Error = WIFSIGNALED(Status)
                  ? workerSignalErrorText(WTERMSIG(Status))
                  : workerExitErrorText(WIFEXITED(Status)
                                            ? WEXITSTATUS(Status)
                                            : 0);
      break;
    }
    if (W.RequestFd >= 0)
      ::close(W.RequestFd);
    if (W.ResponseFd >= 0)
      ::close(W.ResponseFd);
    W.RequestFd = W.ResponseFd = -1;
    W.Alive = false;
    W.Pid = -1;
    W.Decoder.reset();
    ++W.FailStreak;
    double Backoff =
        Opts.BackoffMillis > 0
            ? Opts.BackoffMillis *
                  double(1u << std::min(W.FailStreak - 1, 6u))
            : 0;
    W.RespawnAt = nowMillis() + Backoff;
    if (!W.Busy) {
      Counter("worker.idle_deaths");
      return;
    }
    W.Busy = false;
    PoolWorkItem It = W.Item;
    unsigned Idx = unsigned(&W - Workers.data());
    if (Hooks.OnFailure)
      Hooks.OnFailure(It.Index, It.StartAttempt, Kind, Error, Idx, Pid);
    Counter(Kind == WorkerFailureKind::Crash     ? "worker.crashes"
            : Kind == WorkerFailureKind::Timeout ? "worker.timeouts"
                                                 : "worker.corrupt_frames");
    if (It.StartAttempt >= Opts.MaxAttempts) {
      Counter("worker.exhausted");
      if (Hooks.OnExhausted)
        Hooks.OnExhausted(It.Index, Opts.MaxAttempts);
    } else {
      Counter("worker.retries");
      Items.push_front({It.Index, It.StartAttempt + 1});
    }
  };

  for (;;) {
    double Now = nowMillis();

    // Respawn due workers (only while there is work to justify them).
    if (!Items.empty() && !ShouldStop())
      for (Worker &W : Workers)
        if (!W.Alive && Now >= W.RespawnAt && spawnWorker(W))
          Counter("worker.respawns");

    // Assign: pull model, one item per free worker. Re-queued failures
    // sit at the front, so a stolen shard is re-dispatched first.
    for (Worker &W : Workers) {
      if (Items.empty() || ShouldStop())
        break;
      if (!W.Alive || W.Busy)
        continue;
      PoolWorkItem It = Items.front();
      std::string Req = formatString("%llu %u", (unsigned long long)It.Index,
                                     It.StartAttempt);
      if (!writeAll(W.RequestFd, encodeFrame(FrameType::Assign, Req))) {
        // Died before seeing the item: no attempt consumed.
        FailWorker(W, WorkerFailureKind::Crash);
        continue;
      }
      Items.pop_front();
      W.Busy = true;
      W.Item = It;
      W.AssignedAt = nowMillis();
      Counter("worker.assignments");
    }

    bool AnyBusy = false;
    bool AnyAlive = false;
    for (const Worker &W : Workers) {
      AnyBusy = AnyBusy || W.Busy;
      AnyAlive = AnyAlive || W.Alive;
    }
    if (!AnyBusy) {
      if (Items.empty())
        break; // drained
      if (ShouldStop())
        break; // leftover goes back to the caller
      if (!AnyAlive) {
        // Everything is dead. Workers whose backoff already elapsed
        // were respawn candidates above; if none came up and no
        // backoff is still pending, forking is refusing outright —
        // give up and let the caller degrade in-process.
        double NextRespawn = -1;
        for (const Worker &W : Workers)
          if (W.RespawnAt > Now &&
              (NextRespawn < 0 || W.RespawnAt < NextRespawn))
            NextRespawn = W.RespawnAt;
        if (NextRespawn < 0)
          break;
        ::poll(nullptr, 0,
               int(std::clamp(NextRespawn - Now, 1.0, 100.0)));
        continue;
      }
    }

    // Wait for results, deaths, watchdog deadlines or respawn times.
    std::vector<pollfd> Fds;
    std::vector<Worker *> FdOwner;
    for (Worker &W : Workers)
      if (W.Alive) {
        Fds.push_back({W.ResponseFd, POLLIN, 0});
        FdOwner.push_back(&W);
      }
    double TimeoutMs = 100; // re-check stop/watchdog at least this often
    if (Opts.DeadlineMillis > 0)
      for (const Worker &W : Workers)
        if (W.Busy)
          TimeoutMs = std::min(
              TimeoutMs, Opts.DeadlineMillis - (Now - W.AssignedAt));
    int Polled = ::poll(Fds.data(), nfds_t(Fds.size()),
                        int(std::clamp(TimeoutMs, 0.0, 100.0)));
    if (Polled > 0) {
      for (std::size_t I = 0; I < Fds.size(); ++I) {
        if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Worker &W = *FdOwner[I];
        if (!W.Alive)
          continue; // recycled earlier in this sweep
        char Buf[65536];
        ssize_t N = ::read(W.ResponseFd, Buf, sizeof Buf);
        if (N < 0) {
          if (errno == EINTR || errno == EAGAIN)
            continue;
          FailWorker(W, WorkerFailureKind::Crash);
          continue;
        }
        if (N == 0) {
          FailWorker(W, WorkerFailureKind::Crash);
          continue;
        }
        W.Decoder.feed(Buf, std::size_t(N));
        for (;;) {
          WireFrame Frame;
          FrameDecoder::Status St = W.Decoder.next(Frame);
          if (St == FrameDecoder::Status::NeedMore)
            break;
          if (St == FrameDecoder::Status::Corrupt) {
            FailWorker(W, WorkerFailureKind::Corruption);
            break;
          }
          if (Frame.Type != FrameType::Result || !W.Busy) {
            // A response we never asked for is protocol corruption.
            FailWorker(W, WorkerFailureKind::Corruption);
            break;
          }
          PoolWorkItem It = W.Item;
          W.Busy = false;
          W.FailStreak = 0;
          Counter("worker.results");
          if (Hooks.OnResult &&
              !Hooks.OnResult(It.Index, It.StartAttempt, Frame.Payload)) {
            // Frame-valid but payload-invalid: same distrust as a CRC
            // failure. Restore the in-flight item so the failure
            // charges it, then recycle.
            W.Busy = true;
            W.Item = It;
            FailWorker(W, WorkerFailureKind::Corruption);
            break;
          }
        }
      }
    }

    // Watchdog sweep.
    if (Opts.DeadlineMillis > 0) {
      double After = nowMillis();
      for (Worker &W : Workers)
        if (W.Alive && W.Busy && After - W.AssignedAt > Opts.DeadlineMillis)
          FailWorker(W, WorkerFailureKind::Timeout);
    }
  }

  return std::vector<PoolWorkItem>(Items.begin(), Items.end());
}

void ProcessPool::shutdown() {
  for (Worker &W : Workers)
    destroyWorker(W);
  Workers.clear();
  if (SigPipeSaved) {
    std::signal(SIGPIPE, PrevSigPipe);
    SigPipeSaved = false;
  }
  Started = false;
}

#else // !IGDT_HAS_FORK

void ProcessPool::workerMain(int, int) { std::abort(); }
bool ProcessPool::spawnWorker(Worker &) { return false; }
void ProcessPool::destroyWorker(Worker &) {}
bool ProcessPool::start() { return false; }

std::vector<PoolWorkItem> ProcessPool::run(std::deque<PoolWorkItem> Items,
                                           const ProcessPoolHooks &) {
  return std::vector<PoolWorkItem>(Items.begin(), Items.end());
}

void ProcessPool::shutdown() {}

#endif // IGDT_HAS_FORK
