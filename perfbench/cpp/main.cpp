//===- perfbench/cpp/main.cpp - The repository benchmark entry point -------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
// Runs one workload of the repository benchmark and prints, as the last
// line of standard output, one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. perfbench/README.md
// describes both. Usage:
//
//   igdt_perfbench --workload catalog|retest|daemon --seed N --seconds S
//                  --trace 0|1 --reference-dir DIR --scratch-dir DIR
//                  [--spans FILE]
//   igdt_perfbench --write-reference --reference-dir DIR --scratch-dir DIR
//
// The process exits 0 when every unit passed its output check, 1 when
// one failed (the result line says so), and 2 on bad arguments or a
// set-up that could not start (no result line).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace igdt;
using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Per-layer metrics, in the order BENCHMARK.json lists them. A workload
/// that does not exercise a layer reports 0 for it.
const MetricSpec LayerMetrics[] = {
    {"evalkit.campaign_ms", "ms"},
    {"evalkit.self_ms", "ms"},
    {"evalkit.store_hits", "count"},
    {"evalkit.store_misses", "count"},
    {"evalkit.store_writes", "count"},
    {"concolic.explore_calls", "count"},
    {"concolic.explore_ms", "ms"},
    {"concolic.iterations", "count"},
    {"concolic.paths", "count"},
    {"concolic.curated_ratio", "ratio"},
    {"solver.queries", "count"},
    {"solver.nodes", "count"},
    {"solver.full_solves", "count"},
    {"solver.prefix_reuse_solves", "count"},
    {"solver.cache_hits", "count"},
    {"solver.unknown", "count"},
    {"solver.sat_ratio", "ratio"},
    {"symbolic.materialize_calls", "count"},
    {"symbolic.materialize_ms", "ms"},
    {"jit.compile_calls", "count"},
    {"jit.code_cache_hits", "count"},
    {"jit.code_cache_hit_ratio", "ratio"},
    {"jit.code_bytes", "bytes"},
    {"jit.compile_ms", "ms"},
    {"sim.runs", "count"},
    {"sim.predecode_builds", "count"},
    {"sim.predecode_hits", "count"},
    {"sim.fuel", "count"},
    {"sim.run_ms", "ms"},
    {"differential.testpath_calls", "count"},
    {"differential.testpath_ms", "ms"},
    {"differential.self_ms", "ms"},
    {"differential.accounted_ratio", "ratio"},
    {"differential.verdict_match", "count"},
    {"differential.verdict_difference", "count"},
    {"differential.verdict_expected_failure", "count"},
    {"differential.verdict_not_replayable", "count"},
    {"differential.heap_resets", "count"},
    {"differential.stack_bytes_reset", "bytes"},
    {"support.record_json_ms", "ms"},
    {"support.record_json_bytes", "bytes"},
    {"service.connections", "count"},
    {"service.subscribe_calls", "count"},
    {"service.events_streamed", "count"},
    {"service.subscribe_ms", "ms"},
    {"service.read_ms.p50", "ms"},
    {"service.write_ms.p50", "ms"},
    {"service.invalidate_ms", "ms"},
    {"service.store_log_bytes", "bytes"},
    {"service.read_drift_ratio", "ratio"},
    {"observe.trace_overhead_ratio", "ratio"},
    {"error_rate", "ratio"},
};

JsonValue metric(double Value, const char *Unit) {
  JsonValue M = JsonValue::object();
  M.set("value", JsonValue::number(Value));
  M.set("unit", JsonValue::string(Unit));
  return M;
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// The traced run's spans: per-name totals with self time, and the raw
/// spans of the first units.
void writeSpans(const std::string &Path, const RunResult &R) {
  JsonValue Totals = JsonValue::object();
  for (const auto &[Name, T] : R.Spans.totals()) {
    JsonValue V = JsonValue::object();
    V.set("count", JsonValue::number(double(T.Count)))
        .set("total_ms", JsonValue::number(double(T.TotalNanos) / 1e6))
        .set("self_ms", JsonValue::number(double(T.SelfNanos) / 1e6));
    Totals.set(Name, std::move(V));
  }
  JsonValue Spans = JsonValue::array();
  for (const Span &S : R.Spans.kept()) {
    JsonValue V = JsonValue::object();
    V.set("name", JsonValue::string(S.Name))
        .set("start_ns", JsonValue::number(double(S.Start)))
        .set("end_ns", JsonValue::number(double(S.End)))
        .set("parent", JsonValue::number(S.Parent))
        .set("unit", JsonValue::number(double(S.Unit)));
    Spans.push(std::move(V));
  }
  JsonValue Out = JsonValue::object();
  Out.set("units", JsonValue::number(double(R.Spans.units())))
      .set("totals", std::move(Totals))
      .set("spans", std::move(Spans));
  std::ofstream(Path) << Out.dump() << '\n';
}

std::int64_t steadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set-ups per run; setup_s is their median.
constexpr unsigned ColdSetups = 11;

/// Runs the workload's set-up in \p Count fresh processes, one after
/// another, and returns each one's time from fork until its first unit
/// could start.
bool coldSetups(const RunOptions &Opts, unsigned Count,
                std::vector<double> &Seconds, std::string &Error) {
  for (unsigned I = 0; I < Count; ++I) {
    int Pipe[2];
    if (pipe(Pipe) != 0) {
      Error = "pipe failed";
      return false;
    }
    std::string Started = std::to_string(steadyNanos());
    pid_t Pid = fork();
    if (Pid == 0) {
      dup2(Pipe[1], STDOUT_FILENO);
      close(Pipe[0]);
      close(Pipe[1]);
      std::string Seed = std::to_string(Opts.Seed);
      std::string Scratch = Opts.ScratchDir + "/setup";
      execl("/proc/self/exe", "igdt_perfbench", "--setup-only", "--started-ns",
            Started.c_str(), "--workload", Opts.Workload.c_str(), "--seed",
            Seed.c_str(), "--reference-dir", Opts.ReferenceDir.c_str(),
            "--scratch-dir", Scratch.c_str(), (char *)nullptr);
      _exit(127);
    }
    close(Pipe[1]);
    std::string Out;
    char Buf[256];
    for (ssize_t N; (N = read(Pipe[0], Buf, sizeof(Buf))) > 0;)
      Out.append(Buf, std::size_t(N));
    close(Pipe[0]);
    int Status = 0;
    if (Pid < 0 || waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0 || Out.rfind("setup_s ", 0) != 0) {
      Error = "cold set-up failed: " + Out;
      return false;
    }
    Seconds.push_back(std::atof(Out.c_str() + 8));
  }
  return true;
}

int usage(const char *Why) {
  std::fprintf(stderr, "igdt_perfbench: %s\n", Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // One malloc arena for every thread. With glibc's default, whether the
  // daemon's connection threads get an arena of their own depends on
  // thread timing, and that alone moved peak RSS by a third between
  // runs of the same daemon workload.
  mallopt(M_ARENA_MAX, 1);
  // Every thread on the CPU the benchmark starts on (the set-up probes
  // inherit it). A daemon request hands off across four threads; when
  // each hand-off could wake another, idle CPU, the daemon's p90 spread
  // over ten runs was 42%, and it was about 10% pinned.
  cpu_set_t Cpu;
  CPU_ZERO(&Cpu);
  CPU_SET(sched_getcpu(), &Cpu);
  sched_setaffinity(0, sizeof(Cpu), &Cpu);
  RunOptions Opts;
  bool WriteRef = false;
  std::string SpansPath;
  std::int64_t StartedNanos = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    if (Arg == "--workload")
      Opts.Workload = Value();
    else if (Arg == "--seed")
      Opts.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Opts.Seconds = std::atof(Value().c_str());
    else if (Arg == "--trace")
      Opts.Trace = Value() == "1";
    else if (Arg == "--reference-dir")
      Opts.ReferenceDir = Value();
    else if (Arg == "--scratch-dir")
      Opts.ScratchDir = Value();
    else if (Arg == "--spans")
      SpansPath = Value();
    else if (Arg == "--write-reference")
      WriteRef = true;
    else if (Arg == "--setup-only")
      Opts.SetupOnly = true;
    else if (Arg == "--started-ns")
      StartedNanos = std::strtoll(Value().c_str(), nullptr, 10);
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (Opts.ReferenceDir.empty() || Opts.ScratchDir.empty())
    return usage("--reference-dir and --scratch-dir are required");
  std::filesystem::create_directories(Opts.ScratchDir);

  if (WriteRef) {
    std::string Error;
    if (!writeReference(Opts, Error))
      return usage(Error.c_str());
    std::printf("reference written to %s\n", Opts.ReferenceDir.c_str());
    return 0;
  }

  RunResult R;
  if (Opts.SetupOnly) {
    // Output checks of the set-up are the parent's business: it repeats
    // the same set-up and counts them there.
    if (!runWorkload(Opts, R))
      return usage(R.Errors.empty() ? "set-up failed"
                                    : R.Errors.front().c_str());
    std::int64_t Ready = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             R.SetupDone.time_since_epoch())
                             .count();
    std::printf("setup_s %.9f\n", double(Ready - StartedNanos) / 1e9);
    return 0;
  }
  std::vector<double> SetupSeconds;
  std::string SetupError;
  if (!coldSetups(Opts, ColdSetups, SetupSeconds, SetupError))
    return usage(SetupError.c_str());
  if (!runWorkload(Opts, R))
    return usage(R.Errors.empty() ? "run failed" : R.Errors.front().c_str());

  const std::vector<double> &Units = R.UnitMillis;
  double TotalMs = 0;
  for (double Ms : Units)
    TotalMs += Ms;
  double P50 = percentile(Units, 0.5);

  JsonValue Metrics = JsonValue::object();
  if (!Opts.Trace) {
    Metrics.set("setup_s", metric(percentile(SetupSeconds, 0.5), "s"))
        .set("unit_ms.p50", metric(P50, "ms"))
        .set("unit_ms.p90", metric(percentile(Units, 0.9), "ms"))
        .set("instructions_per_s",
             metric(R.RecordsPerUnit * double(Units.size()) / (TotalMs / 1000),
                    "1/s"))
        .set("peak_rss_mb", metric(peakRssMb(), "MB"));
  } else {
    R.Layer["observe.trace_overhead_ratio"] =
        percentile(R.TracedUnitMillis, 0.5) / P50;
    R.Layer["error_rate"] = double(R.Failed) / double(R.Attempted);
    double Hits = R.Layer["jit.code_cache_hits"];
    double Compiles = R.Layer["jit.compile_calls"];
    R.Layer["jit.code_cache_hit_ratio"] =
        Hits + Compiles > 0 ? Hits / (Hits + Compiles) : 0;
    for (const MetricSpec &M : LayerMetrics)
      Metrics.set(M.Name, metric(R.Layer[M.Name], M.Unit));
    if (!SpansPath.empty())
      writeSpans(SpansPath, R);
  }

  // The sample counts, work counts and notes, beside the result.
  JsonValue Info = JsonValue::object();
  Info.set("workload", JsonValue::string(Opts.Workload))
      .set("units", JsonValue::number(double(Units.size())))
      .set("traced_units", JsonValue::number(double(R.TracedUnitMillis.size())))
      .set("p90_samples_beyond",
           JsonValue::number(double(samplesBeyond(Units.size(), 0.9))))
      .set("setups", JsonValue::number(double(SetupSeconds.size())));
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  Info.set("minor_faults", JsonValue::number(double(Usage.ru_minflt)))
      .set("involuntary_switches", JsonValue::number(double(Usage.ru_nivcsw)));
  JsonValue Deciles = JsonValue::array();
  for (int D = 1; D <= 10; ++D)
    Deciles.push(JsonValue::number(percentile(Units, D / 10.0)));
  Info.set("unit_ms_deciles", std::move(Deciles));
  JsonValue Setups = JsonValue::array();
  for (double S : SetupSeconds)
    Setups.push(JsonValue::number(S));
  Info.set("setup_s_each", std::move(Setups));
  JsonValue Work = JsonValue::object();
  for (const auto &[Key, N] : R.Work)
    Work.set(Key, JsonValue::number(double(N)));
  Info.set("work", std::move(Work));
  for (const auto &[Key, V] : R.Notes)
    Info.set(Key, JsonValue::number(V));
  JsonValue Errors = JsonValue::array();
  for (const std::string &E : R.Errors)
    Errors.push(JsonValue::string(E));
  Info.set("errors", std::move(Errors));
  std::printf("perfbench: %s\n", Info.dump().c_str());

  bool Correct = R.Failed == 0 && tailSupported(Units.size(), 0.9);
  JsonValue Result = JsonValue::object();
  Result.set("correct", JsonValue::boolean(Correct))
      .set("attempted", JsonValue::number(double(R.Attempted)))
      .set("failed", JsonValue::number(double(R.Failed)))
      .set("metrics", std::move(Metrics));
  std::printf("%s\n", Result.dump().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
