//===- perfbench/cpp/Workloads.h - The benchmark's three workloads ---------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three closed-loop workloads, each with one client, against the
/// public APIs: `catalog` (cold full-catalog campaigns through Session),
/// `retest` (re-testing every explored path through DifferentialTester)
/// and `daemon` (request round trips through Daemon/ServiceClient).
/// perfbench/README.md describes what each one stresses.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "BenchCore.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding catalog_records.txt and expected.json.
  std::string ReferenceDir;
  /// Scratch directory for this run (the daemon's socket, store and
  /// checkpoints); perfbench/run.py removes it after the run.
  std::string ScratchDir;
  /// Stop after set-up (the cold set-up probes main() starts).
  bool SetupOnly = false;
};

/// Everything one run measured.
struct RunResult {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// The first few failure messages.
  std::vector<std::string> Errors;

  /// When set-up ended and the first unit could start.
  std::chrono::steady_clock::time_point SetupDone;
  /// Wall time of every timed unit, untraced.
  std::vector<double> UnitMillis;
  /// Wall time of every timed unit with the benchmark's spans on
  /// (traced runs only).
  std::vector<double> TracedUnitMillis;
  /// Instruction records each unit delivers.
  double RecordsPerUnit = 0;

  /// Deterministic work per unit, checked against expected.json.
  WorkCounts Work;
  /// Per-layer metrics (traced runs), by name.
  std::map<std::string, double> Layer;
  /// Notes printed beside the result (store drift, set-up choice).
  std::map<std::string, double> Notes;
  SpanRecorder Spans;

  /// Counts one attempted unit; \p Error non-empty marks it failed.
  void unit(const std::string &Error);
};

/// Runs \p Opts.Workload; false for an unknown workload or a set-up
/// that could not start (with \p Result.Errors saying why).
bool runWorkload(const RunOptions &Opts, RunResult &Result);

/// Regenerates the pinned reference files in \p Opts.ReferenceDir from
/// a cold catalog campaign and a re-test pass, then pins the work
/// counts of a short run of every workload.
bool writeReference(const RunOptions &Opts, std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
