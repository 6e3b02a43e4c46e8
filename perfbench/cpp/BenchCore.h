//===- perfbench/cpp/BenchCore.h - Benchmark statistics and spans ----------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the repository benchmark that do not touch IGDT itself,
/// kept apart so they can be tested on their own:
///
///  - the percentile rule (nearest rank, and whether a tail percentile
///    has at least ten samples beyond it);
///  - the span recorder used by traced runs, and span self time;
///  - the seeded generators (a portable permutation and the daemon
///    read/write mix);
///  - work-count comparison.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHCORE_H
#define PERFBENCH_BENCHCORE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// \name Percentiles
/// @{

/// Nearest-rank percentile of \p Samples (any order) for \p Q in (0, 1]:
/// the smallest sample with at least Q*N samples at or below it. Zero
/// for an empty set.
double percentile(std::vector<double> Samples, double Q);

/// Samples strictly above the nearest-rank \p Q percentile of \p N
/// samples.
std::size_t samplesBeyond(std::size_t N, double Q);

/// True when the \p Q percentile of \p N samples has at least ten
/// samples beyond it, the rule for reporting a tail percentile.
bool tailSupported(std::size_t N, double Q);

/// Fewest samples for which \p Q is a supported tail percentile.
std::size_t minSamplesFor(double Q);

/// @}

/// \name Spans
/// @{

/// One traced interval. Times are nanoseconds on the steady clock,
/// relative to the recorder's epoch.
struct Span {
  std::string Name;
  std::int64_t Start = 0;
  std::int64_t End = 0;
  /// Index of the enclosing span in the same vector, or -1.
  int Parent = -1;
  /// Benchmark unit the span belongs to.
  std::uint64_t Unit = 0;
};

/// Self time of every span in \p Spans: its duration minus the part of
/// that interval covered by its direct children (overlapping children
/// are counted once, and a child is clipped to its parent).
std::vector<std::int64_t> selfTimes(const std::vector<Span> &Spans);

/// Per-name totals over many spans.
struct SpanTotals {
  std::uint64_t Count = 0;
  std::int64_t TotalNanos = 0;
  std::int64_t SelfNanos = 0;
};

/// Records nested spans for one unit at a time, keeps them in memory,
/// and folds each finished unit into per-name totals. The raw spans of
/// the first KeepUnits units are kept for the span file written at exit.
class SpanRecorder {
public:
  explicit SpanRecorder(unsigned KeepUnits = 2) : KeepUnits(KeepUnits) {}

  /// Opens a span under the innermost open one; returns its handle.
  int begin(const std::string &Name);
  /// Closes the span \p Handle (and, defensively, any left open inside).
  void end(int Handle);
  /// Ends the current unit: folds its spans into the totals.
  void endUnit();

  const std::map<std::string, SpanTotals> &totals() const { return Totals; }
  const std::vector<Span> &kept() const { return Kept; }
  std::uint64_t units() const { return Unit; }

  /// Nanoseconds since the recorder's epoch.
  std::int64_t now() const;

private:
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  unsigned KeepUnits;
  std::uint64_t Unit = 0;
  std::vector<Span> Current;
  std::vector<int> Open;
  std::map<std::string, SpanTotals> Totals;
  std::vector<Span> Kept;
};

/// RAII span; a null recorder makes it free (untraced runs).
class SpanScope {
public:
  SpanScope(SpanRecorder *Recorder, const std::string &Name)
      : Recorder(Recorder), Handle(Recorder ? Recorder->begin(Name) : -1) {}
  ~SpanScope() {
    if (Recorder)
      Recorder->end(Handle);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanRecorder *Recorder;
  int Handle;
};

/// @}

/// \name Seeded generators
/// @{

/// splitmix64: a tiny portable generator, so a seed yields the same
/// inputs with every standard library.
class SeededRng {
public:
  explicit SeededRng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next();
  /// Uniform in [0, Bound); Bound > 0.
  std::uint64_t below(std::uint64_t Bound);

private:
  std::uint64_t State;
};

/// A seeded permutation of 0..N-1 (Fisher-Yates).
std::vector<std::size_t> seededPermutation(std::size_t N, std::uint64_t Seed);

/// One daemon operation: a warm read, or an invalidate-and-resubmit
/// write of instruction \p Target (an index into the catalog).
struct DaemonOp {
  bool Write = false;
  std::size_t Target = 0;
};

/// One round of the daemon workload's mix: every instruction written
/// exactly once, in a seeded order, and \p ReadsPerWrite reads per write,
/// the writes at seeded positions among the reads.
std::vector<DaemonOp> daemonMix(std::uint64_t Seed, std::size_t NumInstructions,
                                unsigned ReadsPerWrite);

/// @}

/// \name Work counts
/// @{

using WorkCounts = std::map<std::string, std::uint64_t>;

/// Human-readable differences between \p Expected and \p Actual over
/// the keys of \p Expected (empty when they agree).
std::string diffCounts(const WorkCounts &Expected, const WorkCounts &Actual);

/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCHCORE_H
