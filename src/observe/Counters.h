//===- observe/Counters.h - Declared counter tables ------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarations of the metrics model. Each stats struct the pipeline
/// keeps (SolverStats, JitCacheStats, SimStats, ReplayStats) carries a
/// `Counters` table that declares every member once: its registry name,
/// the member and its determinism class. Everything else is derived
/// from the table: `addCounters` sums two structs, MetricsRegistry::fold
/// publishes one, and the campaign record serialises the deterministic
/// solver counters. A `static_assert(declaresEveryMember<S>())` beside
/// each struct fails the build when a member has no row, so adding a
/// counter is one line that cannot be forgotten.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_OBSERVE_COUNTERS_H
#define IGDT_OBSERVE_COUNTERS_H

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace igdt {

/// How far a counter's value can be trusted to repeat.
enum class MetricClass : std::uint8_t {
  /// A function of the campaign's inputs: the same at any Jobs value and
  /// under every harness toggle (code cache, replay arena, engine).
  Deterministic,
  /// The same at any Jobs value, but it says how the harness ran, so the
  /// code-cache, replay-arena and engine settings move it.
  ConfigDependent,
  /// Can differ between two runs of one command: it depends on which
  /// worker ran what (shared solver index, per-worker replay arenas) or
  /// on a clock.
  SchedulingDependent,
};

/// Stable lowercase name of \p Class.
inline const char *metricClassName(MetricClass Class) {
  switch (Class) {
  case MetricClass::Deterministic:
    return "deterministic";
  case MetricClass::ConfigDependent:
    return "config-dependent";
  case MetricClass::SchedulingDependent:
    return "scheduling-dependent";
  }
  return "unknown";
}

/// One row of a stats struct's counter table.
template <typename Stats> struct Counter {
  /// Registry name; null for a member kept in process only (summed by
  /// addCounters, never published).
  const char *Name;
  std::uint64_t Stats::*Member;
  MetricClass Class;
};

/// True when `Stats::Counters` declares every member of \p Stats exactly
/// once (every member is a std::uint64_t counter).
template <typename Stats> constexpr bool declaresEveryMember() {
  constexpr std::size_t N = std::size(Stats::Counters);
  if (sizeof(Stats) != N * sizeof(std::uint64_t))
    return false;
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < I; ++J)
      if (Stats::Counters[I].Member == Stats::Counters[J].Member)
        return false;
  return true;
}

/// Adds every counter of \p From into \p To.
template <typename Stats> void addCounters(Stats &To, const Stats &From) {
  for (const Counter<Stats> &C : Stats::Counters)
    To.*C.Member += From.*C.Member;
}

} // namespace igdt

#endif // IGDT_OBSERVE_COUNTERS_H
