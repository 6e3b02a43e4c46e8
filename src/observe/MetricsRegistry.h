//===- observe/MetricsRegistry.h - Named counters with their class ---------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process registry of named counters, each with its MetricClass.
/// Every count is published from one source:
///
///  - the stats structs (SolverStats, JitCacheStats, SimStats,
///    ReplayStats) fold in through `fold`, which reads their declared
///    counter tables (observe/Counters.h);
///  - MetricsSink derives the counts no table carries (verdicts, exits,
///    fuel, code bytes, containment, paths, ladder) from trace events;
///  - the campaign and the daemon add their own `campaign.*`, `store.*`
///    and `service.*` counters directly.
///
/// Names are kept in a sorted map so renderings and JSON dumps are
/// deterministic. Not thread-safe: campaign workers never touch a
/// registry; the merge thread fills one per campaign.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_OBSERVE_METRICSREGISTRY_H
#define IGDT_OBSERVE_METRICSREGISTRY_H

#include "observe/Counters.h"
#include "observe/TraceBus.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace igdt {

struct JsonValue;

/// Sorted-name registry of classed counters.
class MetricsRegistry {
public:
  struct Entry {
    std::uint64_t Value = 0;
    MetricClass Class = MetricClass::Deterministic;
  };

  /// Adds \p Delta to the named counter, creating it at zero with
  /// \p Class.
  void add(std::string_view Name, std::uint64_t Delta = 1,
           MetricClass Class = MetricClass::Deterministic);

  /// Adds every published counter of \p S under its declared name and
  /// class.
  template <typename Stats> void fold(const Stats &S) {
    for (const Counter<Stats> &C : Stats::Counters)
      if (C.Name)
        add(C.Name, S.*C.Member, C.Class);
  }

  /// Current value of a counter; 0 when absent.
  std::uint64_t counter(std::string_view Name) const;

  const std::map<std::string, Entry, std::less<>> &counters() const {
    return Counters;
  }

  /// Adds every counter of \p Other into this registry.
  void merge(const MetricsRegistry &Other);

  bool empty() const { return Counters.empty(); }

  /// Renders one aligned table per class, the scheduling-dependent one
  /// last.
  std::string render() const;

  /// {"deterministic": {...}, "config-dependent": {...},
  ///  "scheduling-dependent": {...}}, each a name-to-value object.
  JsonValue toJson() const;

private:
  std::map<std::string, Entry, std::less<>> Counters;
};

/// Folds trace events into a registry: the counts no stats table
/// carries ("verdict.*", "sim.exit.*", "sim.fuel", "compile.bytes",
/// "compile.<compiler>", "containment.*", "paths.explored",
/// "paths.curated", "ladder.retries", "ladder.rescues"), all
/// deterministic. The campaign merge thread runs one of these over the
/// merged stream; Session runs one over the events of its own verbs.
class MetricsSink final : public TraceSink {
public:
  explicit MetricsSink(MetricsRegistry &Registry) : Registry(Registry) {}

  void emit(TraceEvent Event) override;

private:
  MetricsRegistry &Registry;
};

} // namespace igdt

#endif // IGDT_OBSERVE_METRICSREGISTRY_H
