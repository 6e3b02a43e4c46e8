//===- observe/Profile.h - End-of-run --profile report ---------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--profile` end-of-run report: per-stage wall time, the top-N
/// most expensive instructions, solver-cache effectiveness, and the
/// merged metrics registry. Rendered via TablePrinter for terminals and
/// serialised into BENCH_campaign.json for CI. Built from a
/// CampaignSummary by evalkit's buildCampaignProfile (this header stays
/// free of evalkit types to keep the library graph acyclic).
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_OBSERVE_PROFILE_H
#define IGDT_OBSERVE_PROFILE_H

#include "observe/MetricsRegistry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace igdt {

struct JsonValue;

/// Aggregated end-of-run profile.
struct ProfileReport {
  /// One pipeline stage ("explore", "test:SimpleStack", ...).
  struct Stage {
    std::string Name;
    double TotalMillis = 0;
    std::uint64_t Count = 0;
  };

  /// One expensive instruction for the top-N table.
  struct Item {
    std::string Name;
    double Millis = 0;
  };

  std::vector<Stage> Stages;
  std::vector<Item> TopInstructions;

  /// Solver-cache effectiveness (whole-process totals).
  std::uint64_t SolverQueries = 0;
  std::uint64_t CacheHits = 0;
  std::uint64_t CacheMisses = 0;

  /// Compile-once effectiveness: front-end runs issued vs replays
  /// served from the code cache.
  std::uint64_t JitCompiles = 0;
  std::uint64_t JitCodeCacheHits = 0;

  /// Content-addressed store activity (the "Verdict store" table; only
  /// rendered when HasStore — a campaign with an active store emits it
  /// even when fully served, so warm zero-work runs still produce
  /// comparable profiles). Stage times and the solver totals above come
  /// from the served records (the cold run's cost figures);
  /// LiveSolverQueries is the solver work this run actually performed.
  bool HasStore = false;
  std::uint64_t StoreServed = 0;
  std::uint64_t StoreHits = 0;
  std::uint64_t StoreMisses = 0;
  std::uint64_t StoreStores = 0;
  std::uint64_t LiveSolverQueries = 0;

  /// Adaptive-scheduling activity (the "Scheduling" table; only
  /// rendered when HasSchedule — fixed-order campaigns skip it). Flat
  /// uint64 mirrors of evalkit's ScheduleStats, to keep this header
  /// free of evalkit types.
  bool HasSchedule = false;
  std::uint64_t ScheduleWaves = 0;
  std::uint64_t ScheduleTierEscalations = 0;
  std::uint64_t ScheduleEarlyExits = 0;
  std::uint64_t SchedulePoolRefunds = 0;
  std::uint64_t SchedulePoolRefundUnits = 0;
  std::uint64_t SchedulePoolGrants = 0;
  std::uint64_t SchedulePoolGrantUnits = 0;
  std::uint64_t SchedulePriorityInversions = 0;
  std::uint64_t ScheduleWarmStartEntries = 0;
  std::uint64_t ScheduleDiscardedRuns = 0;
  std::uint64_t ScheduleDiscardedUnits = 0;

  /// The merged campaign metrics (counters + histograms).
  MetricsRegistry Metrics;

  /// Hit fraction over all lookups; 0 when no lookups happened.
  double cacheHitRate() const;

  /// Fraction of compile requests served from the code cache.
  double codeCacheHitRate() const;

  /// Fraction of store lookups that served a record; 0 without lookups.
  double storeHitRate() const;

  /// Aligned tables: stages, top instructions, cache, metrics.
  std::string render() const;

  /// JSON for embedding into BENCH_campaign.json.
  JsonValue toJson() const;
};

} // namespace igdt

#endif // IGDT_OBSERVE_PROFILE_H
