//===- observe/Profile.h - End-of-run --profile report ---------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--profile` end-of-run report: per-stage wall time, the top-N
/// most expensive instructions and the merged metrics registry (one
/// table per counter class). Rendered via TablePrinter for terminals and
/// serialised to JSON for daemon clients. Built from a
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

  /// The merged campaign metrics. Store-served records count like fresh
  /// ones, so a warm run's stage and solver figures are the cold run's;
  /// "store.live_solver_queries" says what this run paid.
  MetricsRegistry Metrics;

  /// Aligned tables: stages, top instructions, metrics.
  std::string render() const;

  /// The report as one JSON object (the daemon's --want-profile reply).
  JsonValue toJson() const;
};

} // namespace igdt

#endif // IGDT_OBSERVE_PROFILE_H
