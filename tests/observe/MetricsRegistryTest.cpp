//===- tests/observe/MetricsRegistryTest.cpp -----------------------------------===//
//
// The metrics model's contracts: a stats struct's counter table drives
// its sum and its publication, and every counter's declared class holds
// on the shipped catalog. A counter not classed scheduling-dependent
// reads the same at Jobs 1 and Jobs 4, and the full catalog's Jobs 1
// values of the deterministic and config-dependent counters are pinned
// by name.
//
//===----------------------------------------------------------------------===//

#include "observe/MetricsRegistry.h"

#include "api/Requests.h"
#include "api/Session.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

using namespace igdt;

namespace {

TEST(MetricsRegistryTest, TablesDriveTheSumAndThePublication) {
  SolverStats A;
  A.Queries = 2;
  A.CacheHits = 1;
  A.FullSolves = 2;
  SolverStats B = A;
  B.add(A);
  EXPECT_EQ(B.Queries, 4u);
  EXPECT_EQ(B.CacheHits, 2u);
  // In-process counters are summed but never published.
  EXPECT_EQ(B.FullSolves, 4u);

  MetricsRegistry Registry;
  Registry.fold(B);
  EXPECT_EQ(Registry.counter("solver.queries"), 4u);
  EXPECT_EQ(Registry.counters().at("solver.queries").Class,
            MetricClass::Deterministic);
  EXPECT_EQ(Registry.counters().at("solver.cache.hits").Class,
            MetricClass::SchedulingDependent);
  for (const auto &[Name, E] : Registry.counters())
    EXPECT_EQ(Name.rfind("solver.", 0), 0u) << Name;
  EXPECT_EQ(Registry.counters().size(),
            std::size(SolverStats::Counters) - 2);

  // The JSON groups counters by class.
  std::string Json = Registry.toJson().dump();
  EXPECT_NE(Json.find("\"scheduling-dependent\":{\"solver.cache.hits\":2"),
            std::string::npos)
      << Json;
}

/// The shipped catalog as a --deterministic campaign with metrics
/// collected, at \p Jobs; \p MaxNativeMethods 0 keeps every native method.
CampaignSummary catalogCampaign(unsigned Jobs, unsigned MaxNativeMethods = 0) {
  CampaignRequest Request;
  Request.Jobs = Jobs;
  Request.MaxNativeMethods = MaxNativeMethods;
  Request.Deterministic = true;
  SessionConfig Config = Request.toSessionConfig();
  Config.Campaign.CollectMetrics = true;
  return Session(Config).runCampaign();
}

const CampaignSummary &serialCatalog() {
  static const CampaignSummary Summary = catalogCampaign(1);
  return Summary;
}

TEST(MetricsRegistryTest, CountersKeepTheirClassAcrossJobs) {
  // Each worker keeps its own replay arena, and the last rollback of each
  // arena never happens. Native-method runs allocate heap but never write
  // the simulator stack, and they come last in the catalog: on the full
  // catalog the heap rollback counters move at Jobs 4, the stack one
  // almost never. With one native method only, every worker but one ends
  // on a byte code whose stack bytes no later run re-zeroes, so the stack
  // counter moves too. Both campaigns together catch a wrong class for
  // any of them on every run.
  for (unsigned MaxNativeMethods : {0u, 1u}) {
    SCOPED_TRACE("MaxNativeMethods " + std::to_string(MaxNativeMethods));
    CampaignSummary Serial = MaxNativeMethods
                                 ? catalogCampaign(1, MaxNativeMethods)
                                 : serialCatalog();
    CampaignSummary Parallel = catalogCampaign(4, MaxNativeMethods);
    const auto &P = Parallel.Metrics.counters();
    ASSERT_FALSE(Serial.Metrics.empty());
    for (const auto &[Name, E] : Serial.Metrics.counters()) {
      auto It = P.find(Name);
      ASSERT_NE(It, P.end()) << Name << " is missing at Jobs 4";
      EXPECT_EQ(It->second.Class, E.Class) << Name;
      if (E.Class != MetricClass::SchedulingDependent) {
        EXPECT_EQ(It->second.Value, E.Value)
            << Name << " is classed " << metricClassName(E.Class)
            << " but moved between Jobs 1 and Jobs 4";
      }
    }
    EXPECT_EQ(P.size(), Serial.Metrics.counters().size());
  }
}

TEST(MetricsRegistryTest, FullCatalogCountersAreExact) {
  // Every deterministic and config-dependent counter of the Jobs 1
  // campaign, by name and value. A change here is a real change in
  // exploration or replay work, or a counter added, renamed or
  // reclassed.
  const std::map<std::string, std::uint64_t> Deterministic = {
      {"campaign.incidents", 0},
      {"campaign.instructions", 187},
      {"campaign.quarantined", 0},
      {"campaign.resumed", 0},
      {"compile.Linear-Scan Allocator BC Compiler", 468},
      {"compile.Native Methods (primitives)", 618},
      {"compile.Simple Stack BC Compiler", 468},
      {"compile.Stack-to-Register BC Compiler", 468},
      {"compile.bytes", 27641},
      {"ladder.retries", 6},
      {"paths.curated", 710},
      {"paths.explored", 710},
      {"sim.exit.breakpoint", 1136},
      {"sim.exit.returned", 170},
      {"sim.exit.segfault", 24},
      {"sim.exit.simulation-error", 2},
      {"sim.exit.trampoline-call", 690},
      {"sim.fuel", 17471},
      {"sim.runs", 2022},
      {"solver.budget_stops", 0},
      {"solver.cases", 548},
      {"solver.nodes", 1226},
      {"solver.queries", 548},
      {"solver.sat", 523},
      {"solver.unknown", 9},
      {"solver.unsat", 16},
      {"verdict.difference", 234},
      {"verdict.expected-failure", 722},
      {"verdict.match", 1788},
  };
  const std::map<std::string, std::uint64_t> ConfigDependent = {
      {"jit.code_cache.hits", 616},
      {"jit.compiles", 1406},
      {"replay.heap.acquires", 2022},
      {"replay.heap.bytes_rebuilt", 0},
      {"replay.heap.fresh_builds", 0},
      {"sim.native.builds", 0},
      {"sim.native.fallbacks", 0},
      {"sim.native.hits", 0},
      {"sim.predecode.builds", 1406},
      {"sim.predecode.hits", 2022},
      {"sim.runs.native", 0},
      {"sim.runs.predecoded", 2022},
      {"sim.runs.reference", 0},
  };
  // The scheduling-dependent counters, by name only.
  const std::set<std::string> SchedulingDependent = {
      "replay.heap.bytes_reset", "replay.heap.resets",
      "replay.stack.bytes_reset", "replay.undo_stores",
      "sim.run.nanos",           "solver.cache.hits",
      "solver.cache.misses"};
  std::map<std::string, std::uint64_t> ActualDeterministic, ActualConfig;
  std::set<std::string> ActualScheduling;
  for (const auto &[Name, E] : serialCatalog().Metrics.counters()) {
    if (E.Class == MetricClass::Deterministic)
      ActualDeterministic[Name] = E.Value;
    else if (E.Class == MetricClass::ConfigDependent)
      ActualConfig[Name] = E.Value;
    else
      ActualScheduling.insert(Name);
  }
  EXPECT_EQ(ActualDeterministic, Deterministic);
  EXPECT_EQ(ActualConfig, ConfigDependent);
  EXPECT_EQ(ActualScheduling, SchedulingDependent);
}

} // namespace
