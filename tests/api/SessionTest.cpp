//===- tests/api/SessionTest.cpp -----------------------------------------------===//
//
// Session façade contracts: the three verbs reproduce what the layered
// entry points produce, observability flows into the session registry
// and trace file, and the profile report materialises after a campaign.
//
//===----------------------------------------------------------------------===//

#include "api/Session.h"

#include "faults/DefectCatalog.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <stdexcept>

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_session_" + Name;
  std::remove(Path.c_str());
  return Path;
}

SessionConfig cleanConfig() {
  SessionConfig Config;
  Config.harness().VM = cleanVMConfig();
  Config.harness().Cogit = cleanCogitOptions();
  Config.harness().SeedSimulationErrors = false;
  return Config;
}

TEST(SessionTest, ExploreMatchesTheLayeredExplorerAndFeedsMetrics) {
  Session S(cleanConfig());
  ExplorationResult Paths = S.explore("bytecodePrim_add");

  // Same exploration the layered API produces from the same options.
  ConcolicExplorer Explorer(S.config().vm(), S.config().explorer());
  ExplorationResult Direct =
      Explorer.explore(*findInstruction("bytecodePrim_add"));
  EXPECT_EQ(Paths.Paths.size(), Direct.Paths.size());
  EXPECT_EQ(Paths.Iterations, Direct.Iterations);
  EXPECT_EQ(Paths.Solver.Queries, Direct.Solver.Queries);

  // The verb fed the session registry: solver counters and events.
  EXPECT_EQ(S.metrics().counter("solver.queries"), Paths.Solver.Queries);
  EXPECT_EQ(S.metrics().counter("paths.explored"), Paths.Paths.size());

  EXPECT_THROW(S.explore("noSuchInstruction"), std::invalid_argument);
}

TEST(SessionTest, TestPathMatchesTheLayeredTesterAndCountsVerdicts) {
  Session S(cleanConfig());
  ExplorationResult Paths = S.explore("bytecodePrim_add");
  ASSERT_FALSE(Paths.Paths.empty());

  DifferentialTester Direct(
      S.diffConfig(CompilerKind::StackToRegister, /*Arm=*/false));
  for (std::size_t I = 0; I < Paths.Paths.size(); ++I) {
    PathTestOutcome A = S.testPath(Paths, I, CompilerKind::StackToRegister);
    PathTestOutcome B = Direct.testPath(Paths, I);
    EXPECT_EQ(A.Status, B.Status) << "path " << I;
    EXPECT_EQ(A.CauseKey, B.CauseKey) << "path " << I;
  }
  std::uint64_t Verdicts = 0;
  for (const auto &[Name, E] : S.metrics().counters())
    if (Name.rfind("verdict.", 0) == 0)
      Verdicts += E.Value;
  EXPECT_EQ(Verdicts, Paths.Paths.size());
}

TEST(SessionTest, RunCampaignMatchesTheRunnerAndBuildsTheProfile) {
  SessionConfig Config = cleanConfig();
  Config.Campaign.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                                      "primitiveAdd"};
  Config.Profile = true;
  Session S(Config);
  CampaignSummary Summary = S.runCampaign();

  CampaignSummary Direct = CampaignRunner(Config.Campaign).run();
  ASSERT_EQ(Summary.Rows.size(), Direct.Rows.size());
  for (std::size_t I = 0; I < Summary.Rows.size(); ++I) {
    EXPECT_EQ(Summary.Rows[I].InterpreterPaths, Direct.Rows[I].InterpreterPaths);
    EXPECT_EQ(Summary.Rows[I].DifferingPaths, Direct.Rows[I].DifferingPaths);
  }

  // Profile materialised: explore stage + one test stage per compiler,
  // top instructions bounded, metrics merged into the session.
  const ProfileReport *Report = S.profile();
  ASSERT_NE(Report, nullptr);
  ASSERT_EQ(Report->Stages.size(), 5u);
  EXPECT_EQ(Report->Stages[0].Name, "explore");
  EXPECT_EQ(Report->Stages[0].Count, 3u);
  EXPECT_LE(Report->TopInstructions.size(), Config.TopInstructions);
  EXPECT_EQ(Report->Metrics.counter("solver.queries"), Summary.Solver.Queries);
  EXPECT_EQ(S.metrics().counter("campaign.instructions"), 3u);
  EXPECT_FALSE(Report->render().empty());
}

TEST(SessionTest, CacheEffectivenessSurfacesInProfileAndMetrics) {
  SessionConfig Config = cleanConfig();
  Config.Campaign.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                                      "primitiveAdd"};
  Config.Profile = true;
  Session S(Config);
  CampaignSummary Summary = S.runCampaign();

  // The cache counters surface in the profile's registry, bit-equal to
  // the campaign's own counters and under their declared classes...
  const ProfileReport *Report = S.profile();
  ASSERT_NE(Report, nullptr);
  const auto &Counters = Report->Metrics.counters();
  EXPECT_EQ(Counters.at("solver.cache.hits").Value, Summary.Solver.CacheHits);
  EXPECT_EQ(Counters.at("solver.cache.hits").Class,
            MetricClass::SchedulingDependent);
  EXPECT_EQ(Counters.at("jit.compiles").Value, Summary.Jit.Compiles);
  EXPECT_EQ(Counters.at("jit.code_cache.hits").Value,
            Summary.Jit.CodeCacheHits);
  EXPECT_EQ(Counters.at("jit.compiles").Class, MetricClass::ConfigDependent);
  EXPECT_GT(Summary.Jit.Compiles, 0u);
  EXPECT_GT(Summary.Jit.CodeCacheHits, 0u)
      << "replaying several paths of one instruction must reuse code";
  // ...rendered one table per class, the scheduling-dependent one last.
  std::string Text = Report->render();
  std::size_t Det = Text.find("| deterministic counter");
  std::size_t Cfg = Text.find("| config-dependent counter");
  std::size_t Sched = Text.find("| scheduling-dependent counter");
  ASSERT_NE(Det, std::string::npos);
  ASSERT_NE(Cfg, std::string::npos);
  ASSERT_NE(Sched, std::string::npos);
  EXPECT_LT(Det, Cfg);
  EXPECT_LT(Cfg, Sched);
  EXPECT_GT(Text.find("solver.cache.hits"), Sched);

  // ...and in the session metrics registry under the same names.
  EXPECT_EQ(S.metrics().counter("jit.compiles"), Summary.Jit.Compiles);
  EXPECT_EQ(S.metrics().counter("jit.code_cache.hits"),
            Summary.Jit.CodeCacheHits);
}

TEST(SessionTest, TestPathReusesCompilesAcrossCallsViaTheSessionCache) {
  Session S(cleanConfig());
  ExplorationResult Paths = S.explore("bytecodePrim_add");
  ASSERT_FALSE(Paths.Paths.empty());

  // The first sweep over the paths compiles each distinct unit once
  // (paths whose models materialise identical input frames already
  // share a compile); an identical second sweep adds no compiles at
  // all — every replayed unit is served from the session cache.
  for (std::size_t I = 0; I < Paths.Paths.size(); ++I)
    S.testPath(Paths, I, CompilerKind::StackToRegister);
  std::uint64_t Compiles = S.metrics().counter("jit.compiles");
  std::uint64_t FirstSweepHits = S.metrics().counter("jit.code_cache.hits");
  EXPECT_GT(Compiles, 0u);

  for (std::size_t I = 0; I < Paths.Paths.size(); ++I)
    S.testPath(Paths, I, CompilerKind::StackToRegister);
  EXPECT_EQ(S.metrics().counter("jit.compiles"), Compiles);
  // Every lookup of the second sweep hits: one per path that reaches
  // the compile step, i.e. the first sweep's compiles + hits again.
  EXPECT_EQ(S.metrics().counter("jit.code_cache.hits"),
            2 * FirstSweepHits + Compiles);
}

TEST(SessionTest, SessionTraceFileCapturesExploreAndCampaignEvents) {
  SessionConfig Config = cleanConfig();
  Config.Campaign.TracePath = tempPath("trace.jsonl");
  Config.Campaign.OnlyInstructions = {"bytecodePrim_add"};
  Session S(Config);

  // A direct explore opens the session writer; the campaign then
  // appends to the same stream instead of truncating it.
  S.explore("bytecodePrim_add");
  S.runCampaign();

  std::ifstream In(Config.Campaign.TracePath);
  std::string Line;
  unsigned ExploreDone = 0;
  while (std::getline(In, Line)) {
    TraceEvent Event;
    ASSERT_TRUE(TraceEvent::fromJson(Line, Event)) << Line;
    if (Event.Kind == TraceEventKind::ExploreDone)
      ++ExploreDone;
  }
  // One from the direct explore, one from the campaign's instruction.
  EXPECT_EQ(ExploreDone, 2u);
}

} // namespace
