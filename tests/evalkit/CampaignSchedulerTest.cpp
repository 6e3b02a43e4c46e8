//===- tests/evalkit/CampaignSchedulerTest.cpp ---------------------------------===//
//
// Adaptive campaign scheduling self-tests: the tier-caps ladder cuts
// only give-up thresholds, the scheduler's priority order / tier
// escalation / budget pool are deterministic policy functions, yield
// stats round-trip through the checkpoint schema (and old-schema
// checkpoints still load), scheduled campaigns reproduce fixed-order
// bytes at every topology under the seven armed faults when budgets
// are unlimited, never lose coverage under a constrained budget, and
// the campaign-level explore ledger funds a deterministic catalog
// prefix.
//
//===----------------------------------------------------------------------===//

#include "evalkit/CampaignScheduler.h"

#include "evalkit/CampaignRunner.h"
#include "evalkit/VerdictStore.h"
#include "faults/DefectCatalog.h"
#include "faults/HarnessFaults.h"
#include "solver/Solver.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define IGDT_TEST_HAS_FORK 1
#else
#define IGDT_TEST_HAS_FORK 0
#endif

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_sched_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// \p Rec's checkpoint line as a campaign under \p Opts writes it.
std::string keyedLineOf(const CampaignOptions &Opts,
                        const InstructionRecord &Rec) {
  return keyedRecordLine(resultStoreKey(*findInstruction(Rec.Instruction),
                                        campaignConfigFingerprint(Opts)),
                         Rec.toJson());
}

CampaignOptions cleanOptions() {
  CampaignOptions Opts;
  Opts.Harness.VM = cleanVMConfig();
  Opts.Harness.Cogit = cleanCogitOptions();
  Opts.Harness.SeedSimulationErrors = false;
  Opts.RecordTimings = false;
  Opts.WorkerDeadlineMillis = 2000;
  Opts.WorkerBackoffMillis = 1;
  return Opts;
}

const InstructionRecord *findRecord(const CampaignSummary &S,
                                    const std::string &Name) {
  for (const InstructionRecord &R : S.Records)
    if (R.Instruction == Name)
      return &R;
  return nullptr;
}

unsigned totalPaths(const CampaignSummary &S) {
  unsigned Total = 0;
  for (const InstructionRecord &R : S.Records)
    Total += R.Paths;
  return Total;
}

/// All seven armed harness faults, one per instruction, plus a handful
/// of clean instructions so scheduled runs have real exploration work
/// to reorder. Every topology and both schedule policies must agree on
/// the outcome bytes.
CampaignOptions sevenFaultScenario() {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add",      "bytecodePrim_sub",
                           "bytecodePrim_mul",      "bytecodePrim_div",
                           "primitiveAdd",          "primitiveFloatAdd",
                           "primitiveFloatSubtract", "primitiveFloatMultiply",
                           "primitiveFloatDivide",  "primitiveFloatLessThan"};
  Opts.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::SimFuelExhaustion, "bytecodePrim_sub", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_mul", false},
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_div", false},
      {HarnessFaultKind::WorkerSegfault, "primitiveAdd", false},
      {HarnessFaultKind::WorkerHang, "primitiveFloatAdd", false},
      {HarnessFaultKind::PipeMessageCorruption, "primitiveFloatSubtract",
       false},
  };
  return Opts;
}

struct Topology {
  const char *Name;
  unsigned Jobs;
  unsigned WorkerProcesses;
};

#if IGDT_TEST_HAS_FORK
const Topology kTopologies[] = {
    {"serial", 1, 0}, {"threads4", 4, 0}, {"procs1", 1, 1}, {"procs4", 1, 4}};
#else
const Topology kTopologies[] = {{"serial", 1, 0}, {"threads4", 4, 0}};
#endif

//===----------------------------------------------------------------------===//
// Tier caps ladder
//===----------------------------------------------------------------------===//

TEST(SolverTierCapsTest, DistanceZeroIsTheIdentity) {
  SolverOptions Base;
  Base.MaxCases = 64;
  Base.MaxClassCombos = 256;
  Base.MaxSearchNodes = 50000;
  Base.RandomSamples = 12;
  Base.IntegerBits = 61;
  SolverOptions Tier = solverTierCaps(Base, 0);
  EXPECT_EQ(Tier.MaxCases, Base.MaxCases);
  EXPECT_EQ(Tier.MaxClassCombos, Base.MaxClassCombos);
  EXPECT_EQ(Tier.MaxSearchNodes, Base.MaxSearchNodes);
  EXPECT_EQ(Tier.RandomSamples, Base.RandomSamples);
  EXPECT_EQ(Tier.IntegerBits, Base.IntegerBits);
}

TEST(SolverTierCapsTest, RungsCutOnlyGiveUpThresholdsAndRespectFloors) {
  SolverOptions Base;
  Base.MaxCases = 64;
  Base.MaxClassCombos = 256;
  Base.MaxSearchNodes = 50000;

  SolverOptions One = solverTierCaps(Base, 1);
  EXPECT_EQ(One.MaxCases, 16u);
  EXPECT_EQ(One.MaxClassCombos, 64u);
  EXPECT_EQ(One.MaxSearchNodes, 12500u);
  // The below-cap trajectory must be untouched: the acceptance proof
  // (CapHits == 0 implies byte-identical to full strength) relies on it.
  EXPECT_EQ(One.RandomSamples, Base.RandomSamples);
  EXPECT_EQ(One.IntegerBits, Base.IntegerBits);

  // Deep rungs saturate at the floors instead of degenerating to an
  // empty search, and each rung is no stronger than the previous one.
  SolverOptions Prev = Base;
  for (unsigned D = 1; D <= 12; ++D) {
    SolverOptions Cur = solverTierCaps(Base, D);
    EXPECT_LE(Cur.MaxCases, Prev.MaxCases);
    EXPECT_LE(Cur.MaxClassCombos, Prev.MaxClassCombos);
    EXPECT_LE(Cur.MaxSearchNodes, Prev.MaxSearchNodes);
    Prev = Cur;
  }
  EXPECT_EQ(Prev.MaxCases, 4u);
  EXPECT_EQ(Prev.MaxClassCombos, 8u);
  EXPECT_EQ(Prev.MaxSearchNodes, 256u);
}

//===----------------------------------------------------------------------===//
// Scheduler policy object
//===----------------------------------------------------------------------===//

TEST(CampaignSchedulerTest, ColdStartReproducesCatalogOrder) {
  ScheduleOptions SO;
  SO.Policy = "adaptive";
  SO.SolverTiers = 0;
  CampaignScheduler Sched(SO, /*BaseExploreUnits=*/0);
  Sched.addItem(0, "a");
  Sched.addItem(1, "b");
  Sched.addItem(2, "c");
  Sched.finalize();

  EXPECT_EQ(Sched.plannedOrder(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(Sched.stats().PriorityInversions, 0u);

  std::vector<ScheduleAssignment> Wave = Sched.nextWave();
  EXPECT_TRUE(Sched.takeFinalized().empty());
  ASSERT_EQ(Wave.size(), 3u);
  for (std::size_t I = 0; I < Wave.size(); ++I) {
    EXPECT_EQ(Wave[I].Index, I);
    EXPECT_EQ(Wave[I].TierDistance, 0u);
    EXPECT_EQ(Wave[I].ExploreUnits, 0u);
    EXPECT_EQ(Sched.report(Wave[I], ScheduleFeedback{}),
              ScheduleVerdict::Accept);
  }
  EXPECT_TRUE(Sched.done());
  EXPECT_TRUE(Sched.nextWave().empty());
  EXPECT_EQ(Sched.stats().Waves, 1u);

  // Fixed order is this degenerate schedule: full strength and no pool,
  // even under a work-unit budget whose runs starve or exit early. One
  // wave carries every item once, in catalog order, and every report
  // is final.
  ScheduleOptions FixedOrder;
  FixedOrder.SolverTiers = 0;
  ASSERT_FALSE(FixedOrder.adaptive());
  ASSERT_FALSE(FixedOrder.BudgetPool);
  CampaignScheduler Fixed(FixedOrder, /*BaseExploreUnits=*/10);
  const std::vector<std::size_t> Indices = {2, 5, 7, 11};
  for (std::size_t Index : Indices)
    Fixed.addItem(Index, "item" + std::to_string(Index));
  Fixed.finalize();
  EXPECT_EQ(Fixed.plannedOrder(), Indices);

  Wave = Fixed.nextWave();
  EXPECT_TRUE(Fixed.takeFinalized().empty());
  ASSERT_EQ(Wave.size(), Indices.size());
  ScheduleFeedback Starved;
  Starved.BudgetExhausted = true;
  Starved.SpentUnits = 10;
  ScheduleFeedback EarlyExit;
  EarlyExit.FrontierExhausted = true;
  EarlyExit.SpentUnits = 4;
  ScheduleFeedback Dirty;
  Dirty.HadIncidents = true;
  Dirty.UnknownNegations = 1;
  const ScheduleFeedback Feedback[] = {Starved, EarlyExit, Dirty,
                                       ScheduleFeedback{}};
  for (std::size_t I = 0; I < Wave.size(); ++I) {
    EXPECT_EQ(Wave[I].Index, Indices[I]);
    EXPECT_EQ(Wave[I].TierDistance, 0u);
    EXPECT_EQ(Wave[I].ExploreUnits, 0u);
    EXPECT_FALSE(Fixed.done());
    EXPECT_EQ(Fixed.report(Wave[I], Feedback[I]), ScheduleVerdict::Accept);
  }
  EXPECT_TRUE(Fixed.done());
  EXPECT_TRUE(Fixed.nextWave().empty());
  EXPECT_TRUE(Fixed.takeFinalized().empty());
  EXPECT_EQ(Fixed.poolUnits(), 0u);
  EXPECT_EQ(Fixed.stats().Waves, 1u);
  EXPECT_EQ(Fixed.stats().TierEscalations, 0u);
  EXPECT_EQ(Fixed.stats().DiscardedRuns, 0u);
  EXPECT_EQ(Fixed.stats().PoolGrants, 0u);
}

TEST(CampaignSchedulerTest, WarmStartOrdersByYieldAndCountsInversions) {
  std::string Path = tempPath("warm.jsonl");
  {
    std::ofstream Out(Path);
    InstructionRecord R;
    R.Instruction = "a";
    R.HasYield = true;
    R.Yield.PathsPerKiloUnit = 5;
    Out << R.toJson() << "\n";
    R.Instruction = "b";
    R.Yield.PathsPerKiloUnit = 40;
    // The divergence boost participates in the score: 40 * 1.5 = 60.
    R.Yield.DivergenceRate = 0.5;
    Out << R.toJson() << "\n";
    R.Instruction = "c";
    R.Yield.PathsPerKiloUnit = 10;
    R.Yield.DivergenceRate = 0;
    Out << R.toJson() << "\n";
    // Unknown instruction and garbage are skipped, not fatal.
    R.Instruction = "not_in_this_worklist";
    Out << R.toJson() << "\n";
    Out << "{this is not json\n";
  }

  ScheduleOptions SO;
  SO.Policy = "adaptive";
  CampaignScheduler Sched(SO, 0);
  Sched.addItem(0, "a");
  Sched.addItem(1, "b");
  Sched.addItem(2, "c");
  EXPECT_EQ(Sched.loadWarmStart(Path), 3u);
  Sched.finalize();

  // Descending score: b (60), c (10), a (5) — two pairs run in reverse
  // catalog order.
  EXPECT_EQ(Sched.plannedOrder(), (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(Sched.stats().PriorityInversions, 2u);
  EXPECT_EQ(Sched.stats().WarmStartEntries, 3u);
  std::remove(Path.c_str());
}

TEST(CampaignSchedulerTest, DirtyCheapRunsEscalateOneRungAtATime) {
  ScheduleOptions SO;
  SO.Policy = "adaptive";
  SO.SolverTiers = 2;
  CampaignScheduler Sched(SO, 0);
  Sched.addItem(0, "a");
  Sched.finalize();

  // Rung 2 trips a structural cap: the run is discarded and re-queued
  // one rung stronger.
  std::vector<ScheduleAssignment> Wave = Sched.nextWave();
  ASSERT_EQ(Wave.size(), 1u);
  EXPECT_EQ(Wave[0].TierDistance, 2u);
  ScheduleFeedback CapHit;
  CapHit.CapHits = 1;
  CapHit.SpentUnits = 3;
  EXPECT_EQ(Sched.report(Wave[0], CapHit), ScheduleVerdict::Retry);

  // Rung 1 recovers an Unknown through the degradation ladder: still
  // not provably identical to full strength.
  Wave = Sched.nextWave();
  ASSERT_EQ(Wave.size(), 1u);
  EXPECT_EQ(Wave[0].TierDistance, 1u);
  ScheduleFeedback Ladder;
  Ladder.LadderRetries = 1;
  Ladder.SpentUnits = 4;
  EXPECT_EQ(Sched.report(Wave[0], Ladder), ScheduleVerdict::Retry);

  // Full strength is final even when dirty — there is nothing to
  // escalate to.
  Wave = Sched.nextWave();
  ASSERT_EQ(Wave.size(), 1u);
  EXPECT_EQ(Wave[0].TierDistance, 0u);
  ScheduleFeedback Dirty;
  Dirty.HadIncidents = true;
  EXPECT_EQ(Sched.report(Wave[0], Dirty), ScheduleVerdict::Accept);
  EXPECT_TRUE(Sched.done());

  EXPECT_EQ(Sched.stats().TierEscalations, 2u);
  EXPECT_EQ(Sched.stats().DiscardedRuns, 2u);
  EXPECT_EQ(Sched.stats().DiscardedUnits, 7u);
  EXPECT_EQ(Sched.stats().Waves, 3u);

  // A cheap run clean on every escalation trigger is accepted at the
  // lowest rung outright: its bytes are provably the full-strength
  // bytes.
  CampaignScheduler Clean(SO, 0);
  Clean.addItem(0, "a");
  Clean.finalize();
  Wave = Clean.nextWave();
  ASSERT_EQ(Wave.size(), 1u);
  EXPECT_EQ(Wave[0].TierDistance, 2u);
  EXPECT_EQ(Clean.report(Wave[0], ScheduleFeedback{}),
            ScheduleVerdict::Accept);
  EXPECT_TRUE(Clean.done());
  EXPECT_EQ(Clean.stats().TierEscalations, 0u);
}

TEST(CampaignSchedulerTest, BudgetPoolRefundsAndGrantsDeterministically) {
  ScheduleOptions SO;
  SO.Policy = "adaptive";
  SO.SolverTiers = 0;
  SO.BudgetPool = true;
  SO.BudgetPoolCapFactor = 8.0;
  CampaignScheduler Sched(SO, /*BaseExploreUnits=*/10);
  Sched.addItem(0, "cheap");
  Sched.addItem(1, "rich");
  Sched.addItem(2, "poor");
  Sched.finalize();

  std::vector<ScheduleAssignment> Wave = Sched.nextWave();
  ASSERT_EQ(Wave.size(), 3u);

  // "cheap" provably drains its frontier at 4 of 10 units: early exit,
  // 6 units refunded to the pool.
  ScheduleFeedback Done;
  Done.FrontierExhausted = true;
  Done.SpentUnits = 4;
  Done.Paths = 3;
  EXPECT_EQ(Sched.report(Wave[0], Done), ScheduleVerdict::Accept);
  EXPECT_EQ(Sched.poolUnits(), 6u);

  // Both others starve at full budget; their records are held for the
  // grant round. "rich" observed the better yield.
  ScheduleFeedback Starved;
  Starved.BudgetExhausted = true;
  Starved.SpentUnits = 10;
  Starved.Paths = 5;
  EXPECT_EQ(Sched.report(Wave[1], Starved), ScheduleVerdict::Hold);
  Starved.Paths = 1;
  EXPECT_EQ(Sched.report(Wave[2], Starved), ScheduleVerdict::Hold);
  EXPECT_FALSE(Sched.done());

  // The grant round gives the whole pool to the highest-yield starved
  // item; the drained pool finalises the other one's held record.
  Wave = Sched.nextWave();
  ASSERT_EQ(Wave.size(), 1u);
  EXPECT_EQ(Wave[0].Index, 1u);
  EXPECT_EQ(Wave[0].TierDistance, 0u);
  EXPECT_EQ(Wave[0].ExploreUnits, 16u); // base 10 + granted 6
  EXPECT_EQ(Sched.poolUnits(), 0u);
  EXPECT_EQ(Sched.takeFinalized(), (std::vector<std::size_t>{2}));

  // A regranted run is final even if it starves again — one
  // deterministic round, no grant loops.
  ScheduleFeedback StillStarved;
  StillStarved.BudgetExhausted = true;
  StillStarved.SpentUnits = 16;
  StillStarved.Paths = 8;
  EXPECT_EQ(Sched.report(Wave[0], StillStarved), ScheduleVerdict::Accept);
  EXPECT_TRUE(Sched.done());

  const ScheduleStats &St = Sched.stats();
  EXPECT_EQ(St.EarlyExits, 1u);
  EXPECT_EQ(St.PoolRefunds, 1u);
  EXPECT_EQ(St.PoolRefundUnits, 6u);
  EXPECT_EQ(St.PoolGrants, 1u);
  EXPECT_EQ(St.PoolGrantUnits, 6u);
  // The superseded held run is the honest overhead of the regrant.
  EXPECT_EQ(St.DiscardedRuns, 1u);
  EXPECT_EQ(St.DiscardedUnits, 10u);
}

//===----------------------------------------------------------------------===//
// Yield schema
//===----------------------------------------------------------------------===//

TEST(CampaignSchedulerTest, YieldStatsRoundTripThroughTheCheckpointSchema) {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub"};
  Opts.Schedule.PersistYield = true;
  Opts.CheckpointPath = tempPath("yield_ckpt.jsonl");
  CampaignSummary S = CampaignRunner(Opts).run();
  EXPECT_EQ(S.CompletedInstructions, 2u);

  std::vector<std::string> Lines = readLines(Opts.CheckpointPath);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &Line : Lines) {
    EXPECT_NE(Line.find("\"yield\""), std::string::npos);
    InstructionRecord Rec;
    ASSERT_TRUE(InstructionRecord::fromJson(Line, Rec)) << Line;
    EXPECT_TRUE(Rec.HasYield);
    EXPECT_GT(Rec.Yield.PathsPerKiloUnit, 0.0);
    // Untimed campaign: the wall-clock rate is exactly zero, so the
    // deterministic fields are the only signal a warm start sees.
    EXPECT_EQ(Rec.Yield.PathsPerSec, 0.0);
    EXPECT_EQ(keyedLineOf(Opts, Rec), Line);
  }
  std::remove(Opts.CheckpointPath.c_str());
}

TEST(CampaignSchedulerTest, OldSchemaCheckpointsStillLoadAndWarmStartCold) {
  // A pre-scheduler checkpoint: no "yield" objects at all.
  CampaignOptions Fixed = cleanOptions();
  Fixed.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                            "bytecodePrim_mul", "bytecodePrim_div"};
  Fixed.Jobs = 1;
  Fixed.CheckpointPath = tempPath("old_schema_ckpt.jsonl");
  CampaignSummary FixedRun = CampaignRunner(Fixed).run();
  EXPECT_EQ(FixedRun.CompletedInstructions, 4u);

  for (const std::string &Line : readLines(Fixed.CheckpointPath)) {
    EXPECT_EQ(Line.find("\"yield\""), std::string::npos);
    InstructionRecord Rec;
    ASSERT_TRUE(InstructionRecord::fromJson(Line, Rec)) << Line;
    EXPECT_FALSE(Rec.HasYield);
    EXPECT_EQ(keyedLineOf(Fixed, Rec), Line);
  }

  // Warm-starting from it matches nothing, so the adaptive campaign
  // runs in cold catalog order and reproduces the fixed bytes.
  CampaignOptions Adaptive = Fixed;
  Adaptive.CheckpointPath = tempPath("old_schema_adaptive_ckpt.jsonl");
  Adaptive.Schedule.Policy = "adaptive";
  Adaptive.Schedule.SolverTiers = 1;
  Adaptive.Schedule.WarmStartPath = Fixed.CheckpointPath;
  CampaignSummary AdaptiveRun = CampaignRunner(Adaptive).run();
  EXPECT_TRUE(AdaptiveRun.ScheduleActive);
  EXPECT_EQ(AdaptiveRun.Schedule.WarmStartEntries, 0u);
  EXPECT_EQ(AdaptiveRun.Schedule.PriorityInversions, 0u);
  EXPECT_EQ(slurp(Adaptive.CheckpointPath), slurp(Fixed.CheckpointPath));

  std::remove(Fixed.CheckpointPath.c_str());
  std::remove(Adaptive.CheckpointPath.c_str());
}

//===----------------------------------------------------------------------===//
// Scheduled campaigns: byte-identity and coverage
//===----------------------------------------------------------------------===//

TEST(CampaignSchedulerTest,
     UnlimitedAdaptiveMatchesFixedBytesAcrossTopologiesUnderFaults) {
  // Fixed serial is the reference everything else must reproduce.
  CampaignOptions Ref = sevenFaultScenario();
  Ref.Jobs = 1;
  Ref.CheckpointPath = tempPath("ref_ckpt.jsonl");
  Ref.IncidentLogPath = tempPath("ref_inc.jsonl");
  Ref.TracePath = tempPath("ref_trace.jsonl");
  CampaignSummary RefRun = CampaignRunner(Ref).run();
  EXPECT_EQ(RefRun.CompletedInstructions, 10u);
  EXPECT_EQ(RefRun.Quarantined.size(), 7u);
  EXPECT_FALSE(RefRun.ScheduleActive);
  const std::string RefCkpt = slurp(Ref.CheckpointPath);
  const std::string RefInc = slurp(Ref.IncidentLogPath);
  const std::string RefTrace = slurp(Ref.TracePath);
  ASSERT_FALSE(RefCkpt.empty());
  ASSERT_FALSE(RefInc.empty());
  ASSERT_FALSE(RefTrace.empty());

  for (const Topology &T : kTopologies) {
    CampaignOptions Opts = sevenFaultScenario();
    Opts.Jobs = T.Jobs;
    Opts.WorkerProcesses = T.WorkerProcesses;
    Opts.Schedule.Policy = "adaptive";
    Opts.Schedule.SolverTiers = 1;
    Opts.CheckpointPath = tempPath(std::string(T.Name) + "_ad_ckpt.jsonl");
    Opts.IncidentLogPath = tempPath(std::string(T.Name) + "_ad_inc.jsonl");
    Opts.TracePath = tempPath(std::string(T.Name) + "_ad_trace.jsonl");
    CampaignSummary S = CampaignRunner(Opts).run();

    EXPECT_TRUE(S.ScheduleActive) << T.Name;
    EXPECT_GE(S.Schedule.Waves, 2u) << T.Name;
    // Every faulted instruction's cheap run saw an incident, which the
    // acceptance proof rejects: at least seven escalations.
    EXPECT_GE(S.Schedule.TierEscalations, 7u) << T.Name;
    EXPECT_EQ(S.Metrics.counter("schedule.tier_escalations"),
              S.Schedule.TierEscalations)
        << T.Name;
    EXPECT_EQ(S.Metrics.counter("schedule.waves"), S.Schedule.Waves) << T.Name;

    EXPECT_EQ(slurp(Opts.CheckpointPath), RefCkpt) << T.Name;
    EXPECT_EQ(slurp(Opts.IncidentLogPath), RefInc) << T.Name;
    EXPECT_EQ(slurp(Opts.TracePath), RefTrace) << T.Name;
    std::remove(Opts.CheckpointPath.c_str());
    std::remove(Opts.IncidentLogPath.c_str());
    std::remove(Opts.TracePath.c_str());
  }
  std::remove(Ref.CheckpointPath.c_str());
  std::remove(Ref.IncidentLogPath.c_str());
  std::remove(Ref.TracePath.c_str());
}

TEST(CampaignSchedulerTest,
     ConstrainedBudgetCoverageIsAtLeastFixedAcrossTopologies) {
  // Per-instruction work-unit budget small enough that some frontiers
  // starve: the pool may regrant refunded units, and budget
  // monotonicity guarantees every regranted exploration is a superset.
  // The full clean catalog is the second scenario: its starved items
  // are held while later runs of the same wave finish, so a merge that
  // ran ahead of the scheduler's verdict would checkpoint a starved
  // record in place of its granted re-run.
  const std::uint64_t BudgetUnits = 3;
  const struct {
    const char *Name;
    CampaignOptions Base;
  } Scenarios[] = {{"faults", sevenFaultScenario()},
                   {"catalog", cleanOptions()}};

  for (const auto &Scenario : Scenarios) {
    CampaignOptions Fixed = Scenario.Base;
    Fixed.Jobs = 1;
    Fixed.ExploreBudget.WorkUnits = BudgetUnits;
    CampaignSummary FixedRun = CampaignRunner(Fixed).run();
    EXPECT_GE(FixedRun.CompletedInstructions, 10u) << Scenario.Name;
    const unsigned FixedPaths = totalPaths(FixedRun);
    EXPECT_GT(FixedPaths, 0u) << Scenario.Name;

    std::vector<std::string> Checkpoints;
    for (const Topology &T : kTopologies) {
      const std::string Where = std::string(Scenario.Name) + "/" + T.Name;
      CampaignOptions Opts = Scenario.Base;
      Opts.Jobs = T.Jobs;
      Opts.WorkerProcesses = T.WorkerProcesses;
      Opts.ExploreBudget.WorkUnits = BudgetUnits;
      Opts.Schedule.Policy = "adaptive";
      Opts.Schedule.SolverTiers = 0;
      Opts.Schedule.BudgetPool = true;
      Opts.CheckpointPath = tempPath(std::string(Scenario.Name) + "_" +
                                     T.Name + "_bud_ckpt.jsonl");
      CampaignSummary S = CampaignRunner(Opts).run();

      EXPECT_EQ(S.CompletedInstructions, FixedRun.CompletedInstructions)
          << Where;
      EXPECT_TRUE(S.ScheduleActive) << Where;
      // Coverage never regresses, per instruction and in total: every
      // instruction runs with at least its fixed-order budget.
      for (const InstructionRecord &R : S.Records) {
        const InstructionRecord *F = findRecord(FixedRun, R.Instruction);
        ASSERT_NE(F, nullptr) << R.Instruction;
        EXPECT_GE(R.Paths, F->Paths) << Where << " " << R.Instruction;
      }
      EXPECT_GE(totalPaths(S), FixedPaths) << Where;
      EXPECT_EQ(S.Metrics.counter("schedule.budget_pool.refund_units"),
                S.Schedule.PoolRefundUnits)
          << Where;

      Checkpoints.push_back(slurp(Opts.CheckpointPath));
      std::remove(Opts.CheckpointPath.c_str());
    }
    // The grant round is a pure function of the record set, so even the
    // constrained records are topology-independent.
    ASSERT_FALSE(Checkpoints.empty());
    ASSERT_FALSE(Checkpoints[0].empty());
    for (std::size_t I = 1; I < Checkpoints.size(); ++I)
      EXPECT_EQ(Checkpoints[0], Checkpoints[I])
          << Scenario.Name << "/" << kTopologies[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// Campaign-level explore ledger
//===----------------------------------------------------------------------===//

TEST(CampaignSchedulerTest, CampaignLedgerFundsADeterministicCatalogPrefix) {
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                           "bytecodePrim_mul", "bytecodePrim_div"};
  Opts.Jobs = 1;
  Opts.ExploreBudget.WorkUnits = 4;
  Opts.TotalExploreUnits = 5;

  CampaignSummary First = CampaignRunner(Opts).run();
  EXPECT_EQ(First.CompletedInstructions, 4u);
  EXPECT_EQ(First.Records.size(), 4u);

  std::uint64_t Spent = 0;
  unsigned Funded = 0;
  unsigned StarvedCount = 0;
  for (const InstructionRecord &R : First.Records) {
    Spent += R.ExploreUnits;
    if (R.Attempts > 0)
      ++Funded;
    if (R.Attempts == 0) {
      // A starved record never ran: no paths, no compiler rows, marked
      // budget-exhausted so resume and reporting treat it honestly.
      ++StarvedCount;
      EXPECT_EQ(R.Paths, 0u) << R.Instruction;
      EXPECT_TRUE(R.BudgetExhausted) << R.Instruction;
      EXPECT_TRUE(R.Compilers.empty()) << R.Instruction;
    }
  }
  // Budgets are cooperative (charge-then-check, one unit per charge),
  // so each funded run can overshoot its draw by at most one unit.
  EXPECT_LE(Spent, Opts.TotalExploreUnits + Funded);
  EXPECT_GE(StarvedCount, 1u);
  // First-come-first-served: the funded records form a catalog prefix,
  // so once one instruction starves every later one starves too.
  bool SeenStarved = false;
  for (const InstructionRecord &R : First.Records) {
    if (R.Attempts == 0)
      SeenStarved = true;
    else
      EXPECT_FALSE(SeenStarved) << R.Instruction;
  }

  // Coverage is strictly below the unlimited run's, and the ledger is
  // deterministic at Jobs 1: a second run reproduces the bytes.
  CampaignOptions Unlimited = Opts;
  Unlimited.TotalExploreUnits = 0;
  EXPECT_GT(totalPaths(CampaignRunner(Unlimited).run()), totalPaths(First));

  CampaignSummary Second = CampaignRunner(Opts).run();
  ASSERT_EQ(Second.Records.size(), First.Records.size());
  for (std::size_t I = 0; I < First.Records.size(); ++I)
    EXPECT_EQ(First.Records[I].toJson(), Second.Records[I].toJson());
}

#if IGDT_TEST_HAS_FORK
TEST(CampaignSchedulerTest, CampaignLedgerDegradesWorkerProcessesToThreads) {
  // The process pool's pull queue claims items before the ledger can
  // price them, so a total budget forces in-process workers.
  CampaignOptions Opts = cleanOptions();
  Opts.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub"};
  Opts.WorkerProcesses = 2;
  Opts.ExploreBudget.WorkUnits = 4;
  Opts.TotalExploreUnits = 4;
  CampaignSummary S = CampaignRunner(Opts).run();
  EXPECT_EQ(S.CompletedInstructions, 2u);
  EXPECT_EQ(S.Metrics.counter("worker.processes"), 0u);
  std::uint64_t Spent = 0;
  unsigned Funded = 0;
  for (const InstructionRecord &R : S.Records) {
    Spent += R.ExploreUnits;
    if (R.Attempts > 0)
      ++Funded;
  }
  EXPECT_LE(Spent, Opts.TotalExploreUnits + Funded);
}
#endif

} // namespace
