//===- tests/evalkit/EngineIdentityCampaignTest.cpp ----------------------------===//
//
// The hard gates on how replays execute. Campaign records, checkpoint
// bytes and the deterministic trace stream are byte-identical on the
// switch and threaded engines, serial or parallel, with all four armed
// harness faults in play. And the native tier, which runs only as the
// cross-engine oracle, agrees with the simulator on every path of the
// seeded catalog and changes no record. Any byte either changes is a
// defect in the harness, not a new campaign outcome.
//
//===----------------------------------------------------------------------===//

#include "evalkit/CampaignRunner.h"

#include "faults/DefectCatalog.h"
#include "faults/HarnessFaults.h"
#include "support/CpuFeatures.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_engine_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// All four armed harness faults, one per instruction, plus six clean
/// instructions that actually replay: the identity claim must
/// hold through containment, retry and quarantine, and the clean runs
/// keep the engine A/B from being vacuous (a campaign where everything
/// quarantines never executes an engine at all).
CampaignOptions fourFaultBase() {
  CampaignOptions Opts;
  Opts.Harness.VM = cleanVMConfig();
  Opts.Harness.Cogit = cleanCogitOptions();
  Opts.Harness.SeedSimulationErrors = false;
  Opts.RecordTimings = false;
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
  };
  return Opts;
}

TEST(EngineIdentityCampaignTest, RecordsTracesAndCheckpointsMatchAcrossEngines) {
  struct Variant {
    const char *Name;
    SimEngine Engine;
    unsigned Jobs;
  };
  const Variant Variants[] = {
      {"switch_j1", SimEngine::Switch, 1},
      {"threaded_j1", SimEngine::Threaded, 1},
      {"threaded_j4", SimEngine::Threaded, 4},
      {"switch_j4", SimEngine::Switch, 4},
  };

  std::vector<CampaignSummary> Summaries;
  std::vector<std::string> Traces;
  std::vector<std::string> Checkpoints;
  for (const Variant &V : Variants) {
    CampaignOptions Opts = fourFaultBase();
    Opts.Harness.Sim.Engine = V.Engine;
    Opts.Jobs = V.Jobs;
    Opts.TracePath = tempPath(std::string(V.Name) + "_trace.jsonl");
    Opts.CheckpointPath = tempPath(std::string(V.Name) + "_ckpt.jsonl");
    Summaries.push_back(CampaignRunner(Opts).run());
    Traces.push_back(slurp(Opts.TracePath));
    Checkpoints.push_back(slurp(Opts.CheckpointPath));
    ASSERT_FALSE(Traces.back().empty()) << V.Name;
    ASSERT_FALSE(Checkpoints.back().empty()) << V.Name;
  }

  const CampaignSummary &Ref = Summaries.front();
  for (std::size_t S = 1; S < Summaries.size(); ++S) {
    const CampaignSummary &Cur = Summaries[S];
    const char *Name = Variants[S].Name;
    ASSERT_EQ(Cur.Records.size(), Ref.Records.size()) << Name;
    for (std::size_t I = 0; I < Ref.Records.size(); ++I)
      EXPECT_EQ(Cur.Records[I].toJson(), Ref.Records[I].toJson())
          << Name << " record " << I;
    EXPECT_EQ(Cur.Quarantined, Ref.Quarantined) << Name;
    EXPECT_EQ(Cur.exitCode(), Ref.exitCode()) << Name;
    EXPECT_EQ(Checkpoints[S], Checkpoints[0])
        << Name << ": checkpoint files must be byte-identical";
    EXPECT_EQ(Traces[S], Traces[0])
        << Name << ": deterministic trace files must be byte-identical";
  }

  // The A/B is not vacuous: each engine really ran (a toolchain without
  // computed goto runs the switch loop for both), on pooled arenas.
  EXPECT_GT(Summaries[0].Sim.ReferenceRuns, 0u);
  EXPECT_EQ(Summaries[0].Sim.PredecodedRuns, 0u);
  if (simThreadedDispatchSupported()) {
    EXPECT_GT(Summaries[1].Sim.PredecodedRuns, 0u);
    EXPECT_EQ(Summaries[1].Sim.ReferenceRuns, 0u);
  }
  EXPECT_GT(Summaries[0].Replay.HeapResets, 0u);
  EXPECT_GT(Summaries[1].Replay.HeapResets, 0u);
}

TEST(EngineIdentityCampaignTest, CrossEngineOracleAgreesOnTheSeededCatalog) {
  CampaignOptions Base;
  Base.RecordTimings = false;
  CampaignSummary Default = CampaignRunner(Base).run();

  for (unsigned Jobs : {1u, 4u}) {
    CampaignOptions Opts = Base;
    Opts.Jobs = Jobs;
    Opts.Harness.CrossEngineCheck = true;
    CampaignSummary Checked = CampaignRunner(Opts).run();
    ASSERT_EQ(Checked.Records.size(), Default.Records.size()) << Jobs;
    for (std::size_t I = 0; I < Default.Records.size(); ++I) {
      for (const CompilerOutcome &C : Checked.Records[I].Compilers)
        for (const auto &[Cause, Family] : C.Causes)
          EXPECT_NE(Family, DefectFamily::CrossEngineDivergence) << Cause;
      EXPECT_EQ(Checked.Records[I].toJson(), Default.Records[I].toJson())
          << "jobs " << Jobs << " record " << I;
    }
    EXPECT_EQ(Checked.exitCode(), Default.exitCode()) << Jobs;
    // Where the host has the tier, the oracle really ran on it, and
    // built native code at most once per compilation unit.
    if (nativeTierSupported()) {
      EXPECT_GT(Checked.Sim.NativeRuns, 0u) << Jobs;
      EXPECT_LE(Checked.Sim.NativeBuilds, Checked.Jit.Compiles) << Jobs;
    }
  }
}

} // namespace
