//===- tests/evalkit/EngineIdentityCampaignTest.cpp ----------------------------===//
//
// The hard gate on the native execution tier: campaign records,
// checkpoint bytes and the deterministic trace stream are byte-identical
// across --engine switch|threaded|native, serial or parallel, with all
// four armed harness faults in play. The native tier is a pure
// accelerator; any byte it changes is a defect in the tier, not a new
// campaign outcome.
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
      {"native_j1", SimEngine::Native, 1},
      {"native_j4", SimEngine::Native, 4},
      {"threaded_j4", SimEngine::Threaded, 4},
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

  // The A/B is not vacuous: when the host has the native tier, the
  // native variants really executed on it (and only them).
  if (nativeTierSupported()) {
    EXPECT_GT(Summaries[2].Sim.NativeRuns, 0u);
    EXPECT_GT(Summaries[2].Sim.NativeBuilds, 0u);
    EXPECT_GT(Summaries[3].Sim.NativeRuns, 0u);
    EXPECT_EQ(Summaries[0].Sim.NativeRuns, 0u);
    EXPECT_EQ(Summaries[1].Sim.NativeRuns, 0u);
  }
  EXPECT_GT(Summaries[0].Sim.ReferenceRuns, 0u);
  // Native code is built at most once per compilation unit.
  EXPECT_LE(Summaries[2].Sim.NativeBuilds, Summaries[2].Jit.Compiles);
}

} // namespace
