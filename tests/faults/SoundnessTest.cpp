//===- tests/faults/SoundnessTest.cpp --------------------------------------------===//
//
// The global soundness property: with every defect seed disabled, the
// interpreter and all four compilers agree on every replayable path of
// every catalog instruction, on both back-ends — modulo the structural
// optimisation differences the paper classifies as "arguably correct in
// both". Conversely, with seeds on, the catalog's ground truth must be
// found and attributed to the right families.
//
//===----------------------------------------------------------------------===//

#include "faults/DefectCatalog.h"

#include "api/Session.h"

#include <gtest/gtest.h>

#include <set>

using namespace igdt;

namespace {

/// Table 2 rows of one full-catalog campaign. A quarantine would drop an
/// instruction's causes from the rows, so none is allowed.
std::vector<CompilerEvaluation> campaignRows(SessionConfig Config) {
  CampaignSummary Summary = Session(std::move(Config)).runCampaign();
  EXPECT_TRUE(Summary.Incidents.empty());
  EXPECT_EQ(Summary.Records.size(), allInstructions().size());
  return Summary.Rows;
}

TEST(SoundnessTest, FixedConfigurationHasNoCorrectnessDefects) {
  SessionConfig Config;
  Config.vm() = cleanVMConfig();
  Config.cogit() = cleanCogitOptions();
  Config.harness().SeedSimulationErrors = false;

  std::vector<CompilerEvaluation> Rows = campaignRows(Config);
  for (const CompilerEvaluation &Row : Rows)
    for (const auto &[Key, Family] : Row.Causes)
      EXPECT_EQ(Family, DefectFamily::OptimisationDifference)
          << compilerKindName(Row.Kind) << ": " << Key;
}

TEST(SoundnessTest, SeededConfigurationFindsEveryCatalogDefect) {
  // All seeds on by default.
  std::vector<CompilerEvaluation> Rows = campaignRows(SessionConfig());

  // Gather found causes per family.
  std::map<DefectFamily, std::set<std::string>> Found;
  for (const CompilerEvaluation &Row : Rows)
    for (const auto &[Key, Family] : Row.Causes)
      Found[Family].insert(Key);

  // Ground truth from the catalog: every affected instruction of every
  // non-structural seed must be attributed to its family. Optimisation
  // differences are checked by family presence only (their per-path
  // detectability depends on which compiler runs).
  for (const SeededDefect &D : seededDefects()) {
    if (D.Family == DefectFamily::OptimisationDifference) {
      EXPECT_FALSE(Found[D.Family].empty()) << D.Name;
      continue;
    }
    for (const std::string &Instr : D.AffectedInstructions) {
      std::string Key =
          std::string(defectFamilyName(D.Family)) + "|" + Instr;
      EXPECT_TRUE(Found[D.Family].count(Key))
          << "seeded defect not found: " << Key;
    }
  }
}

TEST(SoundnessTest, Table3FamilyCountsMatchGroundTruth) {
  std::vector<CompilerEvaluation> Rows = campaignRows(SessionConfig());

  std::map<DefectFamily, std::set<std::string>> Found;
  for (const CompilerEvaluation &Row : Rows)
    for (const auto &[Key, Family] : Row.Causes)
      Found[Family].insert(Key);

  EXPECT_EQ(Found[DefectFamily::MissingInterpreterTypeCheck].size(),
            seededCauseCount(DefectFamily::MissingInterpreterTypeCheck));
  EXPECT_EQ(Found[DefectFamily::MissingCompiledTypeCheck].size(),
            seededCauseCount(DefectFamily::MissingCompiledTypeCheck));
  EXPECT_EQ(Found[DefectFamily::MissingFunctionality].size(),
            seededCauseCount(DefectFamily::MissingFunctionality));
  EXPECT_EQ(Found[DefectFamily::BehaviouralDifference].size(),
            seededCauseCount(DefectFamily::BehaviouralDifference));
  EXPECT_EQ(Found[DefectFamily::SimulationError].size(),
            seededCauseCount(DefectFamily::SimulationError));
}

TEST(SoundnessTest, CatalogIsConsistent) {
  // Every instruction named by a seed exists in the instruction catalog.
  for (const SeededDefect &D : seededDefects())
    for (const std::string &Name : D.AffectedInstructions)
      EXPECT_NE(findInstruction(Name), nullptr) << Name;
  // Clean configs really disable everything.
  VMConfig VM = cleanVMConfig();
  EXPECT_FALSE(VM.SeedAsFloatMissingReceiverCheck);
  EXPECT_FALSE(VM.SeedBitOpsFailOnNegative);
  CogitOptions Cogit = cleanCogitOptions();
  EXPECT_FALSE(Cogit.SeedFloatReceiverCheckMissing);
  EXPECT_FALSE(Cogit.SeedFFINotImplemented);
  // The coherent fix direction keeps compiled bit-ops accepting
  // negatives, matching the fixed interpreter.
  EXPECT_TRUE(Cogit.SeedBitOpsAcceptNegatives);
}

} // namespace
