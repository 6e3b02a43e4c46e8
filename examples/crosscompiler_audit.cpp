//===- examples/crosscompiler_audit.cpp - Full VM audit as a CI gate -------------===//
//
// The downstream-user scenario the paper's introduction motivates: a VM
// with one interpreter and several execution engines, where every test
// scenario would otherwise have to be written once per engine. This
// audit explores the whole instruction catalog once, replays every path
// against all four compilers on both back-ends, and prints a report
// suitable as a CI gate (exit code 1 when unexpected differences
// appear).
//
// Usage:
//   crosscompiler_audit             # audit the shipped (seeded) VM
//   crosscompiler_audit --fixed     # audit with every known defect fixed
//
//===----------------------------------------------------------------------===//

#include "api/Session.h"
#include "evalkit/Experiments.h"
#include "faults/DefectCatalog.h"

#include <cstdio>
#include <cstring>

using namespace igdt;

int main(int argc, char **argv) {
  bool Fixed = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--fixed") == 0)
      Fixed = true;

  SessionConfig Config;
  if (Fixed) {
    Config.vm() = cleanVMConfig();
    Config.cogit() = cleanCogitOptions();
    Config.harness().SeedSimulationErrors = false;
  }

  std::printf("Auditing %s configuration...\n\n",
              Fixed ? "the FIXED" : "the SHIPPED (seeded)");
  CampaignSummary Summary = Session(Config).runCampaign();
  const std::vector<CompilerEvaluation> &Rows = Summary.Rows;
  std::printf("%s\n", renderTable2(Rows).c_str());
  std::printf("%s\n", renderTable3(Rows).c_str());

  unsigned TotalDiffs = 0;
  for (const CompilerEvaluation &Row : Rows)
    TotalDiffs += Row.DifferingPaths;

  if (Fixed) {
    // Optimisation differences are structural and "arguably correct in
    // both" engines (paper §5.3): they are reported as advisories, and
    // the campaign exit code fails the gate only on genuine defects.
    unsigned Defects = 0;
    unsigned Advisories = 0;
    for (const CompilerEvaluation &Row : Rows)
      for (const auto &[Key, Family] : Row.Causes) {
        if (Family == DefectFamily::OptimisationDifference) {
          ++Advisories;
          continue;
        }
        ++Defects;
        std::printf("  DEFECT %-35s %s\n", compilerKindName(Row.Kind),
                    Key.c_str());
      }
    std::printf("%u optimisation advisories (compilers send where the "
                "interpreter inlines).\n",
                Advisories);
    int Exit = Summary.exitCode();
    if (Exit == 0)
      std::printf("CI gate: PASS — no correctness differences between the "
                  "interpreter and any compiler.\n");
    else
      std::printf("CI gate: FAIL — %u defect causes.\n", Defects);
    return Exit;
  }

  std::printf("Found %u differing paths; known causes:\n", TotalDiffs);
  std::map<std::string, DefectFamily> All;
  for (const CompilerEvaluation &Row : Rows)
    All.insert(Row.Causes.begin(), Row.Causes.end());
  for (const auto &[Key, Family] : All)
    std::printf("  %s\n", Key.c_str());
  std::printf("\nRe-run with --fixed to verify the repaired VM is clean.\n");
  return 0;
}
