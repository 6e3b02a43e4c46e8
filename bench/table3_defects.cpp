//===- bench/table3_defects.cpp - Paper Table 3 -----------------------------------===//
//
// Regenerates Table 3 of the paper: the differences of Table 2 are
// deduplicated into causes and attributed to the six defect families.
// The seeded-defect catalog is printed alongside as ground truth.
//
//===----------------------------------------------------------------------===//

#include "api/Session.h"
#include "evalkit/Experiments.h"
#include "faults/DefectCatalog.h"

#include <cstdio>

using namespace igdt;

int main() {
  CampaignSummary Summary = Session().runCampaign();
  std::printf("%s\n", renderTable3(Summary.Rows).c_str());

  std::printf("Seeded ground truth (what the classifier should find):\n");
  for (const SeededDefect &D : seededDefects())
    std::printf("  %-32s %-28s %zu instruction(s)\n",
                defectFamilyName(D.Family), D.Name.c_str(),
                D.AffectedInstructions.size());
  return 0;
}
