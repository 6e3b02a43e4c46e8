//===- bench/fig7_test_time.cpp - Paper Figure 7 ----------------------------------===//
//
// Regenerates Figure 7 of the paper: time to run all generated
// differential tests of an instruction, per compiler. The series is the
// per-instruction test time (both back-ends) one full-catalog campaign
// records, which mirrors the paper's per-compiler distributions.
//
//===----------------------------------------------------------------------===//

#include "api/Session.h"
#include "evalkit/Experiments.h"

#include <cstdio>

using namespace igdt;

int main() {
  CampaignSummary Summary = Session().runCampaign();
  std::printf("\n%s\n", renderFigure7(Summary.Rows).c_str());
  std::printf("Shape check (paper): per-instruction test time stays below "
              "the ~100 ms bar;\nnative methods are the slowest set.\n");
  return 0;
}
