//===- bench/fig6_concolic_time.cpp - Paper Figure 6 ------------------------------===//
//
// Regenerates Figure 6 of the paper: concolic exploration time per kind
// of instruction. The series is the per-instruction exploration time
// one full-catalog campaign records, which mirrors the paper's per-kind
// averages and totals.
//
//===----------------------------------------------------------------------===//

#include "api/Session.h"
#include "evalkit/Experiments.h"

#include <cstdio>

using namespace igdt;

int main() {
  CampaignSummary Summary = Session().runCampaign();
  std::printf("\n%s\n", renderFigure6(Summary.Records).c_str());
  std::printf("Shape check (paper): native methods take several times "
              "longer to explore than byte-codes;\nexploration stays "
              "practical for on-line use.\n");
  return 0;
}
