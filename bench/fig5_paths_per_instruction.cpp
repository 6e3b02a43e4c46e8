//===- bench/fig5_paths_per_instruction.cpp - Paper Figure 5 ----------------------===//
//
// Regenerates Figure 5 of the paper: the distribution of concolic paths
// per instruction, byte-codes vs native methods (native methods must
// show several times more paths on average).
//
//===----------------------------------------------------------------------===//

#include "api/Session.h"
#include "evalkit/Experiments.h"
#include "support/Statistics.h"

#include <cstdio>

using namespace igdt;

int main() {
  CampaignSummary Summary = Session().runCampaign();
  std::printf("%s\n", renderFigure5(Summary.Records).c_str());

  // The samples Figure 5 plots: paths per non-quarantined instruction.
  std::vector<double> BC;
  std::vector<double> NM;
  for (const InstructionRecord &Rec : Summary.Records)
    if (!Rec.Quarantined)
      (Rec.Kind == InstructionKind::Bytecode ? BC : NM).push_back(Rec.Paths);
  std::printf("Shape check: native methods average %.1f paths vs %.1f for "
              "byte-codes (paper: ~10 vs ~2).\n",
              computeStats(NM).Mean, computeStats(BC).Mean);
  return 0;
}
