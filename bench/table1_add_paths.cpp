//===- bench/table1_add_paths.cpp - Paper Table 1 / Figure 2 --------------------===//
//
// Regenerates Table 1 of the paper: the concolic execution paths of the
// add byte-code, with the concrete values fed as arguments and the
// constraint path obtained for each exploration case. With --fig2 it
// also prints the Figure 2 style per-execution trace (input frame,
// constraints, exit condition, output frame).
//
//===----------------------------------------------------------------------===//

#include "api/Session.h"
#include "evalkit/Experiments.h"

#include <cstdio>
#include <cstring>

using namespace igdt;

int main(int argc, char **argv) {
  bool Fig2 = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--fig2") == 0)
      Fig2 = true;

  Session Sess;
  ExplorationResult Add = Sess.explore("bytecodePrim_add");
  std::printf("%s\n", renderTable1(Add).c_str());
  if (Fig2)
    std::printf("%s\n", renderFigure2Trace(Add).c_str());
  return 0;
}
