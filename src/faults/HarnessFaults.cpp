//===- faults/HarnessFaults.cpp - Harness-fault injection plans ----------------===//

#include "faults/HarnessFaults.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace igdt;

const char *igdt::harnessFaultKindName(HarnessFaultKind Kind) {
  switch (Kind) {
  case HarnessFaultKind::SolverHang:
    return "solver-hang";
  case HarnessFaultKind::SimFuelExhaustion:
    return "sim-fuel-exhaustion";
  case HarnessFaultKind::FrontEndThrow:
    return "front-end-throw";
  case HarnessFaultKind::HeapCorruption:
    return "heap-corruption";
  }
  igdt_unreachable("unknown harness fault kind");
}

bool HarnessFaultPlan::armedFor(HarnessFaultKind Kind,
                                const std::string &Instruction,
                                unsigned Attempt) const {
  for (const ArmedFault &F : Faults) {
    if (F.Kind != Kind || F.Instruction != Instruction)
      continue;
    if (F.Transient && Attempt > 1)
      continue;
    return true;
  }
  return false;
}

std::vector<std::string> HarnessFaultPlan::targets() const {
  std::vector<std::string> Names;
  for (const ArmedFault &F : Faults)
    if (std::find(Names.begin(), Names.end(), F.Instruction) == Names.end())
      Names.push_back(F.Instruction);
  return Names;
}
