//===- jit/LinearScan.h - Linear-scan register allocation ----------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear-scan register allocator behind the experimental
/// RegisterAllocatingCogit (paper §4.1): live intervals over the linear
/// IR, allocation over the target's allocatable registers, and spilling
/// into the FP-relative spill area when pressure exceeds the register
/// file. Spilled uses/defs are rewritten through reserved scratch
/// registers so that lowering only ever sees machine registers.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_JIT_LINEARSCAN_H
#define IGDT_JIT_LINEARSCAN_H

#include "jit/IR.h"

#include <vector>

namespace igdt {

/// Allocation outcome: dense tables indexed by virtual register id (the
/// entries below FirstVirtualReg are unused).
struct AllocationResult {
  /// Spilled[V] for a virtual register that was not spilled.
  static constexpr unsigned NotSpilled = ~0u;

  /// Machine register of each allocated virtual register, the table
  /// lowerIR reads. NoReg for ids the fragment never uses and for
  /// spilled ones, which the spill rewrite removes from the fragment.
  std::vector<MReg> Assignment;
  /// FP-relative spill slot of each spilled virtual register,
  /// NotSpilled for the rest.
  std::vector<unsigned> Spilled;
  unsigned SpillCount = 0;
  unsigned IntervalCount = 0;
};

/// Runs linear scan over \p F for \p Desc. May rewrite \p F to insert
/// spill code. Returns the final assignment for lowerIR.
AllocationResult allocateRegistersLinearScan(IRFunction &F,
                                             const MachineDesc &Desc);

} // namespace igdt

#endif // IGDT_JIT_LINEARSCAN_H
