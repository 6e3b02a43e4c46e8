//===- jit/Lowering.h - IR to machine code --------------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers an IR fragment to machine code for a target description:
/// resolves labels to instruction indices, maps virtual registers to
/// machine registers (the caller provides the assignment; precolored
/// vregs map to themselves) and legalises immediates the target cannot
/// encode through the scratch register — the visible difference between
/// the x64-like and arm-like back-ends.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_JIT_LOWERING_H
#define IGDT_JIT_LOWERING_H

#include "jit/IR.h"

#include <vector>

namespace igdt {

/// Lowers \p F for \p Desc. \p Assignment is indexed by virtual
/// register id and gives the machine register of every virtual register
/// (ids >= FirstVirtualReg) \p F uses; precolored ids map implicitly.
/// The result holds no spare capacity.
std::vector<MInstr> lowerIR(const IRFunction &F, const MachineDesc &Desc,
                            const std::vector<MReg> &Assignment = {});

} // namespace igdt

#endif // IGDT_JIT_LOWERING_H
