//===- jit/Lowering.cpp - IR to machine code ---------------------------------===//

#include "jit/Lowering.h"

#include "support/Compiler.h"

using namespace igdt;

namespace {

MOp machineOpFor(IROp Op) {
  switch (Op) {
  case IROp::MovRR:
    return MOp::MovRR;
  case IROp::MovRI:
    return MOp::MovRI;
  case IROp::Load:
    return MOp::Load;
  case IROp::Store:
    return MOp::Store;
  case IROp::Load8:
    return MOp::Load8;
  case IROp::Store8:
    return MOp::Store8;
  case IROp::Add:
    return MOp::Add;
  case IROp::AddI:
    return MOp::AddI;
  case IROp::Sub:
    return MOp::Sub;
  case IROp::SubI:
    return MOp::SubI;
  case IROp::Mul:
    return MOp::Mul;
  case IROp::And:
    return MOp::And;
  case IROp::AndI:
    return MOp::AndI;
  case IROp::Or:
    return MOp::Or;
  case IROp::OrI:
    return MOp::OrI;
  case IROp::Xor:
    return MOp::Xor;
  case IROp::Shl:
    return MOp::Shl;
  case IROp::ShlI:
    return MOp::ShlI;
  case IROp::Sar:
    return MOp::Sar;
  case IROp::SarI:
    return MOp::SarI;
  case IROp::Quo:
    return MOp::Quo;
  case IROp::Rem:
    return MOp::Rem;
  case IROp::Cmp:
    return MOp::Cmp;
  case IROp::CmpI:
    return MOp::CmpI;
  case IROp::Jmp:
    return MOp::Jmp;
  case IROp::Jcc:
    return MOp::Jcc;
  case IROp::CallRT:
    return MOp::CallRT;
  case IROp::CallTramp:
    return MOp::CallTramp;
  case IROp::Ret:
    return MOp::Ret;
  case IROp::Brk:
    return MOp::Brk;
  case IROp::FLoad:
    return MOp::FLoad;
  case IROp::FMovI:
    return MOp::FMovI;
  case IROp::FMovFF:
    return MOp::FMovFF;
  case IROp::FAdd:
    return MOp::FAdd;
  case IROp::FSub:
    return MOp::FSub;
  case IROp::FMul:
    return MOp::FMul;
  case IROp::FDiv:
    return MOp::FDiv;
  case IROp::FSqrt:
    return MOp::FSqrt;
  case IROp::FTruncF:
    return MOp::FTruncF;
  case IROp::FCvtIF:
    return MOp::FCvtIF;
  case IROp::FTrunc:
    return MOp::FTrunc;
  case IROp::FCmp:
    return MOp::FCmp;
  case IROp::FBitsToF:
    return MOp::FBitsToF;
  case IROp::FBitsFromF:
    return MOp::FBitsFromF;
  case IROp::FBits32ToF:
    return MOp::FBits32ToF;
  case IROp::FBitsFromF32:
    return MOp::FBitsFromF32;
  case IROp::Label:
    igdt_unreachable("labels are not machine instructions");
  }
  igdt_unreachable("unhandled IR op");
}

/// Reg-immediate opcodes whose immediates the arm-like target restricts,
/// paired with their reg-reg form.
bool immediateForm(IROp Op, MOp &RegForm) {
  switch (Op) {
  case IROp::AddI:
    RegForm = MOp::Add;
    return true;
  case IROp::SubI:
    RegForm = MOp::Sub;
    return true;
  case IROp::AndI:
    RegForm = MOp::And;
    return true;
  case IROp::OrI:
    RegForm = MOp::Or;
    return true;
  case IROp::CmpI:
    RegForm = MOp::Cmp;
    return true;
  default:
    return false;
  }
}

} // namespace

std::vector<MInstr> igdt::lowerIR(const IRFunction &F,
                                  const MachineDesc &Desc,
                                  const std::vector<MReg> &Assignment) {
  auto MapReg = [&](VReg V) -> MReg {
    if (V == NoVReg)
      return MReg::NoReg;
    if (V < FirstVirtualReg)
      return static_cast<MReg>(V);
    assert(V < Assignment.size() && Assignment[V] != MReg::NoReg &&
           "unassigned virtual register");
    return Assignment[V];
  };
  auto NeedsLegalise = [&](const IRInstr &I, MOp &RegForm) {
    return immediateForm(I.Op, RegForm) &&
           (I.Imm > Desc.MaxOperandImmediate ||
            I.Imm < -Desc.MaxOperandImmediate);
  };

  // Pass 1: place every label and size the code exactly. A label's
  // position is the index of the next machine instruction.
  std::vector<std::int32_t> LabelPos(static_cast<std::size_t>(F.NumLabels),
                                     -1);
  std::size_t Size = 0;
  for (const IRInstr &I : F.Code) {
    MOp RegForm;
    if (I.Op == IROp::Label) {
      assert(I.Target >= 0 && I.Target < F.NumLabels && "unknown label");
      LabelPos[static_cast<std::size_t>(I.Target)] =
          static_cast<std::int32_t>(Size);
    } else {
      Size += NeedsLegalise(I, RegForm) ? 2 : 1;
    }
  }

  // Pass 2: emit, with branch targets resolved as they are emitted.
  std::vector<MInstr> Code;
  Code.reserve(Size);
  for (const IRInstr &I : F.Code) {
    if (I.Op == IROp::Label)
      continue;

    MOp RegForm;
    if (NeedsLegalise(I, RegForm)) {
      // mov scratch, #imm ; op A, scratch
      MInstr Mov;
      Mov.Op = MOp::MovRI;
      Mov.A = Desc.ScratchReg;
      Mov.Imm = I.Imm;
      Code.push_back(Mov);

      MInstr Op;
      Op.Op = RegForm;
      Op.A = MapReg(I.A);
      Op.B = Desc.ScratchReg;
      Code.push_back(Op);
      continue;
    }

    MInstr M;
    M.Op = machineOpFor(I.Op);
    M.Cond = I.Cond;
    M.A = MapReg(I.A);
    M.B = MapReg(I.B);
    M.FA = I.FA;
    M.FB = I.FB;
    M.Imm = I.Imm;
    M.Aux = I.Aux;
    if (I.Op == IROp::Jmp || I.Op == IROp::Jcc) {
      assert(I.Target >= 0 && I.Target < F.NumLabels &&
             LabelPos[static_cast<std::size_t>(I.Target)] >= 0 &&
             "branch to unplaced label");
      M.Target = LabelPos[static_cast<std::size_t>(I.Target)];
    }
    Code.push_back(M);
  }
  return Code;
}
