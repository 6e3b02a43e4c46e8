//===- jit/LinearScan.cpp - Linear-scan register allocation --------------------===//

#include "jit/LinearScan.h"

#include "jit/ABI.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace igdt;

namespace {

bool readsA(IROp Op) {
  switch (Op) {
  case IROp::MovRI:
  case IROp::Load:
  case IROp::Load8:
  case IROp::FTrunc:
  case IROp::FBitsFromF:
  case IROp::FBitsFromF32:
    return false; // A is written only
  default:
    return true;
  }
}

bool writesA(IROp Op) {
  switch (Op) {
  case IROp::Store:
  case IROp::Store8:
  case IROp::Cmp:
  case IROp::CmpI:
  case IROp::FCvtIF:
  case IROp::FBitsToF:
  case IROp::FBits32ToF:
    return false; // A is read only
  default:
    return true;
  }
}

bool usesB(IROp Op) {
  switch (Op) {
  case IROp::Load:
  case IROp::Store:
  case IROp::Load8:
  case IROp::Store8:
  case IROp::FLoad:
  case IROp::Add:
  case IROp::Sub:
  case IROp::Mul:
  case IROp::And:
  case IROp::Or:
  case IROp::Xor:
  case IROp::Shl:
  case IROp::Sar:
  case IROp::Quo:
  case IROp::Rem:
  case IROp::Cmp:
  case IROp::MovRR:
    return true;
  default:
    return false;
  }
}

struct Interval {
  VReg Reg;
  std::size_t Start;
  std::size_t End;
};

/// Start of an interval no instruction touches, and position of a label
/// the fragment never places.
constexpr std::size_t Unset = ~std::size_t(0);

} // namespace

AllocationResult igdt::allocateRegistersLinearScan(IRFunction &F,
                                                   const MachineDesc &Desc) {
  AllocationResult Result;

  // Live intervals, indexed by vreg id - FirstVirtualReg: first position
  // touching the vreg to the last.
  std::vector<Interval> Intervals(
      F.NextVReg > FirstVirtualReg ? F.NextVReg - FirstVirtualReg : 0,
      Interval{NoVReg, Unset, 0});
  auto Touch = [&](VReg V, std::size_t Pos) {
    if (V == NoVReg || V < FirstVirtualReg)
      return;
    std::size_t Idx = V - FirstVirtualReg;
    if (Idx >= Intervals.size())
      Intervals.resize(Idx + 1, Interval{NoVReg, Unset, 0});
    Interval &Iv = Intervals[Idx];
    if (Iv.Start == Unset)
      Iv = Interval{V, Pos, Pos};
    else
      Iv.End = Pos;
  };

  std::vector<std::size_t> LabelPos(static_cast<std::size_t>(F.NumLabels),
                                    Unset);
  for (std::size_t Pos = 0; Pos < F.Code.size(); ++Pos)
    if (F.Code[Pos].Op == IROp::Label)
      LabelPos[static_cast<std::size_t>(F.Code[Pos].Target)] = Pos;

  for (std::size_t Pos = 0; Pos < F.Code.size(); ++Pos) {
    const IRInstr &I = F.Code[Pos];
    Touch(I.A, Pos);
    if (usesB(I.Op))
      Touch(I.B, Pos);
  }

  // Backward branches: any interval overlapping [target, branch] must
  // survive the whole loop body.
  for (std::size_t Pos = 0; Pos < F.Code.size(); ++Pos) {
    const IRInstr &I = F.Code[Pos];
    if (I.Op != IROp::Jmp && I.Op != IROp::Jcc)
      continue;
    if (I.Target < 0 || I.Target >= F.NumLabels)
      continue;
    std::size_t Target = LabelPos[static_cast<std::size_t>(I.Target)];
    if (Target >= Pos)
      continue; // forward, or to a label never placed
    for (Interval &Iv : Intervals)
      if (Iv.Start != Unset && Iv.Start <= Pos && Iv.End >= Target &&
          Iv.End < Pos)
        Iv.End = Pos;
  }

  // Registers the allocator may hand out: allocatable minus any machine
  // register the fragment already uses explicitly (precolored operands).
  static_assert(FirstVirtualReg <= 32, "precolored ids index a 32-bit mask");
  std::uint32_t Reserved = 0;
  for (const IRInstr &I : F.Code) {
    if (I.A != NoVReg && I.A < FirstVirtualReg)
      Reserved |= 1u << I.A;
    if (I.B != NoVReg && I.B < FirstVirtualReg)
      Reserved |= 1u << I.B;
  }
  std::vector<MReg> Free;
  Free.reserve(Desc.NumAllocatableRegs);
  for (unsigned R = 0; R < Desc.NumAllocatableRegs; ++R)
    if (!(Reserved >> R & 1u))
      Free.push_back(static_cast<MReg>(R));

  // Classic linear scan. std::sort is not stable: intervals sharing a
  // start keep the order they are fed in, ascending vreg id.
  std::vector<Interval> Sorted;
  Sorted.reserve(Intervals.size());
  for (const Interval &Iv : Intervals)
    if (Iv.Start != Unset)
      Sorted.push_back(Iv);
  Result.IntervalCount = static_cast<unsigned>(Sorted.size());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    return A.Start < B.Start;
  });

  struct Active {
    Interval Iv;
    MReg Reg;
  };
  std::vector<Active> ActiveList;
  ActiveList.reserve(Free.size() + 1);
  std::size_t TableSize = FirstVirtualReg + Intervals.size();
  Result.Assignment.assign(TableSize, MReg::NoReg);
  Result.Spilled.assign(TableSize, AllocationResult::NotSpilled);

  for (const Interval &Iv : Sorted) {
    // Expire finished intervals.
    for (auto It = ActiveList.begin(); It != ActiveList.end();) {
      if (It->Iv.End < Iv.Start) {
        Free.push_back(It->Reg);
        It = ActiveList.erase(It);
      } else {
        ++It;
      }
    }
    if (!Free.empty()) {
      MReg R = Free.back();
      Free.pop_back();
      Result.Assignment[Iv.Reg] = R;
      ActiveList.push_back({Iv, R});
      continue;
    }
    // Spill the active interval that ends last (or this one).
    auto Furthest = std::max_element(
        ActiveList.begin(), ActiveList.end(),
        [](const Active &A, const Active &B) { return A.Iv.End < B.Iv.End; });
    if (Furthest != ActiveList.end() && Furthest->Iv.End > Iv.End) {
      MReg R = Furthest->Reg;
      Result.Assignment[Iv.Reg] = R;
      Result.Spilled[Furthest->Iv.Reg] = Result.SpillCount++;
      Result.Assignment[Furthest->Iv.Reg] = MReg::NoReg;
      ActiveList.erase(Furthest);
      ActiveList.push_back({Iv, R});
    } else {
      Result.Spilled[Iv.Reg] = Result.SpillCount++;
    }
  }

  if (Result.SpillCount == 0)
    return Result;

  // Rewrite spilled uses/defs through the scratch registers. R10 carries
  // operand A, the target scratch register carries operand B.
  assert(Result.SpillCount <= abi::NumSpillSlots && "spill area overflow");
  IRFunction Rewritten;
  Rewritten.NumLabels = F.NumLabels;
  Rewritten.NextVReg = F.NextVReg;
  IRBuilder RB(Rewritten);

  const VReg ScratchA = preg(MReg::R10);
  const VReg ScratchB = preg(Desc.ScratchReg);
  auto SlotOf = [&](VReg V) {
    return V != NoVReg && V >= FirstVirtualReg
               ? Result.Spilled[V]
               : AllocationResult::NotSpilled;
  };

  for (const IRInstr &I : F.Code) {
    IRInstr New = I;
    unsigned SlotA = SlotOf(I.A);
    unsigned SlotB = usesB(I.Op) ? SlotOf(I.B) : AllocationResult::NotSpilled;
    if (SlotA != AllocationResult::NotSpilled) {
      if (readsA(I.Op))
        RB.load(ScratchA, preg(MReg::FP), abi::spillOffset(SlotA));
      New.A = ScratchA;
    }
    if (SlotB != AllocationResult::NotSpilled) {
      RB.load(ScratchB, preg(MReg::FP), abi::spillOffset(SlotB));
      New.B = ScratchB;
    }
    Rewritten.push(New);
    if (SlotA != AllocationResult::NotSpilled && writesA(I.Op))
      RB.store(ScratchA, preg(MReg::FP), abi::spillOffset(SlotA));
  }
  F = std::move(Rewritten);
  return Result;
}
