//===- tests/jit/LinearScanTest.cpp ------------------------------------------------===//
//
// The linear-scan register allocator: assignment, reuse, spilling and
// end-to-end execution equivalence after allocation.
//
//===----------------------------------------------------------------------===//

#include "jit/LinearScan.h"

#include "jit/Lowering.h"
#include "jit/MachineSim.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <set>

using namespace igdt;

namespace {

TEST(LinearScanTest, AssignsDistinctRegistersToOverlappingIntervals) {
  IRFunction F;
  IRBuilder B(F);
  VReg A = B.newVReg();
  VReg C = B.newVReg();
  B.movRI(A, 1);
  B.movRI(C, 2);
  B.add(A, C); // both live here
  B.movRR(preg(MReg::R0), A);
  B.ret();
  AllocationResult R = allocateRegistersLinearScan(F, x64Desc());
  ASSERT_NE(R.Assignment[A], MReg::NoReg);
  ASSERT_NE(R.Assignment[C], MReg::NoReg);
  EXPECT_NE(R.Assignment[A], R.Assignment[C]);
  EXPECT_EQ(R.SpillCount, 0u);
}

TEST(LinearScanTest, ReusesRegistersAfterIntervalsEnd) {
  IRFunction F;
  IRBuilder B(F);
  std::vector<VReg> Regs;
  // 20 sequential, non-overlapping intervals.
  for (int I = 0; I < 20; ++I) {
    VReg V = B.newVReg();
    B.movRI(V, I);
    B.movRR(preg(MReg::R0), V);
    Regs.push_back(V);
  }
  B.ret();
  AllocationResult R = allocateRegistersLinearScan(F, x64Desc());
  EXPECT_EQ(R.SpillCount, 0u);
  EXPECT_EQ(R.IntervalCount, 20u);
}

TEST(LinearScanTest, SpillsUnderPressure) {
  // More simultaneously-live values than the arm-like target has
  // registers.
  IRFunction F;
  IRBuilder B(F);
  std::vector<VReg> Regs;
  for (int I = 0; I < 10; ++I) {
    VReg V = B.newVReg();
    B.movRI(V, I);
    Regs.push_back(V);
  }
  // All still live: sum them.
  VReg Acc = B.newVReg();
  B.movRI(Acc, 0);
  for (VReg V : Regs)
    B.add(Acc, V);
  B.movRR(preg(MReg::R0), Acc);
  B.ret();

  AllocationResult R = allocateRegistersLinearScan(F, armDesc());
  EXPECT_GT(R.SpillCount, 0u);

  // The rewritten program still computes 0+1+...+9 == 45.
  ObjectMemory Mem(64 * 1024);
  MachineSim Sim(Mem);
  Sim.setUpFrame(0); // FP needed for spill slots
  MachineExit E = Sim.run(lowerIR(F, armDesc(), R.Assignment));
  EXPECT_EQ(E.Kind, MachExitKind::Returned);
  EXPECT_EQ(Sim.reg(MReg::R0), 45u);
}

TEST(LinearScanTest, AllocationPreservesSemanticsOnBothTargets) {
  for (const MachineDesc *Desc : {&x64Desc(), &armDesc()}) {
    IRFunction F;
    IRBuilder B(F);
    VReg A = B.newVReg();
    VReg C = B.newVReg();
    VReg D = B.newVReg();
    B.movRI(A, 6);
    B.movRI(C, 7);
    B.movRR(D, A);
    B.mul(D, C);
    B.sub(D, A); // 42 - 6 = 36
    B.movRR(preg(MReg::R0), D);
    B.ret();
    AllocationResult R = allocateRegistersLinearScan(F, *Desc);
    ObjectMemory Mem(64 * 1024);
    MachineSim Sim(Mem);
    Sim.setUpFrame(0);
    MachineExit E = Sim.run(lowerIR(F, *Desc, R.Assignment));
    ASSERT_EQ(E.Kind, MachExitKind::Returned) << Desc->Name;
    EXPECT_EQ(Sim.reg(MReg::R0), 36u) << Desc->Name;
  }
}

TEST(LinearScanTest, AvoidsPrecoloredRegisters) {
  IRFunction F;
  IRBuilder B(F);
  // R0 and R1 used explicitly; virtual registers must avoid them while
  // they could clash.
  B.movRI(preg(MReg::R0), 1);
  B.movRI(preg(MReg::R1), 2);
  VReg V = B.newVReg();
  B.movRI(V, 3);
  B.add(preg(MReg::R0), preg(MReg::R1));
  B.add(preg(MReg::R0), V);
  B.ret();
  AllocationResult R = allocateRegistersLinearScan(F, x64Desc());
  ASSERT_NE(R.Assignment[V], MReg::NoReg);
  EXPECT_NE(R.Assignment[V], MReg::R0);
  EXPECT_NE(R.Assignment[V], MReg::R1);
}

TEST(LinearScanTest, LoopBackEdgeExtendsIntervals) {
  IRFunction F;
  IRBuilder B(F);
  VReg Counter = B.newVReg();
  VReg Acc = B.newVReg();
  B.movRI(Counter, 5);
  B.movRI(Acc, 0);
  std::int32_t Loop = B.makeLabel();
  std::int32_t Done = B.makeLabel();
  B.placeLabel(Loop);
  B.cmpI(Counter, 0);
  B.jcc(MCond::Eq, Done);
  B.addI(Acc, 2);
  B.subI(Counter, 1);
  B.jmp(Loop);
  B.placeLabel(Done);
  B.movRR(preg(MReg::R0), Acc);
  B.ret();

  AllocationResult R = allocateRegistersLinearScan(F, x64Desc());
  ObjectMemory Mem(64 * 1024);
  MachineSim Sim(Mem);
  Sim.setUpFrame(0);
  MachineExit E = Sim.run(lowerIR(F, x64Desc(), R.Assignment));
  ASSERT_EQ(E.Kind, MachExitKind::Returned);
  EXPECT_EQ(Sim.reg(MReg::R0), 10u);
}

TEST(LinearScanTest, EqualStartIntervalsKeepTheirPinnedAssignment) {
  // 18 values in 9 pairs, the two of a pair first touched by the same
  // instruction (so they share a start), all live until a scrambled
  // final use, plus the accumulator: 19 intervals, more than the
  // x64-like target's registers and more than std::sort handles by
  // stable insertion sort. std::sort is not stable, so the assignment
  // and the spill choices depend on the order equal-start intervals are
  // fed in (ascending vreg id). The digest of the lowered code pins them.
  IRFunction F;
  IRBuilder B(F);
  std::vector<VReg> Regs;
  for (int I = 0; I < 9; ++I) {
    VReg X = B.newVReg();
    VReg Y = B.newVReg();
    B.movRR(X, Y);
    Regs.push_back(X);
    Regs.push_back(Y);
  }
  VReg Acc = B.newVReg();
  B.movRI(Acc, 0);
  for (std::size_t I = 0; I < Regs.size(); ++I)
    B.add(Acc, Regs[(I * 7) % Regs.size()]);
  B.movRR(preg(MReg::R0), Acc);
  B.ret();

  AllocationResult R = allocateRegistersLinearScan(F, x64Desc());
  EXPECT_EQ(R.IntervalCount, 19u);
  EXPECT_EQ(R.SpillCount, 10u);
  std::vector<MInstr> Code = lowerIR(F, x64Desc(), R.Assignment);
  EXPECT_EQ(Code.size(), 90u);
  std::uint64_t Digest = stableHash64(printMachineCode(Code));
  EXPECT_EQ(Digest, 0xbf5ccd49668f18eeull) << toHex(Digest);
}

} // namespace
