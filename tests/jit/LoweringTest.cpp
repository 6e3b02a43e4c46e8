//===- tests/jit/LoweringTest.cpp ----------------------------------------------------===//
//
// IR lowering: label resolution, register mapping, and per-target
// immediate legalisation.
//
//===----------------------------------------------------------------------===//

#include "jit/Lowering.h"

#include "vm/Oop.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

TEST(LoweringTest, ResolvesForwardAndBackwardLabels) {
  IRFunction F;
  IRBuilder B(F);
  std::int32_t Back = B.makeLabel();
  std::int32_t Fwd = B.makeLabel();
  B.placeLabel(Back);
  B.movRI(preg(MReg::R0), 1); // index 0
  B.jcc(MCond::Eq, Fwd);      // index 1
  B.jmp(Back);                // index 2
  B.placeLabel(Fwd);
  B.ret(); // index 3

  std::vector<MInstr> Code = lowerIR(F, x64Desc());
  ASSERT_EQ(Code.size(), 4u);
  EXPECT_EQ(Code[1].Op, MOp::Jcc);
  EXPECT_EQ(Code[1].Target, 3);
  EXPECT_EQ(Code[2].Op, MOp::Jmp);
  EXPECT_EQ(Code[2].Target, 0);
}

TEST(LoweringTest, LabelsProduceNoInstructions) {
  IRFunction F;
  IRBuilder B(F);
  std::int32_t L = B.makeLabel();
  B.placeLabel(L);
  B.ret();
  EXPECT_EQ(lowerIR(F, x64Desc()).size(), 1u);
}

TEST(LoweringTest, MapsVirtualRegisters) {
  IRFunction F;
  IRBuilder B(F);
  VReg V = B.newVReg();
  B.movRI(V, 5);
  B.movRR(preg(MReg::R0), V);
  B.ret();
  std::vector<MReg> Assignment(V + 1u, MReg::NoReg);
  Assignment[V] = MReg::R7;
  std::vector<MInstr> Code = lowerIR(F, x64Desc(), Assignment);
  EXPECT_EQ(Code[0].A, MReg::R7);
  EXPECT_EQ(Code[1].B, MReg::R7);
}

TEST(LoweringTest, X64KeepsLargeImmediatesInline) {
  IRFunction F;
  IRBuilder B(F);
  B.addI(preg(MReg::R0), std::int64_t(1) << 40);
  std::vector<MInstr> Code = lowerIR(F, x64Desc());
  ASSERT_EQ(Code.size(), 1u);
  EXPECT_EQ(Code[0].Op, MOp::AddI);
}

TEST(LoweringTest, ArmLegalisesLargeImmediatesThroughScratch) {
  IRFunction F;
  IRBuilder B(F);
  B.addI(preg(MReg::R0), std::int64_t(1) << 40);
  std::vector<MInstr> Code = lowerIR(F, armDesc());
  ASSERT_EQ(Code.size(), 2u);
  EXPECT_EQ(Code[0].Op, MOp::MovRI);
  EXPECT_EQ(Code[0].A, armDesc().ScratchReg);
  EXPECT_EQ(Code[1].Op, MOp::Add);
  EXPECT_EQ(Code[1].B, armDesc().ScratchReg);
}

TEST(LoweringTest, ArmKeepsSmallImmediatesInline) {
  IRFunction F;
  IRBuilder B(F);
  B.addI(preg(MReg::R0), 100);
  B.subI(preg(MReg::R0), -100);
  B.cmpI(preg(MReg::R0), 32000);
  std::vector<MInstr> Code = lowerIR(F, armDesc());
  EXPECT_EQ(Code.size(), 3u);
}

TEST(LoweringTest, ArmLegalisesNegativeLargeImmediates) {
  IRFunction F;
  IRBuilder B(F);
  B.cmpI(preg(MReg::R0), MinSmallInt);
  std::vector<MInstr> Code = lowerIR(F, armDesc());
  ASSERT_EQ(Code.size(), 2u);
  EXPECT_EQ(Code[0].Op, MOp::MovRI);
  EXPECT_EQ(Code[1].Op, MOp::Cmp);
}

TEST(LoweringTest, LegalisationPreservesBranchTargets) {
  // Branch targets must account for the expansion of earlier
  // instructions.
  IRFunction F;
  IRBuilder B(F);
  std::int32_t L = B.makeLabel();
  B.addI(preg(MReg::R0), std::int64_t(1) << 40); // expands to 2 on arm
  B.jcc(MCond::Ov, L);
  B.movRI(preg(MReg::R1), 0);
  B.placeLabel(L);
  B.ret();
  std::vector<MInstr> Arm = lowerIR(F, armDesc());
  // mov scratch, add, jcc, mov, ret -> jcc targets the ret at index 4.
  ASSERT_EQ(Arm.size(), 5u);
  EXPECT_EQ(Arm[2].Op, MOp::Jcc);
  EXPECT_EQ(Arm[2].Target, 4);
}

TEST(LoweringTest, MovRIIsNeverLegalised) {
  // MovRI carries full 64-bit immediates on both targets (real ISAs
  // synthesise them; the simulator does not care).
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R0), std::int64_t(1) << 60);
  EXPECT_EQ(lowerIR(F, armDesc()).size(), 1u);
}

TEST(LoweringTest, ResolvesLabelsPlacedOutOfCreationOrder) {
  // Labels are placed in another order than they were made, two share a
  // position, one is placed after the last instruction, and on arm the
  // legalised compare shifts every later position by one.
  IRFunction F;
  IRBuilder B(F);
  std::int32_t End = B.makeLabel();
  std::int32_t Top = B.makeLabel();
  std::int32_t Mid = B.makeLabel();
  std::int32_t AlsoMid = B.makeLabel();
  B.placeLabel(Top);
  B.cmpI(preg(MReg::R0), std::int64_t(1) << 20);
  B.jcc(MCond::Eq, End); // forward, to a label placed later
  B.jcc(MCond::Lt, Mid); // forward, to the next instruction
  B.placeLabel(Mid);
  B.placeLabel(AlsoMid);
  B.subI(preg(MReg::R0), 1);
  B.jcc(MCond::Ne, AlsoMid); // backward
  B.jmp(Top);                // backward, to the first instruction
  B.placeLabel(End);

  for (const MachineDesc *Desc : {&x64Desc(), &armDesc()}) {
    std::int32_t Shift = Desc == &armDesc() ? 1 : 0;
    std::vector<MInstr> Code = lowerIR(F, *Desc);
    ASSERT_EQ(Code.size(), std::size_t(6 + Shift)) << Desc->Name;
    EXPECT_EQ(Code[1 + Shift].Op, MOp::Jcc);
    EXPECT_EQ(Code[1 + Shift].Target, 6 + Shift) << Desc->Name;
    EXPECT_EQ(Code[2 + Shift].Target, 3 + Shift) << Desc->Name;
    EXPECT_EQ(Code[3 + Shift].Op, MOp::SubI);
    EXPECT_EQ(Code[4 + Shift].Target, 3 + Shift) << Desc->Name;
    EXPECT_EQ(Code[5 + Shift].Op, MOp::Jmp);
    EXPECT_EQ(Code[5 + Shift].Target, 0) << Desc->Name;
  }
}

} // namespace
