//===- tests/jit/PredecodeTest.cpp ---------------------------------------------===//
//
// The pre-decoded threaded dispatcher against the reference switch loop:
// byte-identical exits, register files, heap/stack effects and fuel
// accounting, plus the PredecodedCode build/cache machinery, ExitNote
// and OperandStackView.
//
//===----------------------------------------------------------------------===//

#include "jit/PredecodedCode.h"

#include "jit/CompiledCode.h"
#include "jit/IR.h"
#include "jit/Lowering.h"
#include "jit/MachineSim.h"
#include "support/CpuFeatures.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>

using namespace igdt;

namespace {

/// Everything observable after one engine run.
struct EngineRun {
  MachineExit E;
  std::array<std::uint64_t, 16> Regs = {};
  std::array<std::uint64_t, 8> FBits = {};
  std::uint64_t Probe = 0;
};

using SimSetup = std::function<void(MachineSim &, ObjectMemory &)>;
using SimProbe = std::function<std::uint64_t(MachineSim &, ObjectMemory &)>;

EngineRun runOne(bool Threaded, const std::vector<MInstr> &Code,
                 const SimOptions &Opts, const SimSetup &Setup = nullptr,
                 const SimProbe &Probe = nullptr) {
  ObjectMemory Mem(256 * 1024);
  MachineSim Sim(Mem, Opts);
  if (Setup)
    Setup(Sim, Mem);
  EngineRun R;
  if (Threaded) {
    PredecodedCode P = predecode(Code);
    R.E = Sim.runPredecoded(P, Code);
  } else {
    R.E = Sim.run(Code);
  }
  for (unsigned I = 0; I < 16; ++I)
    R.Regs[I] = Sim.reg(static_cast<MReg>(I));
  for (unsigned I = 0; I < 8; ++I) {
    double V = Sim.freg(static_cast<FReg>(I));
    std::memcpy(&R.FBits[I], &V, 8); // bitwise so NaNs compare
  }
  if (Probe)
    R.Probe = Probe(Sim, Mem);
  return R;
}

/// Runs \p Code through both engines (each on its own deterministic
/// heap) and asserts every observable is identical. Returns the
/// reference run for additional assertions.
EngineRun expectEngineIdentity(const std::vector<MInstr> &Code,
                               const SimOptions &Opts = SimOptions(),
                               const SimSetup &Setup = nullptr,
                               const SimProbe &Probe = nullptr) {
  EngineRun Ref = runOne(false, Code, Opts, Setup, Probe);
  EngineRun Fast = runOne(true, Code, Opts, Setup, Probe);
  EXPECT_EQ(int(Ref.E.Kind), int(Fast.E.Kind))
      << machExitKindName(Ref.E.Kind) << " vs "
      << machExitKindName(Fast.E.Kind);
  EXPECT_EQ(Ref.E.Marker, Fast.E.Marker);
  EXPECT_EQ(Ref.E.Selector, Fast.E.Selector);
  EXPECT_EQ(Ref.E.NumArgs, Fast.E.NumArgs);
  EXPECT_EQ(Ref.E.FaultAddress, Fast.E.FaultAddress);
  EXPECT_EQ(Ref.E.FuelLeft, Fast.E.FuelLeft);
  EXPECT_EQ(Ref.E.Note.str(), Fast.E.Note.str());
  EXPECT_EQ(Ref.Regs, Fast.Regs);
  EXPECT_EQ(Ref.FBits, Fast.FBits);
  EXPECT_EQ(Ref.Probe, Fast.Probe);
  return Ref;
}

std::vector<MInstr> lower(IRFunction &F) { return lowerIR(F, x64Desc()); }

/// acc = sum of 5..1 via a backward conditional branch; 23 dynamic
/// instructions, several basic blocks.
std::vector<MInstr> countdownLoop() {
  IRFunction F;
  IRBuilder B(F);
  std::int32_t Loop = B.makeLabel();
  B.movRI(preg(MReg::R0), 0);
  B.movRI(preg(MReg::R1), 5);
  B.placeLabel(Loop);
  B.add(preg(MReg::R0), preg(MReg::R1));
  B.subI(preg(MReg::R1), 1);
  B.cmpI(preg(MReg::R1), 0);
  B.jcc(MCond::Gt, Loop);
  B.ret();
  return lower(F);
}

TEST(PredecodeTest, LeadersAndBlockLengthsCoverTheProgram) {
  std::vector<MInstr> Code = countdownLoop();
  PredecodedCode P = predecode(Code);
  ASSERT_EQ(P.Instrs.size(), Code.size());
  // Leader block lengths tile the instruction vector exactly.
  std::size_t I = 0;
  std::uint32_t Blocks = 0;
  while (I < P.Instrs.size()) {
    ASSERT_GT(P.Instrs[I].BlockLen, 0u) << "non-leader at block start " << I;
    I += P.Instrs[I].BlockLen;
    ++Blocks;
  }
  EXPECT_EQ(I, P.Instrs.size());
  EXPECT_EQ(Blocks, P.BlockCount);
  EXPECT_GE(P.BlockCount, 3u); // entry, loop body, exit at minimum
}

TEST(PredecodeTest, UnconditionalJccDensifiesToJmp) {
  // Lowering emits a plain Jmp for IR-level jumps, so hand-assemble the
  // always-taken Jcc form the densifier folds.
  std::vector<MInstr> Code(3);
  Code[0].Op = MOp::Jcc;
  Code[0].Cond = MCond::Always;
  Code[0].Target = 2;
  Code[1].Op = MOp::Brk;
  Code[1].Aux = 1;
  Code[2].Op = MOp::Brk;
  Code[2].Aux = 2;
  PredecodedCode P = predecode(Code);
  EXPECT_EQ(P.Instrs[0].Handler, std::uint8_t(MOp::Jmp));
  EngineRun R = expectEngineIdentity(Code);
  EXPECT_EQ(R.E.Marker, 2u);
}

TEST(PredecodeTest, ArithmeticLoopEquivalence) {
  EngineRun R = expectEngineIdentity(countdownLoop());
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
  EXPECT_EQ(R.Regs[0], 15u);
}

TEST(PredecodeTest, FullOpcodeMixEquivalence) {
  // One program exercising shifts, division, bit ops, float arithmetic,
  // conversions and comparisons.
  IRFunction F;
  IRBuilder B(F);
  std::int32_t Skip = B.makeLabel();
  B.movRI(preg(MReg::R0), 1000);
  B.movRI(preg(MReg::R1), 7);
  B.quo(preg(MReg::R0), preg(MReg::R1)); // 142
  B.movRI(preg(MReg::R2), 1000);
  B.rem(preg(MReg::R2), preg(MReg::R1)); // 6
  B.shlI(preg(MReg::R2), 3);             // 48
  B.sarI(preg(MReg::R2), 1);             // 24
  B.andI(preg(MReg::R2), 0xFF);
  B.orI(preg(MReg::R2), 0x100);
  B.xorRR(preg(MReg::R0), preg(MReg::R2));
  B.fmovI(FReg::F0, 2.25);
  B.fmovI(FReg::F1, -0.5);
  B.fadd(FReg::F0, FReg::F1);
  B.fmul(FReg::F0, FReg::F0);
  B.fsqrt(FReg::F0);
  B.fcvtIF(FReg::F2, preg(MReg::R1));
  B.fdiv(FReg::F0, FReg::F2);
  B.ftrunc(preg(MReg::R3), FReg::F0);
  B.fcmp(FReg::F0, FReg::F1);
  B.jcc(MCond::Gt, Skip);
  B.brk(9);
  B.placeLabel(Skip);
  B.ret();
  EngineRun R = expectEngineIdentity(lower(F));
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
}

TEST(PredecodeTest, FuelSweepNeverOverOrUnderCharges) {
  // Every possible fuel value for a branchy program, including values
  // that land exactly on basic-block boundaries: the threaded engine's
  // block-level charging must reproduce the reference loop's
  // per-instruction accounting (23 dynamic instructions here) exactly,
  // in both exit kind and FuelLeft.
  std::vector<MInstr> Code = countdownLoop();
  for (std::uint64_t Fuel = 0; Fuel <= 26; ++Fuel) {
    SimOptions Opts;
    Opts.Fuel = Fuel;
    EngineRun R = expectEngineIdentity(Code, Opts);
    if (Fuel < 23)
      EXPECT_EQ(R.E.Kind, MachExitKind::FuelExhausted) << "fuel " << Fuel;
    else
      EXPECT_EQ(R.E.Kind, MachExitKind::Returned) << "fuel " << Fuel;
  }
}

TEST(PredecodeTest, DivideFaultMidBlockRefundsUnexecutedFuel) {
  // Five instructions, one basic block; the Quo faults as the third, so
  // exactly 3 fuel units must be consumed even though the threaded
  // engine charged all 5 up front.
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R0), 10);
  B.movRI(preg(MReg::R1), 0);
  B.quo(preg(MReg::R0), preg(MReg::R1));
  B.addI(preg(MReg::R0), 1);
  B.ret();
  SimOptions Opts;
  Opts.Fuel = 100;
  EngineRun R = expectEngineIdentity(lower(F), Opts);
  EXPECT_EQ(R.E.Kind, MachExitKind::DivideFault);
  EXPECT_EQ(R.E.FuelLeft, 97u);
}

TEST(PredecodeTest, UnalignedStackLoadAndStoreFaultIdentically) {
  for (bool IsStore : {false, true}) {
    IRFunction F;
    IRBuilder B(F);
    B.movRI(preg(MReg::R1),
            static_cast<std::int64_t>(igdt::abi::StackBase + 12));
    if (IsStore)
      B.store(preg(MReg::R0), preg(MReg::R1), 0);
    else
      B.load(preg(MReg::R0), preg(MReg::R1), 0);
    B.ret();
    EngineRun R = expectEngineIdentity(lower(F));
    EXPECT_EQ(R.E.Kind, MachExitKind::Segfault) << "store=" << IsStore;
    EXPECT_EQ(R.E.FaultAddress, igdt::abi::StackBase + 12) << "store=" << IsStore;
  }
}

TEST(PredecodeTest, MissingAccessorNotesAreIdentical) {
  // GP flavour.
  {
    IRFunction F;
    IRBuilder B(F);
    B.movRI(preg(MReg::R1), 0x10);
    B.load(preg(MReg::R5), preg(MReg::R1), 0);
    B.ret();
    SimOptions Opts;
    Opts.MissingGPAccessors.insert(std::uint8_t(MReg::R5));
    EngineRun R = expectEngineIdentity(lower(F), Opts);
    EXPECT_EQ(R.E.Kind, MachExitKind::SimulationError);
    EXPECT_NE(R.E.Note.find("r5"), std::string::npos);
  }
  // FP flavour.
  {
    IRFunction F;
    IRBuilder B(F);
    B.movRI(preg(MReg::R1), 0x10);
    B.fload(FReg::F5, preg(MReg::R1), 0);
    B.ret();
    SimOptions Opts;
    Opts.MissingFPAccessors.insert(std::uint8_t(FReg::F5));
    EngineRun R = expectEngineIdentity(lower(F), Opts);
    EXPECT_EQ(R.E.Kind, MachExitKind::SimulationError);
    EXPECT_NE(R.E.Note.find("f5"), std::string::npos);
  }
}

TEST(PredecodeTest, UnknownRuntimeFunctionEquivalence) {
  IRFunction F;
  IRBuilder B(F);
  B.callRT(static_cast<RTFunc>(200));
  B.ret();
  SimOptions Opts;
  Opts.Fuel = 10;
  EngineRun R = expectEngineIdentity(lower(F), Opts);
  EXPECT_EQ(R.E.Kind, MachExitKind::SimulationError);
  EXPECT_NE(R.E.Note.find("unknown runtime function"), std::string::npos);
}

TEST(PredecodeTest, TrampolineExitEquivalence) {
  IRFunction F;
  IRBuilder B(F);
  B.callTramp(/*Selector=*/42, /*NumArgs=*/2);
  B.ret();
  EngineRun R = expectEngineIdentity(lower(F));
  EXPECT_EQ(R.E.Kind, MachExitKind::TrampolineCall);
  EXPECT_EQ(R.E.Selector, 42u);
  EXPECT_EQ(R.E.NumArgs, 2u);
}

TEST(PredecodeTest, RunningPastTheEndIsIdentical) {
  // No terminator: both engines must report the ran-past-the-end
  // simulation error (the predecoded Target of -1 wraps the same way).
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R0), 1);
  EngineRun R = expectEngineIdentity(lower(F));
  EXPECT_EQ(R.E.Kind, MachExitKind::SimulationError);
  EXPECT_NE(R.E.Note.find("ran past the end"), std::string::npos);
}

TEST(PredecodeTest, HeapEffectsAreIdentical) {
  // Each engine gets its own deterministic heap; the allocation and the
  // stored slot must come out byte-identical.
  SimSetup Setup = [](MachineSim &Sim, ObjectMemory &Mem) {
    Oop Arr = Mem.allocateInstance(ArrayClass, 2);
    Sim.setReg(MReg::R1, Arr);
  };
  SimProbe Probe = [](MachineSim &Sim, ObjectMemory &Mem) {
    return Mem.fetchPointerSlot(Sim.reg(MReg::R1), 1).value_or(0);
  };
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R0), static_cast<std::int64_t>(smallIntOop(7)));
  B.store(preg(MReg::R0), preg(MReg::R1), igdt::abi::BodyOffset + 8);
  B.load(preg(MReg::R2), preg(MReg::R1), igdt::abi::BodyOffset + 8);
  B.ret();
  EngineRun R = expectEngineIdentity(lower(F), SimOptions(), Setup, Probe);
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
  EXPECT_EQ(R.Probe, smallIntOop(7));
}

TEST(PredecodeTest, RunCompiledCodeHonoursTheToggleAndCounts) {
  CompiledCode Code;
  {
    IRFunction F;
    IRBuilder B(F);
    B.movRI(preg(MReg::R0), 3);
    B.addI(preg(MReg::R0), 4);
    B.ret();
    Code.Code = lower(F);
  }
  // Predecode on: threaded runs, predecode built once then reused.
  {
    SimStats Stats;
    SimOptions Opts;
    Opts.Stats = &Stats;
    ObjectMemory Mem(64 * 1024);
    for (int I = 0; I < 3; ++I) {
      MachineSim Sim(Mem, Opts);
      MachineExit E = Sim.run(Code);
      EXPECT_EQ(E.Kind, MachExitKind::Returned);
      EXPECT_EQ(Sim.reg(MReg::R0), 7u);
    }
    EXPECT_EQ(Stats.Runs, 3u);
    if (simThreadedDispatchSupported()) {
      EXPECT_EQ(Stats.PredecodedRuns, 3u);
      EXPECT_EQ(Stats.PredecodeBuilds, 1u);
      EXPECT_EQ(Stats.PredecodeHits, 2u);
    } else {
      EXPECT_EQ(Stats.ReferenceRuns, 3u);
    }
  }
  // Predecode off: everything routes through the reference loop.
  {
    SimStats Stats;
    SimOptions Opts;
    Opts.Stats = &Stats;
    Opts.Engine = SimEngine::Switch;
    ObjectMemory Mem(64 * 1024);
    MachineSim Sim(Mem, Opts);
    MachineExit E = Sim.run(Code);
    EXPECT_EQ(E.Kind, MachExitKind::Returned);
    EXPECT_EQ(Stats.Runs, 1u);
    EXPECT_EQ(Stats.ReferenceRuns, 1u);
    EXPECT_EQ(Stats.PredecodedRuns, 0u);
  }
}

TEST(PredecodeTest, PredecodeIsSharedAcrossCompiledCodeCopies) {
  CompiledCode Code;
  IRFunction F;
  IRBuilder B(F);
  B.ret();
  Code.Code = lower(F);
  SimStats Stats;
  const PredecodedCode &P1 = predecodedFor(Code, &Stats);
  CompiledCode Copy = Code; // what a code-cache hit hands out
  const PredecodedCode &P2 = predecodedFor(Copy, &Stats);
  EXPECT_EQ(&P1, &P2);
  EXPECT_EQ(Stats.PredecodeBuilds, 1u);
  EXPECT_EQ(Stats.PredecodeHits, 1u);
}

TEST(PredecodeTest, ExitNoteSemantics) {
  ExitNote N;
  EXPECT_TRUE(N.empty());
  EXPECT_EQ(N.find("x"), std::string::npos);
  N = "divide fault at 7";
  EXPECT_FALSE(N.empty());
  EXPECT_EQ(N.str(), "divide fault at 7");
  EXPECT_EQ(N.find("fault"), 7u);
  EXPECT_EQ(N.find("nope"), std::string::npos);
  N.format("missing simulation accessor for %s%u", "r", 5u);
  EXPECT_EQ(N.str(), "missing simulation accessor for r5");
  // Truncation, never overrun.
  std::string Long(500, 'a');
  N.format("%s", Long.c_str());
  EXPECT_EQ(N.str().size(), 119u);
  EXPECT_EQ(N.str(), Long.substr(0, 119));
}

TEST(PredecodeTest, OperandStackViewMatchesTheLegacyCopy) {
  ObjectMemory Mem(64 * 1024);
  MachineSim Sim(Mem);
  Sim.setUpFrame(/*NumLocals=*/2);
  Sim.pushOperand(smallIntOop(1));
  Sim.pushOperand(smallIntOop(2));
  Sim.pushOperand(smallIntOop(3));
  std::vector<std::uint64_t> Legacy = Sim.operandStack();
  OperandStackView View = Sim.operandStackView();
  ASSERT_EQ(View.size(), Legacy.size());
  for (std::size_t I = 0; I < Legacy.size(); ++I)
    EXPECT_EQ(View[I], Legacy[I]);

  // Pathological SP (defective code drove it out of the stack region):
  // the view must fall back to the same bounds-checked reads the copy
  // performs, zeros included.
  Sim.setReg(MReg::SP, Sim.reg(MReg::SP) + 4 * 8 + 4);
  std::vector<std::uint64_t> LegacyBad = Sim.operandStack();
  OperandStackView Bad = Sim.operandStackView();
  ASSERT_EQ(Bad.size(), LegacyBad.size());
  for (std::size_t I = 0; I < LegacyBad.size(); ++I)
    EXPECT_EQ(Bad[I], LegacyBad[I]);
}

} // namespace
