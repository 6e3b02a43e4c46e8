//===- tests/jit/NativeEngineTest.cpp ------------------------------------------===//
//
// The native x86-64 tier (runNativeTier, the cross-engine oracle's
// probe) against the reference switch loop and the threaded dispatcher:
// byte-identical exits, register files, fuel accounting, heap/stack
// effects, plus the NativeCode build/cache machinery, the IGDT_NO_NATIVE
// no-probe path and the deliberate miscompile probe the cross-engine
// oracle is validated with.
//
//===----------------------------------------------------------------------===//

#include "jit/native/NativeCode.h"

#include "differential/DifferentialTester.h"
#include "jit/CompiledCode.h"
#include "jit/IR.h"
#include "jit/Lowering.h"
#include "jit/MachineSim.h"
#include "jit/native/NativeEngine.h"
#include "support/CpuFeatures.h"
#include "support/IntMath.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>

using namespace igdt;

namespace {

/// Everything observable after one engine run.
struct EngineRun {
  MachineExit E;
  std::array<std::uint64_t, 16> Regs = {};
  std::array<std::uint64_t, 8> FBits = {};
  std::uint64_t StackHash = 0;
  std::uint64_t HeapHash = 0;
  std::uint64_t Probe = 0;
};

using SimSetup = std::function<void(MachineSim &, ObjectMemory &)>;
using SimProbe = std::function<std::uint64_t(MachineSim &, ObjectMemory &)>;

/// What executes a run: the two simulator engines, or the native tier
/// the cross-engine oracle probes with.
enum class Tier { Switch, Threaded, Native };

const char *tierName(Tier T) {
  return T == Tier::Switch ? "switch" : T == Tier::Threaded ? "threaded"
                                                            : "native";
}

/// Runs \p Code once on \p T. The native tier is entered through
/// runNativeTier, as the oracle enters it; a host without the tier runs
/// the threaded engine instead, so identity claims hold everywhere.
MachineExit runOn(Tier T, MachineSim &Sim, const CompiledCode &Code) {
  if (T == Tier::Native && nativeTierSupported())
    return runNativeTier(Sim, Code);
  return Sim.run(Code);
}

EngineRun runOne(Tier T, const CompiledCode &Code, SimOptions Opts,
                 const SimSetup &Setup = nullptr,
                 const SimProbe &Probe = nullptr) {
  Opts.Engine = T == Tier::Switch ? SimEngine::Switch : SimEngine::Threaded;
  ObjectMemory Mem(256 * 1024);
  MachineSim Sim(Mem, Opts);
  if (Setup)
    Setup(Sim, Mem);
  EngineRun R;
  R.E = runOn(T, Sim, Code);
  for (unsigned I = 0; I < 16; ++I)
    R.Regs[I] = Sim.reg(static_cast<MReg>(I));
  for (unsigned I = 0; I < 8; ++I) {
    double V = Sim.freg(static_cast<FReg>(I));
    std::memcpy(&R.FBits[I], &V, 8); // bitwise so NaNs compare
  }
  R.StackHash = Sim.stackHash();
  R.HeapHash = Mem.contentHash();
  if (Probe)
    R.Probe = Probe(Sim, Mem);
  return R;
}

/// Runs \p Code on all three tiers (each on its own deterministic heap)
/// and asserts every observable is identical. Returns the reference run
/// for additional assertions. On hosts without the native tier the
/// Native run is a second threaded run, so the identity claim stays
/// meaningful (and trivially true) everywhere.
EngineRun expectTierIdentity(const CompiledCode &Code,
                             const SimOptions &Opts = SimOptions(),
                             const SimSetup &Setup = nullptr,
                             const SimProbe &Probe = nullptr) {
  EngineRun Ref = runOne(Tier::Switch, Code, Opts, Setup, Probe);
  for (Tier T : {Tier::Threaded, Tier::Native}) {
    EngineRun Run = runOne(T, Code, Opts, Setup, Probe);
    const char *Name = tierName(T);
    EXPECT_EQ(int(Ref.E.Kind), int(Run.E.Kind))
        << Name << ": " << machExitKindName(Ref.E.Kind) << " vs "
        << machExitKindName(Run.E.Kind);
    EXPECT_EQ(Ref.E.Marker, Run.E.Marker) << Name;
    EXPECT_EQ(Ref.E.Selector, Run.E.Selector) << Name;
    EXPECT_EQ(Ref.E.NumArgs, Run.E.NumArgs) << Name;
    EXPECT_EQ(Ref.E.FaultAddress, Run.E.FaultAddress) << Name;
    EXPECT_EQ(Ref.E.FuelLeft, Run.E.FuelLeft) << Name;
    EXPECT_EQ(Ref.E.Note.str(), Run.E.Note.str()) << Name;
    EXPECT_EQ(Ref.Regs, Run.Regs) << Name;
    EXPECT_EQ(Ref.FBits, Run.FBits) << Name;
    EXPECT_EQ(Ref.StackHash, Run.StackHash) << Name;
    EXPECT_EQ(Ref.HeapHash, Run.HeapHash) << Name;
    EXPECT_EQ(Ref.Probe, Run.Probe) << Name;
  }
  return Ref;
}

CompiledCode compile(IRFunction &F) {
  CompiledCode Code;
  Code.Code = lowerIR(F, x64Desc());
  return Code;
}

/// acc = sum of 5..1 via a backward conditional branch; 23 dynamic
/// instructions, several basic blocks.
CompiledCode countdownLoop() {
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
  return compile(F);
}

TEST(NativeEngineTest, ArithmeticLoopIdentity) {
  CompiledCode Code = countdownLoop();
  EngineRun R = expectTierIdentity(Code);
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
  EXPECT_EQ(R.Regs[0], 15u);
}

TEST(NativeEngineTest, FullOpcodeMixIdentity) {
  // One program exercising shifts, division, bit ops, float arithmetic,
  // conversions, comparisons and the float bit-pattern moves.
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
  B.movRI(preg(MReg::R4), 6);
  B.shl(preg(MReg::R2), preg(MReg::R4));
  B.sar(preg(MReg::R2), preg(MReg::R4));
  B.fmovI(FReg::F0, 2.25);
  B.fmovI(FReg::F1, -0.5);
  B.fmov(FReg::F3, FReg::F0);
  B.fadd(FReg::F0, FReg::F1);
  B.fsub(FReg::F3, FReg::F1);
  B.fmul(FReg::F0, FReg::F0);
  B.fsqrt(FReg::F0);
  B.ftruncF(FReg::F3);
  B.fcvtIF(FReg::F2, preg(MReg::R1));
  B.fdiv(FReg::F0, FReg::F2);
  B.ftrunc(preg(MReg::R3), FReg::F0);
  B.fbitsFromF(preg(MReg::R5), FReg::F1);
  B.fbitsToF(FReg::F4, preg(MReg::R5));
  B.fbitsFromF32(preg(MReg::R6), FReg::F2);
  B.fbits32ToF(FReg::F5, preg(MReg::R6));
  B.fcmp(FReg::F0, FReg::F1);
  B.jcc(MCond::Gt, Skip);
  B.brk(9);
  B.placeLabel(Skip);
  B.ret();
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code);
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
}

TEST(NativeEngineTest, ShiftEdgeCasesIdentity) {
  // Shift amounts below zero, at the width boundary and beyond it have
  // bespoke semantics (IntMath asr / the Shl overflow rule); each must
  // come out identical in result, relation and overflow flag.
  for (std::int64_t Amount : {-2LL, -1LL, 0LL, 1LL, 31LL, 63LL, 64LL, 65LL}) {
    for (bool Arithmetic : {false, true}) {
      IRFunction F;
      IRBuilder B(F);
      std::int32_t Ovf = B.makeLabel();
      B.movRI(preg(MReg::R0), std::int64_t(0x8000000000000001ull));
      B.movRI(preg(MReg::R1), Amount);
      if (Arithmetic)
        B.sar(preg(MReg::R0), preg(MReg::R1));
      else
        B.shl(preg(MReg::R0), preg(MReg::R1));
      B.jcc(MCond::Ov, Ovf);
      B.brk(1);
      B.placeLabel(Ovf);
      B.brk(2);
      CompiledCode Code = compile(F);
      EngineRun R = expectTierIdentity(Code);
      EXPECT_EQ(R.E.Kind, MachExitKind::Breakpoint)
          << "amount " << Amount << " arith " << Arithmetic;
    }
  }
}

TEST(NativeEngineTest, DivisionSaturationIdentity) {
  // INT64_MIN / -1 saturates, INT64_MIN % -1 is 0 (IntMath truncDiv);
  // hardware idiv would trap on both, so the tier must not use it here.
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R0), SatMin);
  B.movRI(preg(MReg::R1), -1);
  B.movRI(preg(MReg::R2), SatMin);
  B.quo(preg(MReg::R0), preg(MReg::R1));
  B.rem(preg(MReg::R2), preg(MReg::R1));
  B.ret();
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code);
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
  EXPECT_EQ(R.Regs[0], std::uint64_t(SatMax));
  EXPECT_EQ(R.Regs[2], 0u);
}

TEST(NativeEngineTest, OverflowFlagIdentity) {
  for (bool Mul : {false, true}) {
    IRFunction F;
    IRBuilder B(F);
    std::int32_t Ovf = B.makeLabel();
    B.movRI(preg(MReg::R0), Mul ? (std::int64_t(1) << 40) : INT64_MAX);
    B.movRI(preg(MReg::R1), Mul ? (std::int64_t(1) << 40) : 1);
    if (Mul)
      B.mul(preg(MReg::R0), preg(MReg::R1));
    else
      B.add(preg(MReg::R0), preg(MReg::R1));
    B.jcc(MCond::Ov, Ovf);
    B.brk(1);
    B.placeLabel(Ovf);
    B.brk(2);
    CompiledCode Code = compile(F);
    EXPECT_EQ(expectTierIdentity(Code).E.Marker, 2u) << "mul " << Mul;
  }
}

TEST(NativeEngineTest, FuelSweepNeverOverOrUnderCharges) {
  // Every possible fuel value for a branchy program: block-level
  // charging plus the mid-run fallback to the switch loop must
  // reproduce the reference per-instruction accounting exactly.
  CompiledCode Code = countdownLoop();
  for (std::uint64_t Fuel = 0; Fuel <= 26; ++Fuel) {
    SimOptions Opts;
    Opts.Fuel = Fuel;
    EngineRun R = expectTierIdentity(Code, Opts);
    if (Fuel < 23)
      EXPECT_EQ(R.E.Kind, MachExitKind::FuelExhausted) << "fuel " << Fuel;
    else
      EXPECT_EQ(R.E.Kind, MachExitKind::Returned) << "fuel " << Fuel;
  }
}

TEST(NativeEngineTest, FuelFallbackRoutesThroughTheSwitchLoop) {
  if (!nativeTierSupported())
    GTEST_SKIP() << "native tier unavailable on this host";
  // Fuel runs dry mid-loop: the native run must hand the remainder to
  // the authoritative loop (counted as a fallback), not exit early.
  CompiledCode Code = countdownLoop();
  SimStats Stats;
  SimOptions Opts;
  Opts.Stats = &Stats;
  Opts.Fuel = 10;
  ObjectMemory Mem(256 * 1024);
  MachineSim Sim(Mem, Opts);
  MachineExit E = runNativeTier(Sim, Code);
  EXPECT_EQ(E.Kind, MachExitKind::FuelExhausted);
  EXPECT_EQ(Stats.NativeRuns, 1u);
  EXPECT_GE(Stats.NativeFallbacks, 1u);
}

TEST(NativeEngineTest, DivideFaultMidBlockRefundsUnexecutedFuel) {
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R0), 10);
  B.movRI(preg(MReg::R1), 0);
  B.quo(preg(MReg::R0), preg(MReg::R1));
  B.addI(preg(MReg::R0), 1);
  B.ret();
  SimOptions Opts;
  Opts.Fuel = 100;
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code, Opts);
  EXPECT_EQ(R.E.Kind, MachExitKind::DivideFault);
  EXPECT_EQ(R.E.FuelLeft, 97u);
}

TEST(NativeEngineTest, MemoryFaultsAreIdentical) {
  // Unaligned in-window stack access and a wild address: both must
  // surface as the same clean Segfault with the same fault address.
  for (std::uint64_t Address : {std::uint64_t(igdt::abi::StackBase + 12),
                                std::uint64_t(0x10)}) {
    for (bool IsStore : {false, true}) {
      IRFunction F;
      IRBuilder B(F);
      B.movRI(preg(MReg::R1), std::int64_t(Address));
      if (IsStore)
        B.store(preg(MReg::R0), preg(MReg::R1), 0);
      else
        B.load(preg(MReg::R0), preg(MReg::R1), 0);
      B.ret();
      CompiledCode Code = compile(F);
      EngineRun R = expectTierIdentity(Code);
      EXPECT_EQ(R.E.Kind, MachExitKind::Segfault)
          << "addr " << Address << " store " << IsStore;
      EXPECT_EQ(R.E.FaultAddress, Address);
    }
  }
}

TEST(NativeEngineTest, MissingAccessorNotesAreIdentical) {
  // GP flavour.
  {
    IRFunction F;
    IRBuilder B(F);
    B.movRI(preg(MReg::R1), 0x10);
    B.load(preg(MReg::R5), preg(MReg::R1), 0);
    B.ret();
    SimOptions Opts;
    Opts.MissingGPAccessors.insert(std::uint8_t(MReg::R5));
    CompiledCode Code = compile(F);
    EngineRun R = expectTierIdentity(Code, Opts);
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
    CompiledCode Code = compile(F);
    EngineRun R = expectTierIdentity(Code, Opts);
    EXPECT_EQ(R.E.Kind, MachExitKind::SimulationError);
    EXPECT_NE(R.E.Note.find("f5"), std::string::npos);
  }
}

TEST(NativeEngineTest, ByteAccessesAreIdentical) {
  // Store8/Load8 against the stack (in-window bytes have no alignment
  // requirement) and against a heap object body.
  SimSetup Setup = [](MachineSim &Sim, ObjectMemory &Mem) {
    Oop Arr = Mem.allocateInstance(ArrayClass, 2);
    Sim.setReg(MReg::R6, Arr);
  };
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R1), std::int64_t(igdt::abi::StackBase + 13));
  B.movRI(preg(MReg::R0), 0x1A2);   // only the low byte lands
  B.store8(preg(MReg::R0), preg(MReg::R1), 0);
  B.load8(preg(MReg::R2), preg(MReg::R1), 0); // zero-extended 0xA2
  B.store8(preg(MReg::R0), preg(MReg::R6), igdt::abi::BodyOffset + 3);
  B.load8(preg(MReg::R3), preg(MReg::R6), igdt::abi::BodyOffset + 3);
  B.ret();
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code, SimOptions(), Setup);
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
  EXPECT_EQ(R.Regs[2], 0xA2u);
  EXPECT_EQ(R.Regs[3], 0xA2u);
}

TEST(NativeEngineTest, FloatEdgeCasesAreIdentical) {
  // NaN comparisons (unordered relation), FTrunc's out-of-range
  // overflow rule and the float32 narrowing round-trip.
  IRFunction F;
  IRBuilder B(F);
  std::int32_t NotNan = B.makeLabel();
  std::int32_t NoOvf = B.makeLabel();
  B.fmovI(FReg::F0, 0.0);
  B.fdiv(FReg::F0, FReg::F0); // NaN
  B.fmovI(FReg::F1, 1.0);
  B.fcmp(FReg::F0, FReg::F1);
  B.jcc(MCond::Eq, NotNan);
  B.fmovI(FReg::F2, 1e19); // beyond int64: FTrunc overflows to 0
  B.ftrunc(preg(MReg::R0), FReg::F2);
  B.jcc(MCond::NoOv, NoOvf);
  B.fmovI(FReg::F3, 1.0000000000000002); // rounds when narrowed to f32
  B.fbitsFromF32(preg(MReg::R1), FReg::F3);
  B.ret();
  B.placeLabel(NotNan);
  B.brk(1);
  B.placeLabel(NoOvf);
  B.brk(2);
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code);
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
  EXPECT_EQ(R.Regs[0], 0u);
  EXPECT_EQ(R.Regs[1], 0x3F800000u);
}

TEST(NativeEngineTest, UnknownRuntimeFunctionIdentity) {
  IRFunction F;
  IRBuilder B(F);
  B.callRT(static_cast<RTFunc>(200));
  B.ret();
  SimOptions Opts;
  Opts.Fuel = 10;
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code, Opts);
  EXPECT_EQ(R.E.Kind, MachExitKind::SimulationError);
  EXPECT_NE(R.E.Note.find("unknown runtime function"), std::string::npos);
}

TEST(NativeEngineTest, TrampolineExitIdentity) {
  IRFunction F;
  IRBuilder B(F);
  B.callTramp(/*Selector=*/42, /*NumArgs=*/2);
  B.ret();
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code);
  EXPECT_EQ(R.E.Kind, MachExitKind::TrampolineCall);
  EXPECT_EQ(R.E.Selector, 42u);
  EXPECT_EQ(R.E.NumArgs, 2u);
}

TEST(NativeEngineTest, RunningPastTheEndIsIdentical) {
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R0), 1);
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code);
  EXPECT_EQ(R.E.Kind, MachExitKind::SimulationError);
  EXPECT_NE(R.E.Note.find("ran past the end"), std::string::npos);
}

TEST(NativeEngineTest, RuntimeAllocationEffectsAreIdentical) {
  // CallRT thunks re-enter the simulator's runtime: the allocation, the
  // stored slot and the heap content hash must come out identical.
  SimProbe Probe = [](MachineSim &Sim, ObjectMemory &Mem) {
    return Mem.fetchPointerSlot(Sim.reg(MReg::R4), 0).value_or(0);
  };
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R1), std::int64_t(ArrayClass));
  B.movRI(preg(MReg::R2), 2);
  B.callRT(RTFunc::AllocIndexable);
  B.movRR(preg(MReg::R4), preg(MReg::R0));
  B.movRI(preg(MReg::R0), std::int64_t(smallIntOop(9)));
  B.store(preg(MReg::R0), preg(MReg::R4), igdt::abi::BodyOffset);
  B.fmovI(FReg::F0, 1.25);
  B.callRT(RTFunc::BoxFloat); // second allocation, moves the heap cursor
  B.ret();
  CompiledCode Code = compile(F);
  EngineRun R = expectTierIdentity(Code, SimOptions(), nullptr, Probe);
  EXPECT_EQ(R.E.Kind, MachExitKind::Returned);
  EXPECT_EQ(R.Probe, smallIntOop(9));
}

TEST(NativeEngineTest, NativeCodeIsBuiltOnceThenCached) {
  if (!nativeTierSupported())
    GTEST_SKIP() << "native tier unavailable on this host";
  CompiledCode Code = countdownLoop();
  SimStats Stats;
  SimOptions Opts;
  Opts.Stats = &Stats;
  ObjectMemory Mem(256 * 1024);
  for (int I = 0; I < 3; ++I) {
    MachineSim Sim(Mem, Opts);
    MachineExit E = runNativeTier(Sim, Code);
    EXPECT_EQ(E.Kind, MachExitKind::Returned);
    EXPECT_EQ(Sim.reg(MReg::R0), 15u);
  }
  EXPECT_EQ(Stats.Runs, 3u);
  EXPECT_EQ(Stats.NativeRuns, 3u);
  EXPECT_EQ(Stats.NativeBuilds, 1u);
  EXPECT_EQ(Stats.NativeHits, 2u);
  EXPECT_EQ(Stats.PredecodedRuns, 0u);
  // The cache is shared across CompiledCode copies (code-cache hits).
  CompiledCode Copy = Code;
  MachineSim Sim(Mem, Opts);
  EXPECT_EQ(runNativeTier(Sim, Copy).Kind, MachExitKind::Returned);
  EXPECT_EQ(Stats.NativeBuilds, 1u);
  EXPECT_EQ(Stats.NativeHits, 3u);
}

TEST(NativeEngineTest, NoNativeEnvironmentOverrideDegradesGracefully) {
  // Under IGDT_NO_NATIVE a checking tester runs no probe. Even with the
  // miscompile probe armed, which diverges wherever the tier runs (see
  // CrossEngineCheckTest), it reports no divergence and counts no
  // native run or build.
  const InstructionSpec *Spec = findInstruction("bytecodePrim_add");
  ASSERT_NE(Spec, nullptr);
  VMConfig VM;
  ConcolicExplorer Explorer(VM);
  ExplorationResult R = Explorer.explore(*Spec);

  // The caller's setting comes back afterwards: a suite run under
  // IGDT_NO_NATIVE keeps the tier off for every later test.
  const char *Caller = std::getenv("IGDT_NO_NATIVE");
  std::optional<std::string> Saved;
  if (Caller)
    Saved = Caller;
  setenv("IGDT_NO_NATIVE", "1", 1);
  refreshCpuFeatureCacheForTesting();
  EXPECT_FALSE(nativeTierSupported());
  SimStats Stats;
  DiffTestConfig Cfg;
  Cfg.Kind = CompilerKind::StackToRegister;
  Cfg.CrossEngineCheck = true;
  Cfg.Sim.NativeMiscompileProbe = true;
  Cfg.Sim.Stats = &Stats;
  DifferentialTester Tester(Cfg);
  unsigned Matches = 0;
  for (std::size_t I = 0; I < R.Paths.size(); ++I) {
    PathTestOutcome O = Tester.testPath(R, I);
    if (O.Status == PathTestStatus::Difference) {
      EXPECT_NE(O.Family, DefectFamily::CrossEngineDivergence) << O.Details;
    }
    Matches += O.Status == PathTestStatus::Match;
  }
  if (Saved)
    setenv("IGDT_NO_NATIVE", Saved->c_str(), 1);
  else
    unsetenv("IGDT_NO_NATIVE");
  refreshCpuFeatureCacheForTesting();
  EXPECT_GT(Matches, 0u);
  EXPECT_GT(Stats.Runs, 0u);
  EXPECT_EQ(Stats.NativeRuns, 0u);
  EXPECT_EQ(Stats.NativeBuilds, 0u);
}

TEST(NativeEngineTest, MiscompileProbeActuallyMiscompiles) {
  if (!nativeTierSupported())
    GTEST_SKIP() << "native tier unavailable on this host";
  // The deliberately-miscompiled AddI (off-by-one immediate) is what
  // proves the cross-engine oracle can see a divergent code generator.
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R0), 40);
  B.addI(preg(MReg::R0), 2);
  B.ret();
  CompiledCode Code = compile(F);
  SimStats Stats;
  SimOptions Opts;
  Opts.Stats = &Stats;
  Opts.NativeMiscompileProbe = true;
  ObjectMemory Mem(256 * 1024);
  {
    MachineSim Sim(Mem, Opts);
    EXPECT_EQ(runNativeTier(Sim, Code).Kind, MachExitKind::Returned);
    EXPECT_EQ(Sim.reg(MReg::R0), 43u); // 40 + (2+1)
  }
  // Turning the probe off rebuilds honest code rather than serving the
  // poisoned cache entry.
  Opts.NativeMiscompileProbe = false;
  {
    MachineSim Sim(Mem, Opts);
    EXPECT_EQ(runNativeTier(Sim, Code).Kind, MachExitKind::Returned);
    EXPECT_EQ(Sim.reg(MReg::R0), 42u);
  }
  EXPECT_EQ(Stats.NativeBuilds, 2u);
}

TEST(NativeEngineTest, PooledStackIsIdenticalToOwnedStack) {
  // A pooled run after a dirty run must observe the same zeroed stack a
  // fresh simulator owns; the dirty-high watermark re-zeroing is the
  // mechanism under test.
  IRFunction F;
  IRBuilder B(F);
  B.movRI(preg(MReg::R1), std::int64_t(igdt::abi::StackBase + 64));
  B.movRI(preg(MReg::R0), 0x5A5A);
  B.store(preg(MReg::R0), preg(MReg::R1), 0);
  B.load(preg(MReg::R2), preg(MReg::R1), 8); // must read zero
  B.ret();
  CompiledCode Code = compile(F);
  SimStackPool Pool;
  for (Tier T : {Tier::Switch, Tier::Native}) {
    SimOptions Opts;
    Opts.Engine = SimEngine::Switch;
    Opts.StackPool = &Pool;
    ObjectMemory Mem(256 * 1024);
    MachineSim Sim(Mem, Opts);
    MachineExit Exit = runOn(T, Sim, Code);
    EXPECT_EQ(Exit.Kind, MachExitKind::Returned);
    EXPECT_EQ(Sim.reg(MReg::R2), 0u) << tierName(T);
  }
  EXPECT_GT(Pool.bytesReset(), 0u);
}

} // namespace
