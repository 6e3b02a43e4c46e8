//===- jit/native/NativeEngine.cpp - Trampoline + helpers -----------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
//
// The host side of the native tier: copies guest state between the
// MachineSim and a NativeContext, enters generated code, and maps the
// NativeExit back onto the simulator's MachineExit vocabulary — reusing
// the simulator's own faultExit/runtimeCall/runLoop so the subtle rules
// (missing-accessor recovery, heap allocation, fuel fallback) have
// exactly one definition.
//
// Helpers never let a C++ exception unwind through the generated frame:
// anything thrown is captured into PendingExc (status 2) and rethrown
// by the wrapper after guest state is synced back.
//
//===----------------------------------------------------------------------===//

#include "jit/native/NativeEngine.h"

#include "jit/ABI.h"
#include "jit/CompiledCode.h"
#include "jit/MachineSim.h"
#include "jit/native/NativeCode.h"
#include "jit/native/NativeContext.h"
#include "support/IntMath.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

namespace igdt {

/// Friend of MachineSim: the only door through which the native tier
/// reaches the simulator's private state and semantics.
struct NativeEngineAccess {
  // The generated code encodes the Relation byte directly; pin the
  // correspondence with the simulator's private enum.
  static_assert(std::uint8_t(MachineSim::Rel::Less) == 0 &&
                    std::uint8_t(MachineSim::Rel::Equal) == 1 &&
                    std::uint8_t(MachineSim::Rel::Greater) == 2 &&
                    std::uint8_t(MachineSim::Rel::Unordered) == 3,
                "NativeContext::Relation encoding must match MachineSim::Rel");
  // offsetof() in NativeCodegen requires a standard-layout context.
  static_assert(std::is_standard_layout_v<NativeContext>,
                "generated code bakes in NativeContext field offsets");
  static_assert(offsetof(NativeContext, Regs) == 0 &&
                    offsetof(NativeContext, FRegs) == 128,
                "register-file bases are wired into the prologue");
  static_assert(sizeof(double) == sizeof(std::uint64_t),
                "FP registers are moved as 64-bit payloads");

  static std::optional<std::uint64_t> load64(MachineSim &Sim,
                                             std::uint64_t Addr) {
    return Sim.load64(Addr);
  }
  static bool store64(MachineSim &Sim, std::uint64_t Addr,
                      std::uint64_t Value) {
    return Sim.store64(Addr, Value);
  }
  static std::optional<std::uint8_t> load8(MachineSim &Sim,
                                           std::uint64_t Addr) {
    return Sim.load8(Addr);
  }
  static bool store8(MachineSim &Sim, std::uint64_t Addr,
                     std::uint8_t Value) {
    return Sim.store8(Addr, Value);
  }

  /// runtimeCall reads and writes the simulator's register files, so the
  /// context registers are synced in before and back out after.
  static bool runtimeCall(NativeContext &C, RTFunc Func) {
    MachineSim &Sim = *C.Sim;
    std::memcpy(Sim.Regs, C.Regs, sizeof(Sim.Regs));
    std::memcpy(Sim.FRegs, C.FRegs, sizeof(Sim.FRegs));
    bool Ok = Sim.runtimeCall(Func);
    std::memcpy(C.Regs, Sim.Regs, sizeof(Sim.Regs));
    std::memcpy(C.FRegs, Sim.FRegs, sizeof(Sim.FRegs));
    return Ok;
  }

  static MachineExit run(MachineSim &Sim, const CompiledCode &Code);
};

MachineExit NativeEngineAccess::run(MachineSim &Sim,
                                    const CompiledCode &Code) {
  SimOptions &Opts = Sim.Opts;
  const NativeCode &N =
      nativeFor(Code, Opts.Stats, Opts.NativeMiscompileProbe);

  if (!N.valid()) {
    // Defensive: executable memory was unavailable even though the
    // capability probe passed. The authoritative loop is always there.
    if (Opts.Stats) {
      ++Opts.Stats->Runs;
      ++Opts.Stats->ReferenceRuns;
    }
    Sim.FuelRemaining = Opts.Fuel;
    MachineExit E = Sim.runLoop(Code.Code, 0);
    Sim.finishRun(E);
    return E;
  }

  if (Opts.Stats) {
    ++Opts.Stats->Runs;
    ++Opts.Stats->NativeRuns;
  }

  NativeContext Ctx{};
  std::memcpy(Ctx.Regs, Sim.Regs, sizeof(Ctx.Regs));
  std::memcpy(Ctx.FRegs, Sim.FRegs, sizeof(Ctx.FRegs));
  Ctx.StackHost = Sim.Stack;
  Ctx.StackLimit8 = Sim.StackSize - 8;
  Ctx.StackLimit1 = Sim.StackSize - 1;
  Ctx.FuelRemaining = Opts.Fuel;
  Ctx.Relation = std::uint8_t(Sim.Relation);
  Ctx.OverflowFlag = Sim.Overflow ? 1 : 0;
  Ctx.Sim = &Sim;
  std::exception_ptr Pending;
  Ctx.PendingExc = &Pending;

  bool Timing = Opts.TimeRuns && Opts.Stats;
  std::chrono::steady_clock::time_point Start;
  if (Timing)
    Start = std::chrono::steady_clock::now();
  auto StopTimer = [&] {
    if (!Timing)
      return;
    Opts.Stats->RunNanos +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count();
    Timing = false;
  };

  N.Entry(&Ctx);

  // Guest state back into the simulator before anything can throw or
  // return: fallback and fault recovery both read it from there.
  std::memcpy(Sim.Regs, Ctx.Regs, sizeof(Ctx.Regs));
  std::memcpy(Sim.FRegs, Ctx.FRegs, sizeof(Ctx.FRegs));
  Sim.Relation = static_cast<MachineSim::Rel>(Ctx.Relation);
  Sim.Overflow = Ctx.OverflowFlag != 0;
  Sim.FuelRemaining = Ctx.FuelRemaining;
  if (Sim.Pool && Ctx.StackDirtyHigh)
    Sim.Pool->noteTouched(static_cast<std::size_t>(Ctx.StackDirtyHigh));

  if (Pending) {
    // Same observable behaviour as the simulator engines, where the
    // exception (e.g. a heap invariant failure inside a runtime call)
    // propagates out of run() with guest state current.
    StopTimer();
    std::rethrow_exception(Pending);
  }

  MachineExit E;
  switch (static_cast<NativeExit>(Ctx.ExitKind)) {
  case NativeExit::Returned:
    E.Kind = MachExitKind::Returned;
    break;
  case NativeExit::Breakpoint:
    E.Kind = MachExitKind::Breakpoint;
    E.Marker = Ctx.Marker;
    break;
  case NativeExit::TrampolineCall:
    E.Kind = MachExitKind::TrampolineCall;
    E.Selector = Ctx.Selector;
    E.NumArgs = Ctx.NumArgs;
    break;
  case NativeExit::DivideFault:
    E.Kind = MachExitKind::DivideFault;
    break;
  case NativeExit::MemoryFault:
    E = Sim.faultExit(Ctx.FaultIsFloat != 0, Ctx.FaultGP, Ctx.FaultFP,
                      Ctx.FaultAddress);
    break;
  case NativeExit::UnknownRT:
    E.Kind = MachExitKind::SimulationError;
    E.Note.format("unknown runtime function %u", Ctx.AuxInfo);
    break;
  case NativeExit::RanOffEnd:
    E.Kind = MachExitKind::SimulationError;
    E.Note = "execution ran past the end of the generated code";
    break;
  case NativeExit::FuelFallback:
    // The leader could not afford its block; finish in the reference
    // loop at the same PC with the uncharged fuel, exactly like
    // runThreaded's mid-run delegation.
    if (Opts.Stats)
      ++Opts.Stats->NativeFallbacks;
    E = Sim.runLoop(Code.Code, static_cast<std::size_t>(Ctx.FallbackPC));
    break;
  case NativeExit::HelperException:
    // Unreachable: a HelperException exit always sets PendingExc, which
    // rethrew above. Kept for exhaustiveness.
    E.Kind = MachExitKind::SimulationError;
    E.Note = "helper exception lost its exception object";
    break;
  }
  StopTimer();
  Sim.finishRun(E);
  return E;
}

MachineExit runNativeTier(MachineSim &Sim, const CompiledCode &Code) {
  return NativeEngineAccess::run(Sim, Code);
}

namespace {

void setHelperFlags(NativeContext *C, std::int64_t Result, bool Ovf) {
  C->Relation = Result < 0 ? 0 : Result == 0 ? 1 : 2;
  C->OverflowFlag = Ovf ? 1 : 0;
}

} // namespace
} // namespace igdt

using igdt::NativeContext;
using igdt::NativeEngineAccess;

extern "C" int igdt_nh_load64(NativeContext *C, std::uint64_t Addr,
                              std::uint64_t *Out) {
  try {
    auto V = NativeEngineAccess::load64(*C->Sim, Addr);
    if (!V)
      return 0;
    *Out = *V;
    return 1;
  } catch (...) {
    *C->PendingExc = std::current_exception();
    return 2;
  }
}

extern "C" int igdt_nh_store64(NativeContext *C, std::uint64_t Addr,
                               std::uint64_t Value) {
  try {
    return NativeEngineAccess::store64(*C->Sim, Addr, Value) ? 1 : 0;
  } catch (...) {
    *C->PendingExc = std::current_exception();
    return 2;
  }
}

extern "C" int igdt_nh_load8(NativeContext *C, std::uint64_t Addr,
                             std::uint64_t *Out) {
  try {
    auto V = NativeEngineAccess::load8(*C->Sim, Addr);
    if (!V)
      return 0;
    *Out = *V; // zero-extended, like the simulator's Load8
    return 1;
  } catch (...) {
    *C->PendingExc = std::current_exception();
    return 2;
  }
}

extern "C" int igdt_nh_store8(NativeContext *C, std::uint64_t Addr,
                              std::uint64_t Value) {
  try {
    return NativeEngineAccess::store8(*C->Sim, Addr,
                                      static_cast<std::uint8_t>(Value))
               ? 1
               : 0;
  } catch (...) {
    *C->PendingExc = std::current_exception();
    return 2;
  }
}

extern "C" void igdt_nh_shl(NativeContext *C, std::uint32_t A,
                            std::uint32_t B) {
  auto Av = static_cast<std::int64_t>(C->Regs[A]);
  auto Amount = static_cast<std::int64_t>(C->Regs[B]);
  std::int64_t R = Amount >= 0 && Amount < 64
                       ? static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(Av) << Amount)
                       : 0;
  bool Ovf =
      Amount >= 0 && (Amount >= 64 || igdt::asr(R, Amount) != Av);
  C->Regs[A] = static_cast<std::uint64_t>(R);
  igdt::setHelperFlags(C, R, Ovf);
}

extern "C" void igdt_nh_sar(NativeContext *C, std::uint32_t A,
                            std::uint32_t B) {
  auto Av = static_cast<std::int64_t>(C->Regs[A]);
  auto Amount = static_cast<std::int64_t>(C->Regs[B]);
  std::int64_t R = igdt::asr(Av, std::max<std::int64_t>(Amount, 0));
  C->Regs[A] = static_cast<std::uint64_t>(R);
  igdt::setHelperFlags(C, R, false);
}

extern "C" int igdt_nh_quo(NativeContext *C, std::uint32_t A,
                           std::uint32_t B) {
  auto Av = static_cast<std::int64_t>(C->Regs[A]);
  auto Bv = static_cast<std::int64_t>(C->Regs[B]);
  if (Bv == 0)
    return 0;
  std::int64_t R = igdt::truncDiv(Av, Bv);
  C->Regs[A] = static_cast<std::uint64_t>(R);
  igdt::setHelperFlags(C, R, false);
  return 1;
}

extern "C" int igdt_nh_rem(NativeContext *C, std::uint32_t A,
                           std::uint32_t B) {
  auto Av = static_cast<std::int64_t>(C->Regs[A]);
  auto Bv = static_cast<std::int64_t>(C->Regs[B]);
  if (Bv == 0)
    return 0;
  std::int64_t R = Av == igdt::SatMin && Bv == -1 ? 0 : Av % Bv;
  C->Regs[A] = static_cast<std::uint64_t>(R);
  igdt::setHelperFlags(C, R, false);
  return 1;
}

extern "C" void igdt_nh_ftrunc(NativeContext *C, std::uint32_t A,
                               std::uint32_t FA) {
  double F = C->FRegs[FA];
  bool Ovf = !(F > -9.3e18 && F < 9.3e18); // NaN also overflows
  std::int64_t R = Ovf ? 0 : static_cast<std::int64_t>(std::trunc(F));
  C->Regs[A] = static_cast<std::uint64_t>(R);
  igdt::setHelperFlags(C, R, Ovf);
}

extern "C" int igdt_nh_callrt(NativeContext *C, std::uint32_t Func) {
  try {
    return NativeEngineAccess::runtimeCall(*C,
                                           static_cast<igdt::RTFunc>(Func))
               ? 1
               : 0;
  } catch (...) {
    *C->PendingExc = std::current_exception();
    return 2;
  }
}
