//===- jit/MachineSim.cpp - Machine-code simulator -----------------------------===//

#include "jit/MachineSim.h"

#include "jit/CompiledCode.h"
#include "jit/PredecodedCode.h"
#include "jit/native/NativeEngine.h"
#include "observe/TraceBus.h"
#include "support/Compiler.h"
#include "support/CpuFeatures.h"
#include "support/IntMath.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstring>

using namespace igdt;

// The threaded dispatcher uses the labels-as-values GNU extension; on
// other toolchains the predecoded engine degrades to the reference
// switch loop (same semantics, per-instruction fuel). The runtime
// answer lives in support/CpuFeatures.cpp (simThreadedDispatchSupported).
#if defined(__GNUC__) || defined(__clang__)
#define IGDT_SIM_THREADED 1
#else
#define IGDT_SIM_THREADED 0
#endif

const char *igdt::simEngineName(SimEngine E) {
  switch (E) {
  case SimEngine::Switch:
    return "switch";
  case SimEngine::Threaded:
    return "threaded";
  case SimEngine::Native:
    return "native";
  }
  igdt_unreachable("unknown sim engine");
}

bool igdt::simEngineFromName(const std::string &Name, SimEngine &Out) {
  if (Name == "switch")
    Out = SimEngine::Switch;
  else if (Name == "threaded")
    Out = SimEngine::Threaded;
  else if (Name == "native")
    Out = SimEngine::Native;
  else
    return false;
  return true;
}

void ExitNote::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Text, sizeof(Text), Fmt, Args);
  va_end(Args);
}

const char *igdt::machExitKindName(MachExitKind Kind) {
  switch (Kind) {
  case MachExitKind::Breakpoint:
    return "breakpoint";
  case MachExitKind::Returned:
    return "returned";
  case MachExitKind::TrampolineCall:
    return "trampoline-call";
  case MachExitKind::Segfault:
    return "segfault";
  case MachExitKind::SimulationError:
    return "simulation-error";
  case MachExitKind::FuelExhausted:
    return "fuel-exhausted";
  case MachExitKind::DivideFault:
    return "divide-fault";
  }
  igdt_unreachable("unknown machine exit kind");
}

MachineSim::MachineSim(ObjectMemory &Heap, SimOptions Options)
    : Heap(Heap), Opts(std::move(Options)), Watermark(Heap.usedBytes()) {
  if (Opts.StackPool) {
    Pool = Opts.StackPool;
    Stack = Pool->acquire();
    StackSize = Pool->size();
  } else {
    OwnedStack.assign(abi::StackBytes, 0);
    Stack = OwnedStack.data();
    StackSize = OwnedStack.size();
  }
  setReg(MReg::SP, abi::StackBase + 8 * abi::NumSpillSlots + 16);
  setReg(MReg::FP, reg(MReg::SP));
}

// Stack bounds tests subtract first and compare offsets so an Address
// near UINT64_MAX cannot wrap `Address + N` back into range (the
// unsigned offset is huge when Address < StackBase, failing the test).
// The native tier compiles the same offset form inline.

std::optional<std::uint64_t> MachineSim::load64(std::uint64_t Address) const {
  std::uint64_t Off = Address - abi::StackBase;
  if (Off <= StackSize - 8) {
    if ((Address & 7) != 0)
      return std::nullopt;
    std::uint64_t V;
    std::memcpy(&V, Stack + Off, 8);
    return V;
  }
  return Heap.load64(Address);
}

bool MachineSim::store64(std::uint64_t Address, std::uint64_t Value) {
  std::uint64_t Off = Address - abi::StackBase;
  if (Off <= StackSize - 8) {
    if ((Address & 7) != 0)
      return false;
    std::memcpy(Stack + Off, &Value, 8);
    if (Pool)
      Pool->noteTouched(static_cast<std::size_t>(Off) + 8);
    return true;
  }
  return Heap.store64(Address, Value);
}

std::optional<std::uint8_t> MachineSim::load8(std::uint64_t Address) const {
  std::uint64_t Off = Address - abi::StackBase;
  if (Off <= StackSize - 1)
    return Stack[Off];
  return Heap.load8(Address);
}

bool MachineSim::store8(std::uint64_t Address, std::uint8_t Value) {
  std::uint64_t Off = Address - abi::StackBase;
  if (Off <= StackSize - 1) {
    Stack[Off] = Value;
    if (Pool)
      Pool->noteTouched(static_cast<std::size_t>(Off) + 1);
    return true;
  }
  return Heap.store8(Address, Value);
}

bool MachineSim::stackStore64(std::uint64_t Address, std::uint64_t Value) {
  return store64(Address, Value);
}

std::optional<std::uint64_t>
MachineSim::stackLoad64(std::uint64_t Address) const {
  return load64(Address);
}

std::uint64_t MachineSim::setUpFrame(unsigned NumLocals) {
  FrameBase = abi::StackBase + 8 * abi::NumSpillSlots + 16;
  FrameLocals = NumLocals;
  setReg(MReg::FP, FrameBase);
  std::uint64_t OperandBase = FrameBase + abi::operandBaseOffset(NumLocals);
  setReg(MReg::SP, OperandBase);
  return OperandBase;
}

void MachineSim::writeReceiver(std::uint64_t Value) {
  store64(FrameBase + abi::ReceiverOffset, Value);
}

void MachineSim::writeLocal(unsigned I, std::uint64_t Value) {
  store64(FrameBase + abi::localOffset(I), Value);
}

std::uint64_t MachineSim::readLocal(unsigned I) const {
  return load64(FrameBase + abi::localOffset(I)).value_or(0);
}

std::uint64_t MachineSim::readReceiver() const {
  return load64(FrameBase + abi::ReceiverOffset).value_or(0);
}

void MachineSim::pushOperand(std::uint64_t Value) {
  std::uint64_t SP = reg(MReg::SP);
  store64(SP, Value);
  setReg(MReg::SP, SP + 8);
}

OperandStackView MachineSim::operandStackView() const {
  OperandStackView V;
  std::uint64_t Base = FrameBase + abi::operandBaseOffset(FrameLocals);
  std::uint64_t SP = reg(MReg::SP);
  if (SP <= Base)
    return V;
  std::uint64_t Count = (SP - Base + 7) / 8;
  std::uint64_t BaseOff = Base - abi::StackBase;
  if (BaseOff <= StackSize && (Base & 7) == 0 &&
      Count <= (StackSize - BaseOff) / 8) {
    V.Borrowed = Stack + BaseOff;
    V.Count = static_cast<std::size_t>(Count);
    return V;
  }
  // SP or the frame base escaped the stack region (defective code):
  // reproduce the legacy per-address bounds-checked copy exactly.
  V.Owned.reserve(static_cast<std::size_t>(Count));
  for (std::uint64_t A = Base; A < SP; A += 8)
    V.Owned.push_back(load64(A).value_or(0));
  V.Count = V.Owned.size();
  return V;
}

std::vector<std::uint64_t> MachineSim::operandStack() const {
  OperandStackView View = operandStackView();
  std::vector<std::uint64_t> Out;
  Out.reserve(View.size());
  for (std::size_t I = 0; I < View.size(); ++I)
    Out.push_back(View[I]);
  return Out;
}

bool MachineSim::condHolds(MCond C) const {
  switch (C) {
  case MCond::Always:
    return true;
  case MCond::Eq:
    return Relation == Rel::Equal;
  case MCond::Ne:
    return Relation != Rel::Equal; // NaN compares not-equal
  case MCond::Lt:
    return Relation == Rel::Less;
  case MCond::Le:
    return Relation == Rel::Less || Relation == Rel::Equal;
  case MCond::Gt:
    return Relation == Rel::Greater;
  case MCond::Ge:
    return Relation == Rel::Greater || Relation == Rel::Equal;
  case MCond::Ov:
    return Overflow;
  case MCond::NoOv:
    return !Overflow;
  }
  igdt_unreachable("unknown condition");
}

MachineExit MachineSim::faultExit(bool IsFloat, unsigned GpReg,
                                  unsigned FpReg, std::uint64_t Address) {
  // Fault recovery mirrors the paper's simulation runtime: the simulator
  // "disassembles the failing instruction and performs a read/write
  // operation using reflection to call the corresponding register
  // setter/getters" (§5.3). When an accessor is missing, the recovery
  // itself errors out — a Simulation Error, not a VM defect.
  if (IsFloat) {
    if (Opts.MissingFPAccessors.count(std::uint8_t(FpReg))) {
      MachineExit E;
      E.Kind = MachExitKind::SimulationError;
      E.Note.format("missing simulation accessor for f%u", FpReg);
      return E;
    }
  } else if (Opts.MissingGPAccessors.count(std::uint8_t(GpReg))) {
    MachineExit E;
    E.Kind = MachExitKind::SimulationError;
    E.Note.format("missing simulation accessor for r%u", GpReg);
    return E;
  }
  MachineExit E;
  E.Kind = MachExitKind::Segfault;
  E.FaultAddress = Address;
  return E;
}

MachineExit MachineSim::fault(const MInstr &I, std::uint64_t Address) {
  return faultExit(I.Op == MOp::FLoad, unsigned(I.A), unsigned(I.FA), Address);
}

bool MachineSim::runtimeCall(RTFunc Func) {
  switch (Func) {
  case RTFunc::BoxFloat: {
    Oop Box = Heap.allocateFloat(freg(FReg::F0));
    setReg(abi::ResultReg, Box);
    return true;
  }
  case RTFunc::AllocPointers: {
    auto ClassIdx = static_cast<std::uint32_t>(reg(abi::Arg0Reg));
    Oop Obj = InvalidOop;
    if (Heap.classTable().isValidIndex(ClassIdx) &&
        Heap.classTable().classAt(ClassIdx).Format == ObjectFormat::Pointers)
      Obj = Heap.allocateInstance(ClassIdx);
    setReg(abi::ResultReg, Obj);
    return true;
  }
  case RTFunc::AllocIndexable: {
    auto ClassIdx = static_cast<std::uint32_t>(reg(abi::Arg0Reg));
    auto Count = static_cast<std::int64_t>(reg(abi::Arg1Reg));
    Oop Obj = InvalidOop;
    if (Heap.classTable().isValidIndex(ClassIdx) && Count >= 0 &&
        Count <= 1024) {
      ObjectFormat F = Heap.classTable().classAt(ClassIdx).Format;
      if (F == ObjectFormat::IndexablePointers ||
          F == ObjectFormat::IndexableBytes)
        Obj = Heap.allocateInstance(ClassIdx,
                                    static_cast<std::uint32_t>(Count));
    }
    setReg(abi::ResultReg, Obj);
    return true;
  }
  case RTFunc::AllocLike: {
    Oop Src = reg(abi::Arg0Reg);
    Oop Obj = InvalidOop;
    if (Heap.isHeapObject(Src)) {
      std::uint32_t ClassIdx = Heap.classIndexOf(Src);
      bool Indexable =
          Heap.formatOf(Src) == ObjectFormat::IndexablePointers;
      Obj = Heap.allocateInstance(ClassIdx,
                                  Indexable ? Heap.slotCountOf(Src) : 0);
    }
    setReg(abi::ResultReg, Obj);
    return true;
  }
  case RTFunc::Sin:
    setFReg(FReg::F0, std::sin(freg(FReg::F0)));
    return true;
  case RTFunc::Cos:
    setFReg(FReg::F0, std::cos(freg(FReg::F0)));
    return true;
  case RTFunc::Exp:
    setFReg(FReg::F0, std::exp(freg(FReg::F0)));
    return true;
  case RTFunc::Ln:
    setFReg(FReg::F0, std::log(freg(FReg::F0)));
    return true;
  case RTFunc::ArcTan:
    setFReg(FReg::F0, std::atan(freg(FReg::F0)));
    return true;
  }
  return false;
}

void MachineSim::finishRun(MachineExit &E, const char *Engine,
                           std::uint64_t PredecodeHit) {
  // Stamp the fuel state onto every exit so callers can report it; a
  // FuelExhausted exit additionally explains itself.
  E.FuelLeft = FuelRemaining;
  if (E.Kind == MachExitKind::FuelExhausted && E.Note.empty())
    E.Note.format("fuel exhausted after %llu instructions",
                  (unsigned long long)Opts.Fuel);
  if (Opts.Trace) {
    TraceEvent T;
    T.Kind = TraceEventKind::SimRun;
    T.Detail = machExitKindName(E.Kind);
    T.Aux = Engine;
    T.Value = Opts.Fuel - FuelRemaining;
    T.Extra = PredecodeHit;
    Opts.Trace->emit(std::move(T));
  }
}

MachineExit MachineSim::run(const std::vector<MInstr> &Code) {
  if (Opts.Stats) {
    ++Opts.Stats->Runs;
    ++Opts.Stats->ReferenceRuns;
  }
  FuelRemaining = Opts.Fuel;
  MachineExit E = runLoop(Code, 0);
  finishRun(E, "reference", 0);
  return E;
}

MachineExit MachineSim::run(const CompiledCode &Code) {
  // Degradation ladder: an unsupported selection silently steps down to
  // the next engine, so a campaign configured --engine native on a
  // non-x86-64 host (or under IGDT_NO_NATIVE) still runs — identically,
  // since the engines are proven byte-equal.
  SimEngine Engine = Opts.Engine;
  if (Engine == SimEngine::Native && !nativeTierSupported())
    Engine = SimEngine::Threaded;
  if (Engine == SimEngine::Threaded && !simThreadedDispatchSupported())
    Engine = SimEngine::Switch;

  if (Engine == SimEngine::Native)
    return runNativeTier(*this, Code);

  auto Timed = [&](auto &&Body) {
    if (!Opts.TimeRuns || !Opts.Stats)
      return Body();
    auto Start = std::chrono::steady_clock::now();
    MachineExit E = Body();
    Opts.Stats->RunNanos +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count();
    return E;
  };

  if (Engine == SimEngine::Switch) {
    if (Opts.Stats) {
      ++Opts.Stats->Runs;
      ++Opts.Stats->ReferenceRuns;
    }
    FuelRemaining = Opts.Fuel;
    MachineExit E = Timed([&] { return runLoop(Code.Code, 0); });
    finishRun(E, "reference", 0);
    return E;
  }

  bool Hit = Code.Predecoded != nullptr;
  const PredecodedCode &P = predecodedFor(Code, Opts.Stats);
  if (Opts.Stats) {
    ++Opts.Stats->Runs;
    ++Opts.Stats->PredecodedRuns;
  }
  FuelRemaining = Opts.Fuel;
  MachineExit E = Timed([&] { return runThreaded(P, Code.Code); });
  finishRun(E, "predecoded", Hit ? 1 : 0);
  return E;
}

std::uint64_t MachineSim::stackHash() const {
  std::uint64_t SP = reg(MReg::SP);
  std::uint64_t Off = SP - abi::StackBase;
  std::size_t End = Off <= StackSize ? static_cast<std::size_t>(Off) : StackSize;
  std::uint64_t H = 1469598103934665603ull; // FNV-1a 64
  for (std::size_t I = 0; I < End; ++I) {
    H ^= Stack[I];
    H *= 1099511628211ull;
  }
  // Fold SP itself in so an out-of-region SP still perturbs the hash.
  for (unsigned I = 0; I < 8; ++I) {
    H ^= (SP >> (8 * I)) & 0xff;
    H *= 1099511628211ull;
  }
  return H;
}

MachineExit MachineSim::runPredecoded(const PredecodedCode &P,
                                      const std::vector<MInstr> &Reference) {
  if (Opts.Stats) {
    ++Opts.Stats->Runs;
    ++Opts.Stats->PredecodedRuns;
  }
  FuelRemaining = Opts.Fuel;
  MachineExit E = runThreaded(P, Reference);
  finishRun(E, "predecoded", 0);
  return E;
}

MachineExit MachineSim::runLoop(const std::vector<MInstr> &Code,
                                std::size_t PC) {
  auto SetIntFlags = [&](std::int64_t Result, bool Overflowed) {
    Relation = Result < 0 ? Rel::Less : Result == 0 ? Rel::Equal : Rel::Greater;
    Overflow = Overflowed;
  };

  while (PC < Code.size()) {
    if (FuelRemaining == 0) {
      MachineExit E;
      E.Kind = MachExitKind::FuelExhausted;
      return E;
    }
    --FuelRemaining;
    const MInstr &I = Code[PC];
    std::size_t Next = PC + 1;

    switch (I.Op) {
    case MOp::MovRR:
      setReg(I.A, reg(I.B));
      break;
    case MOp::MovRI:
      setReg(I.A, static_cast<std::uint64_t>(I.Imm));
      break;
    case MOp::Load: {
      std::uint64_t Address = reg(I.B) + static_cast<std::uint64_t>(I.Imm);
      auto V = load64(Address);
      if (!V)
        return fault(I, Address);
      setReg(I.A, *V);
      break;
    }
    case MOp::Store: {
      std::uint64_t Address = reg(I.B) + static_cast<std::uint64_t>(I.Imm);
      if (!store64(Address, reg(I.A)))
        return fault(I, Address);
      break;
    }
    case MOp::Load8: {
      std::uint64_t Address = reg(I.B) + static_cast<std::uint64_t>(I.Imm);
      auto V = load8(Address);
      if (!V)
        return fault(I, Address);
      setReg(I.A, *V);
      break;
    }
    case MOp::Store8: {
      std::uint64_t Address = reg(I.B) + static_cast<std::uint64_t>(I.Imm);
      if (!store8(Address, static_cast<std::uint8_t>(reg(I.A))))
        return fault(I, Address);
      break;
    }
    case MOp::Add:
    case MOp::AddI: {
      auto A = static_cast<std::int64_t>(reg(I.A));
      std::int64_t B =
          I.Op == MOp::Add ? static_cast<std::int64_t>(reg(I.B)) : I.Imm;
      std::int64_t R;
      bool Ovf = __builtin_add_overflow(A, B, &R);
      setReg(I.A, static_cast<std::uint64_t>(R));
      SetIntFlags(R, Ovf);
      break;
    }
    case MOp::Sub:
    case MOp::SubI: {
      auto A = static_cast<std::int64_t>(reg(I.A));
      std::int64_t B =
          I.Op == MOp::Sub ? static_cast<std::int64_t>(reg(I.B)) : I.Imm;
      std::int64_t R;
      bool Ovf = __builtin_sub_overflow(A, B, &R);
      setReg(I.A, static_cast<std::uint64_t>(R));
      SetIntFlags(R, Ovf);
      break;
    }
    case MOp::Mul: {
      auto A = static_cast<std::int64_t>(reg(I.A));
      auto B = static_cast<std::int64_t>(reg(I.B));
      std::int64_t R;
      bool Ovf = __builtin_mul_overflow(A, B, &R);
      setReg(I.A, static_cast<std::uint64_t>(R));
      SetIntFlags(R, Ovf);
      break;
    }
    case MOp::And:
    case MOp::AndI: {
      std::uint64_t B = I.Op == MOp::And ? reg(I.B)
                                         : static_cast<std::uint64_t>(I.Imm);
      std::uint64_t R = reg(I.A) & B;
      setReg(I.A, R);
      SetIntFlags(static_cast<std::int64_t>(R), false);
      break;
    }
    case MOp::Or:
    case MOp::OrI: {
      std::uint64_t B = I.Op == MOp::Or ? reg(I.B)
                                        : static_cast<std::uint64_t>(I.Imm);
      std::uint64_t R = reg(I.A) | B;
      setReg(I.A, R);
      SetIntFlags(static_cast<std::int64_t>(R), false);
      break;
    }
    case MOp::Xor: {
      std::uint64_t R = reg(I.A) ^ reg(I.B);
      setReg(I.A, R);
      SetIntFlags(static_cast<std::int64_t>(R), false);
      break;
    }
    case MOp::Shl:
    case MOp::ShlI: {
      std::int64_t Amount =
          I.Op == MOp::Shl ? static_cast<std::int64_t>(reg(I.B)) : I.Imm;
      auto A = static_cast<std::int64_t>(reg(I.A));
      std::int64_t R = Amount >= 0 && Amount < 64
                           ? static_cast<std::int64_t>(
                                 static_cast<std::uint64_t>(A) << Amount)
                           : 0;
      // Overflow when shifting back does not round-trip.
      bool Ovf = Amount >= 0 && (Amount >= 64 || asr(R, Amount) != A);
      setReg(I.A, static_cast<std::uint64_t>(R));
      SetIntFlags(R, Ovf);
      break;
    }
    case MOp::Sar:
    case MOp::SarI: {
      std::int64_t Amount =
          I.Op == MOp::Sar ? static_cast<std::int64_t>(reg(I.B)) : I.Imm;
      auto A = static_cast<std::int64_t>(reg(I.A));
      std::int64_t R = asr(A, std::max<std::int64_t>(Amount, 0));
      setReg(I.A, static_cast<std::uint64_t>(R));
      SetIntFlags(R, false);
      break;
    }
    case MOp::Quo:
    case MOp::Rem: {
      auto A = static_cast<std::int64_t>(reg(I.A));
      auto B = static_cast<std::int64_t>(reg(I.B));
      if (B == 0) {
        MachineExit E;
        E.Kind = MachExitKind::DivideFault;
        return E;
      }
      std::int64_t R = I.Op == MOp::Quo ? truncDiv(A, B)
                                        : (A == SatMin && B == -1 ? 0 : A % B);
      setReg(I.A, static_cast<std::uint64_t>(R));
      SetIntFlags(R, false);
      break;
    }
    case MOp::Cmp:
    case MOp::CmpI: {
      auto A = static_cast<std::int64_t>(reg(I.A));
      std::int64_t B =
          I.Op == MOp::Cmp ? static_cast<std::int64_t>(reg(I.B)) : I.Imm;
      Relation = A < B ? Rel::Less : A == B ? Rel::Equal : Rel::Greater;
      Overflow = false;
      break;
    }
    case MOp::Jmp:
      Next = static_cast<std::size_t>(I.Target);
      break;
    case MOp::Jcc:
      if (condHolds(I.Cond))
        Next = static_cast<std::size_t>(I.Target);
      break;
    case MOp::CallRT:
      if (!runtimeCall(static_cast<RTFunc>(I.Aux))) {
        MachineExit E;
        E.Kind = MachExitKind::SimulationError;
        E.Note.format("unknown runtime function %u", I.Aux);
        return E;
      }
      break;
    case MOp::CallTramp: {
      MachineExit E;
      E.Kind = MachExitKind::TrampolineCall;
      E.Selector = I.Aux;
      E.NumArgs = static_cast<std::uint8_t>(I.Imm);
      return E;
    }
    case MOp::Ret: {
      MachineExit E;
      E.Kind = MachExitKind::Returned;
      return E;
    }
    case MOp::Brk: {
      MachineExit E;
      E.Kind = MachExitKind::Breakpoint;
      E.Marker = I.Aux;
      return E;
    }
    case MOp::FLoad: {
      std::uint64_t Address = reg(I.B) + static_cast<std::uint64_t>(I.Imm);
      auto V = load64(Address);
      if (!V)
        return fault(I, Address);
      double D;
      std::memcpy(&D, &*V, 8);
      setFReg(I.FA, D);
      break;
    }
    case MOp::FMovI: {
      double D;
      std::memcpy(&D, &I.Imm, 8);
      setFReg(I.FA, D);
      break;
    }
    case MOp::FMovFF:
      setFReg(I.FA, freg(I.FB));
      break;
    case MOp::FAdd:
      setFReg(I.FA, freg(I.FA) + freg(I.FB));
      break;
    case MOp::FSub:
      setFReg(I.FA, freg(I.FA) - freg(I.FB));
      break;
    case MOp::FMul:
      setFReg(I.FA, freg(I.FA) * freg(I.FB));
      break;
    case MOp::FDiv:
      setFReg(I.FA, freg(I.FA) / freg(I.FB));
      break;
    case MOp::FSqrt:
      setFReg(I.FA, std::sqrt(freg(I.FA)));
      break;
    case MOp::FTruncF:
      setFReg(I.FA, std::trunc(freg(I.FA)));
      break;
    case MOp::FCvtIF:
      setFReg(I.FA, static_cast<double>(static_cast<std::int64_t>(reg(I.A))));
      break;
    case MOp::FTrunc: {
      double F = freg(I.FA);
      bool Ovf = !(F > -9.3e18 && F < 9.3e18); // NaN also overflows
      std::int64_t R = Ovf ? 0 : static_cast<std::int64_t>(std::trunc(F));
      setReg(I.A, static_cast<std::uint64_t>(R));
      SetIntFlags(R, Ovf);
      break;
    }
    case MOp::FBitsToF: {
      double D;
      std::uint64_t Bits = reg(I.A);
      std::memcpy(&D, &Bits, 8);
      setFReg(I.FA, D);
      break;
    }
    case MOp::FBitsFromF: {
      double D = freg(I.FA);
      std::uint64_t Bits;
      std::memcpy(&Bits, &D, 8);
      setReg(I.A, Bits);
      break;
    }
    case MOp::FBits32ToF: {
      auto Bits = static_cast<std::uint32_t>(reg(I.A));
      float Narrow;
      std::memcpy(&Narrow, &Bits, 4);
      setFReg(I.FA, static_cast<double>(Narrow));
      break;
    }
    case MOp::FBitsFromF32: {
      auto Narrow = static_cast<float>(freg(I.FA));
      std::uint32_t Bits;
      std::memcpy(&Bits, &Narrow, 4);
      setReg(I.A, Bits);
      break;
    }
    case MOp::FCmp: {
      double A = freg(I.FA);
      double B = freg(I.FB);
      if (std::isnan(A) || std::isnan(B))
        Relation = Rel::Unordered;
      else
        Relation = A < B ? Rel::Less : A == B ? Rel::Equal : Rel::Greater;
      Overflow = false;
      break;
    }
    }
    PC = Next;
  }
  // Running off the end is a code-generation bug.
  MachineExit E;
  E.Kind = MachExitKind::SimulationError;
  E.Note = "execution ran past the end of the generated code";
  return E;
}

MachineExit MachineSim::runThreaded(const PredecodedCode &P,
                                    const std::vector<MInstr> &Reference) {
#if !IGDT_SIM_THREADED
  (void)P;
  return runLoop(Reference, 0);
#else
  // Fuel contract (bit-equal to the reference loop's per-instruction
  // accounting):
  //  - At a block leader with FuelRemaining >= BlockLen, the whole
  //    block is charged up front. Control only leaves a block at its
  //    terminator (terminators are block-final by construction), so a
  //    fully executed block consumes exactly BlockLen — what the
  //    reference loop would have decremented one by one.
  //  - At a leader with FuelRemaining < BlockLen, the remaining fuel
  //    cannot reach the terminator; the tail is delegated to the
  //    reference loop at the same PC, which burns the rest one
  //    instruction at a time and produces the exhaustion (or earlier
  //    fault) with identical state. Exhaustion exactly at a block
  //    boundary lands here with FuelRemaining == 0 < BlockLen.
  //  - A mid-block early exit (fault) refunds the unexecuted remainder
  //    of the charge: Charged - (PC - BlockStart + 1).
  const PInstr *const Ops = P.Instrs.data();
  const std::size_t N = P.Instrs.size();
  std::size_t PC = 0;
  std::size_t BlockStart = 0;
  std::uint32_t Charged = 0;
  const PInstr *I = nullptr;

  // Handler table indexed by PInstr::Handler (the MOp value space);
  // order must match the MOp enum exactly.
  static const void *const Table[] = {
      &&H_MovRR,  &&H_MovRI,  &&H_Load,       &&H_Store,   &&H_Load8,
      &&H_Store8, &&H_Add,    &&H_AddI,       &&H_Sub,     &&H_SubI,
      &&H_Mul,    &&H_And,    &&H_AndI,       &&H_Or,      &&H_OrI,
      &&H_Xor,    &&H_Shl,    &&H_ShlI,       &&H_Sar,     &&H_SarI,
      &&H_Quo,    &&H_Rem,    &&H_Cmp,        &&H_CmpI,    &&H_Jmp,
      &&H_Jcc,    &&H_CallRT, &&H_CallTramp,  &&H_Ret,     &&H_Brk,
      &&H_FLoad,  &&H_FMovI,  &&H_FMovFF,     &&H_FAdd,    &&H_FSub,
      &&H_FMul,   &&H_FDiv,   &&H_FSqrt,      &&H_FTruncF, &&H_FCvtIF,
      &&H_FTrunc, &&H_FCmp,   &&H_FBitsToF,   &&H_FBitsFromF,
      &&H_FBits32ToF, &&H_FBitsFromF32,
  };
  static_assert(sizeof(Table) / sizeof(Table[0]) ==
                    std::size_t(MOp::FBitsFromF32) + 1,
                "dispatch table must cover every MOp");

  auto SetIntFlags = [&](std::int64_t Result, bool Overflowed) {
    Relation = Result < 0 ? Rel::Less : Result == 0 ? Rel::Equal : Rel::Greater;
    Overflow = Overflowed;
  };
  auto RefundUnexecuted = [&] {
    FuelRemaining += Charged - std::uint32_t(PC - BlockStart + 1);
  };

#define IGDT_SIM_DISPATCH()                                                    \
  do {                                                                         \
    if (IGDT_UNLIKELY(PC >= N))                                                \
      goto ran_off_end;                                                        \
    I = &Ops[PC];                                                              \
    if (std::uint32_t BL = I->BlockLen) {                                      \
      if (IGDT_UNLIKELY(FuelRemaining < BL))                                   \
        return runLoop(Reference, PC);                                         \
      FuelRemaining -= BL;                                                     \
      Charged = BL;                                                            \
      BlockStart = PC;                                                         \
    }                                                                          \
    goto *Table[I->Handler];                                                   \
  } while (0)

#define IGDT_SIM_NEXT()                                                        \
  do {                                                                         \
    ++PC;                                                                      \
    IGDT_SIM_DISPATCH();                                                       \
  } while (0)

  IGDT_SIM_DISPATCH();

H_MovRR:
  Regs[I->A] = Regs[I->B];
  IGDT_SIM_NEXT();
H_MovRI:
  Regs[I->A] = static_cast<std::uint64_t>(I->Imm);
  IGDT_SIM_NEXT();
H_Load: {
  std::uint64_t Address = Regs[I->B] + static_cast<std::uint64_t>(I->Imm);
  auto V = load64(Address);
  if (IGDT_UNLIKELY(!V)) {
    RefundUnexecuted();
    return faultExit(false, I->A, I->FA, Address);
  }
  Regs[I->A] = *V;
  IGDT_SIM_NEXT();
}
H_Store: {
  std::uint64_t Address = Regs[I->B] + static_cast<std::uint64_t>(I->Imm);
  if (IGDT_UNLIKELY(!store64(Address, Regs[I->A]))) {
    RefundUnexecuted();
    return faultExit(false, I->A, I->FA, Address);
  }
  IGDT_SIM_NEXT();
}
H_Load8: {
  std::uint64_t Address = Regs[I->B] + static_cast<std::uint64_t>(I->Imm);
  auto V = load8(Address);
  if (IGDT_UNLIKELY(!V)) {
    RefundUnexecuted();
    return faultExit(false, I->A, I->FA, Address);
  }
  Regs[I->A] = *V;
  IGDT_SIM_NEXT();
}
H_Store8: {
  std::uint64_t Address = Regs[I->B] + static_cast<std::uint64_t>(I->Imm);
  if (IGDT_UNLIKELY(
          !store8(Address, static_cast<std::uint8_t>(Regs[I->A])))) {
    RefundUnexecuted();
    return faultExit(false, I->A, I->FA, Address);
  }
  IGDT_SIM_NEXT();
}
H_Add: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  auto B = static_cast<std::int64_t>(Regs[I->B]);
  std::int64_t R;
  bool Ovf = __builtin_add_overflow(A, B, &R);
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, Ovf);
  IGDT_SIM_NEXT();
}
H_AddI: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  std::int64_t R;
  bool Ovf = __builtin_add_overflow(A, I->Imm, &R);
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, Ovf);
  IGDT_SIM_NEXT();
}
H_Sub: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  auto B = static_cast<std::int64_t>(Regs[I->B]);
  std::int64_t R;
  bool Ovf = __builtin_sub_overflow(A, B, &R);
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, Ovf);
  IGDT_SIM_NEXT();
}
H_SubI: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  std::int64_t R;
  bool Ovf = __builtin_sub_overflow(A, I->Imm, &R);
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, Ovf);
  IGDT_SIM_NEXT();
}
H_Mul: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  auto B = static_cast<std::int64_t>(Regs[I->B]);
  std::int64_t R;
  bool Ovf = __builtin_mul_overflow(A, B, &R);
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, Ovf);
  IGDT_SIM_NEXT();
}
H_And: {
  std::uint64_t R = Regs[I->A] & Regs[I->B];
  Regs[I->A] = R;
  SetIntFlags(static_cast<std::int64_t>(R), false);
  IGDT_SIM_NEXT();
}
H_AndI: {
  std::uint64_t R = Regs[I->A] & static_cast<std::uint64_t>(I->Imm);
  Regs[I->A] = R;
  SetIntFlags(static_cast<std::int64_t>(R), false);
  IGDT_SIM_NEXT();
}
H_Or: {
  std::uint64_t R = Regs[I->A] | Regs[I->B];
  Regs[I->A] = R;
  SetIntFlags(static_cast<std::int64_t>(R), false);
  IGDT_SIM_NEXT();
}
H_OrI: {
  std::uint64_t R = Regs[I->A] | static_cast<std::uint64_t>(I->Imm);
  Regs[I->A] = R;
  SetIntFlags(static_cast<std::int64_t>(R), false);
  IGDT_SIM_NEXT();
}
H_Xor: {
  std::uint64_t R = Regs[I->A] ^ Regs[I->B];
  Regs[I->A] = R;
  SetIntFlags(static_cast<std::int64_t>(R), false);
  IGDT_SIM_NEXT();
}
H_Shl: {
  auto Amount = static_cast<std::int64_t>(Regs[I->B]);
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  std::int64_t R = Amount >= 0 && Amount < 64
                       ? static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(A) << Amount)
                       : 0;
  bool Ovf = Amount >= 0 && (Amount >= 64 || asr(R, Amount) != A);
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, Ovf);
  IGDT_SIM_NEXT();
}
H_ShlI: {
  std::int64_t Amount = I->Imm;
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  std::int64_t R = Amount >= 0 && Amount < 64
                       ? static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(A) << Amount)
                       : 0;
  bool Ovf = Amount >= 0 && (Amount >= 64 || asr(R, Amount) != A);
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, Ovf);
  IGDT_SIM_NEXT();
}
H_Sar: {
  auto Amount = static_cast<std::int64_t>(Regs[I->B]);
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  std::int64_t R = asr(A, std::max<std::int64_t>(Amount, 0));
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, false);
  IGDT_SIM_NEXT();
}
H_SarI: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  std::int64_t R = asr(A, std::max<std::int64_t>(I->Imm, 0));
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, false);
  IGDT_SIM_NEXT();
}
H_Quo: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  auto B = static_cast<std::int64_t>(Regs[I->B]);
  if (IGDT_UNLIKELY(B == 0)) {
    RefundUnexecuted();
    MachineExit E;
    E.Kind = MachExitKind::DivideFault;
    return E;
  }
  std::int64_t R = truncDiv(A, B);
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, false);
  IGDT_SIM_NEXT();
}
H_Rem: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  auto B = static_cast<std::int64_t>(Regs[I->B]);
  if (IGDT_UNLIKELY(B == 0)) {
    RefundUnexecuted();
    MachineExit E;
    E.Kind = MachExitKind::DivideFault;
    return E;
  }
  std::int64_t R = A == SatMin && B == -1 ? 0 : A % B;
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, false);
  IGDT_SIM_NEXT();
}
H_Cmp: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  auto B = static_cast<std::int64_t>(Regs[I->B]);
  Relation = A < B ? Rel::Less : A == B ? Rel::Equal : Rel::Greater;
  Overflow = false;
  IGDT_SIM_NEXT();
}
H_CmpI: {
  auto A = static_cast<std::int64_t>(Regs[I->A]);
  Relation = A < I->Imm ? Rel::Less : A == I->Imm ? Rel::Equal : Rel::Greater;
  Overflow = false;
  IGDT_SIM_NEXT();
}
H_Jmp:
  PC = I->Target;
  IGDT_SIM_DISPATCH();
H_Jcc:
  if (condHolds(static_cast<MCond>(I->Cond))) {
    PC = I->Target;
    IGDT_SIM_DISPATCH();
  }
  IGDT_SIM_NEXT();
H_CallRT:
  if (IGDT_UNLIKELY(!runtimeCall(static_cast<RTFunc>(I->Aux)))) {
    RefundUnexecuted();
    MachineExit E;
    E.Kind = MachExitKind::SimulationError;
    E.Note.format("unknown runtime function %u", unsigned(I->Aux));
    return E;
  }
  IGDT_SIM_NEXT();
H_CallTramp: {
  RefundUnexecuted();
  MachineExit E;
  E.Kind = MachExitKind::TrampolineCall;
  E.Selector = I->Aux;
  E.NumArgs = static_cast<std::uint8_t>(I->Imm);
  return E;
}
H_Ret: {
  RefundUnexecuted();
  MachineExit E;
  E.Kind = MachExitKind::Returned;
  return E;
}
H_Brk: {
  RefundUnexecuted();
  MachineExit E;
  E.Kind = MachExitKind::Breakpoint;
  E.Marker = I->Aux;
  return E;
}
H_FLoad: {
  std::uint64_t Address = Regs[I->B] + static_cast<std::uint64_t>(I->Imm);
  auto V = load64(Address);
  if (IGDT_UNLIKELY(!V)) {
    RefundUnexecuted();
    return faultExit(true, I->A, I->FA, Address);
  }
  double D;
  std::memcpy(&D, &*V, 8);
  FRegs[I->FA] = D;
  IGDT_SIM_NEXT();
}
H_FMovI: {
  double D;
  std::memcpy(&D, &I->Imm, 8);
  FRegs[I->FA] = D;
  IGDT_SIM_NEXT();
}
H_FMovFF:
  FRegs[I->FA] = FRegs[I->FB];
  IGDT_SIM_NEXT();
H_FAdd:
  FRegs[I->FA] = FRegs[I->FA] + FRegs[I->FB];
  IGDT_SIM_NEXT();
H_FSub:
  FRegs[I->FA] = FRegs[I->FA] - FRegs[I->FB];
  IGDT_SIM_NEXT();
H_FMul:
  FRegs[I->FA] = FRegs[I->FA] * FRegs[I->FB];
  IGDT_SIM_NEXT();
H_FDiv:
  FRegs[I->FA] = FRegs[I->FA] / FRegs[I->FB];
  IGDT_SIM_NEXT();
H_FSqrt:
  FRegs[I->FA] = std::sqrt(FRegs[I->FA]);
  IGDT_SIM_NEXT();
H_FTruncF:
  FRegs[I->FA] = std::trunc(FRegs[I->FA]);
  IGDT_SIM_NEXT();
H_FCvtIF:
  FRegs[I->FA] =
      static_cast<double>(static_cast<std::int64_t>(Regs[I->A]));
  IGDT_SIM_NEXT();
H_FTrunc: {
  double F = FRegs[I->FA];
  bool Ovf = !(F > -9.3e18 && F < 9.3e18); // NaN also overflows
  std::int64_t R = Ovf ? 0 : static_cast<std::int64_t>(std::trunc(F));
  Regs[I->A] = static_cast<std::uint64_t>(R);
  SetIntFlags(R, Ovf);
  IGDT_SIM_NEXT();
}
H_FCmp: {
  double A = FRegs[I->FA];
  double B = FRegs[I->FB];
  if (std::isnan(A) || std::isnan(B))
    Relation = Rel::Unordered;
  else
    Relation = A < B ? Rel::Less : A == B ? Rel::Equal : Rel::Greater;
  Overflow = false;
  IGDT_SIM_NEXT();
}
H_FBitsToF: {
  double D;
  std::uint64_t Bits = Regs[I->A];
  std::memcpy(&D, &Bits, 8);
  FRegs[I->FA] = D;
  IGDT_SIM_NEXT();
}
H_FBitsFromF: {
  double D = FRegs[I->FA];
  std::uint64_t Bits;
  std::memcpy(&Bits, &D, 8);
  Regs[I->A] = Bits;
  IGDT_SIM_NEXT();
}
H_FBits32ToF: {
  auto Bits = static_cast<std::uint32_t>(Regs[I->A]);
  float Narrow;
  std::memcpy(&Narrow, &Bits, 4);
  FRegs[I->FA] = static_cast<double>(Narrow);
  IGDT_SIM_NEXT();
}
H_FBitsFromF32: {
  auto Narrow = static_cast<float>(FRegs[I->FA]);
  std::uint32_t Bits;
  std::memcpy(&Bits, &Narrow, 4);
  Regs[I->A] = Bits;
  IGDT_SIM_NEXT();
}

ran_off_end: {
  // Running off the end is a code-generation bug (same exit as the
  // reference loop's while-condition failure).
  MachineExit E;
  E.Kind = MachExitKind::SimulationError;
  E.Note = "execution ran past the end of the generated code";
  return E;
}

#undef IGDT_SIM_DISPATCH
#undef IGDT_SIM_NEXT
#endif // IGDT_SIM_THREADED
}
