//===- differential/DifferentialTester.cpp - Interpreter vs JIT oracle ---------===//

#include "differential/DifferentialTester.h"

#include "differential/OutputEvaluator.h"
#include "jit/BytecodeCogit.h"
#include "jit/NativeMethodCogit.h"
#include "jit/PredecodedCode.h"
#include "jit/native/NativeCode.h"
#include "jit/native/NativeEngine.h"
#include "observe/TraceBus.h"
#include "support/Compiler.h"
#include "support/CpuFeatures.h"
#include "support/StringUtils.h"
#include "symbolic/FrameMaterializer.h"
#include "vm/Bytecodes.h"

#include <memory>
#include <optional>

using namespace igdt;

const char *igdt::defectFamilyName(DefectFamily Family) {
  switch (Family) {
  case DefectFamily::MissingInterpreterTypeCheck:
    return "Missing interpreter type check";
  case DefectFamily::MissingCompiledTypeCheck:
    return "Missing compiled type check";
  case DefectFamily::OptimisationDifference:
    return "Optimisation difference";
  case DefectFamily::BehaviouralDifference:
    return "Behavioural difference";
  case DefectFamily::MissingFunctionality:
    return "Missing Functionality";
  case DefectFamily::SimulationError:
    return "Simulation Error";
  case DefectFamily::CrossEngineDivergence:
    return "Cross-engine divergence";
  }
  igdt_unreachable("unknown defect family");
}

const char *igdt::pathTestStatusName(PathTestStatus Status) {
  switch (Status) {
  case PathTestStatus::Match:
    return "match";
  case PathTestStatus::Difference:
    return "difference";
  case PathTestStatus::ExpectedFailure:
    return "expected-failure";
  case PathTestStatus::NotReplayable:
    return "not-replayable";
  case PathTestStatus::BudgetSkipped:
    return "budget-skipped";
  }
  igdt_unreachable("unknown path test status");
}

namespace {

bool intTermUsesUnchecked(const IntTerm *T);

bool floatTermUsesUnchecked(const FloatTerm *T) {
  if (!T)
    return false;
  if (T->TermKind == FloatTerm::Kind::UncheckedValueOf)
    return true;
  return floatTermUsesUnchecked(T->Lhs) || floatTermUsesUnchecked(T->Rhs) ||
         intTermUsesUnchecked(T->IntOperand);
}

bool intTermUsesUnchecked(const IntTerm *T) {
  if (!T)
    return false;
  if (T->TermKind == IntTerm::Kind::UncheckedValueOf)
    return true;
  return intTermUsesUnchecked(T->Lhs) || intTermUsesUnchecked(T->Rhs) ||
         floatTermUsesUnchecked(T->FloatOperand);
}

bool objTermUsesUnchecked(const ObjTerm *T) {
  if (!T)
    return false;
  switch (T->TermKind) {
  case ObjTerm::Kind::IntObj:
    return intTermUsesUnchecked(T->IntPayload);
  case ObjTerm::Kind::FloatObj:
    return floatTermUsesUnchecked(T->FloatPayload);
  default:
    return false;
  }
}

/// True when the interpreter path computed through a blind untag: the
/// signature of a missing *interpreter* type check.
bool pathUsesUncheckedData(const PathSolution &P) {
  if (objTermUsesUnchecked(P.Result.S))
    return true;
  for (const ConcolicValue &V : P.Output.Stack)
    if (objTermUsesUnchecked(V.S))
      return true;
  return false;
}

DefectFamily classifyDifference(ExitKind InterpExit, const MachineExit &ME,
                                const PathSolution &P) {
  if (ME.Kind == MachExitKind::SimulationError)
    return DefectFamily::SimulationError;
  if (ME.Kind == MachExitKind::Segfault ||
      ME.Kind == MachExitKind::DivideFault ||
      ME.Kind == MachExitKind::FuelExhausted)
    return DefectFamily::MissingCompiledTypeCheck;
  if (ME.Kind == MachExitKind::Breakpoint &&
      ME.Marker == MarkerNotImplemented)
    return DefectFamily::MissingFunctionality;
  if ((InterpExit == ExitKind::Success ||
       InterpExit == ExitKind::MethodReturn) &&
      ME.Kind == MachExitKind::TrampolineCall)
    // The compiled code sends where the interpreter inlined (in sequence
    // mode the interpreter may have run on to a return afterwards).
    return DefectFamily::OptimisationDifference;
  if (InterpExit == ExitKind::MessageSend &&
      (ME.Kind == MachExitKind::Breakpoint ||
       ME.Kind == MachExitKind::Returned))
    return DefectFamily::BehaviouralDifference;
  if (InterpExit == ExitKind::Success &&
      ME.Kind == MachExitKind::Breakpoint &&
      ME.Marker == MarkerPrimitiveFail)
    return pathUsesUncheckedData(P)
               ? DefectFamily::MissingInterpreterTypeCheck
               : DefectFamily::BehaviouralDifference;
  return DefectFamily::BehaviouralDifference;
}

/// Reads the final operand stack through the compiler-reported layout.
std::vector<Oop> readFinalStack(const CompiledCode &Code, MachineSim &Sim) {
  std::vector<Oop> Out;
  OperandStackView Memory = Sim.operandStackView();
  if (Code.DynamicStack) {
    // Control flow flushed everything to memory.
    Out.reserve(Memory.size());
    for (std::size_t I = 0; I < Memory.size(); ++I)
      Out.push_back(Memory[I]);
    return Out;
  }
  Out.reserve(Code.FinalStack.size());
  std::size_t NextMem = 0;
  for (const ValueLoc &L : Code.FinalStack) {
    switch (L.K) {
    case ValueLoc::Kind::OperandStack:
      Out.push_back(NextMem < Memory.size() ? Memory[NextMem++] : InvalidOop);
      break;
    case ValueLoc::Kind::Register:
      Out.push_back(Sim.reg(L.Reg));
      break;
    case ValueLoc::Kind::Constant:
      Out.push_back(L.Const);
      break;
    case ValueLoc::Kind::FrameLocal:
      Out.push_back(Sim.readLocal(L.Index));
      break;
    case ValueLoc::Kind::Receiver:
      Out.push_back(Sim.readReceiver());
      break;
    case ValueLoc::Kind::SpillSlot:
      Out.push_back(Sim.stackLoad64(Sim.reg(MReg::FP) +
                                    abi::spillOffset(L.Index))
                        .value_or(InvalidOop));
      break;
    }
  }
  return Out;
}

/// Pre-computed byte expectation of one byte-store effect.
struct ExpectedBytes {
  Oop Target = InvalidOop;
  std::int64_t Offset = 0;
  std::vector<std::uint8_t> Bytes;
  bool Valid = false;
};

/// Builds the forms a freshly compiled unit will run in before it enters
/// the code cache, so every cache hit runs the ready-built predecode and,
/// under the cross-engine oracle, native code (build-once per
/// compilation unit).
void warmEngineForms(const DiffTestConfig &Cfg, const CompiledCode &Code) {
  if (Cfg.Sim.Engine == SimEngine::Threaded)
    (void)predecodedFor(Code, Cfg.Sim.Stats);
  if (Cfg.CrossEngineCheck && nativeTierSupported())
    (void)nativeFor(Code, Cfg.Sim.Stats, Cfg.Sim.NativeMiscompileProbe);
}

} // namespace

PathTestOutcome DifferentialTester::testPath(const ExplorationResult &R,
                                             std::size_t PathIdx) {
  // HarnessFaults (fuel exhaustion in campaign mode, injected crashes)
  // unwind past this point without a verdict; the campaign's
  // Containment event covers those paths instead.
  PathTestOutcome Out = testPathImpl(R, PathIdx);
  if (Cfg.Trace) {
    TraceEvent E;
    E.Kind = TraceEventKind::PathVerdict;
    E.Detail = pathTestStatusName(Out.Status);
    E.Aux = formatString("%s/%s", compilerKindName(Cfg.Kind), desc().Name);
    E.Value = PathIdx;
    Cfg.Trace->emit(std::move(E));
  }
  return Out;
}

PathTestOutcome DifferentialTester::testPathImpl(const ExplorationResult &R,
                                                 std::size_t PathIdx) {
  const PathSolution &P = R.Paths[PathIdx];
  const InstructionSpec &Spec = *R.Spec;
  PathTestOutcome Out;
  Out.InterpreterExit = P.Exit;

  auto Skip = [&](PathTestStatus S, const char *Why) {
    Out.Status = S;
    Out.Details = Why;
    return Out;
  };

  // One work unit per path; once the shared budget expires the rest of
  // the instruction's paths are skipped rather than half-tested.
  if (Cfg.ReplayBudget && !Cfg.ReplayBudget->charge())
    return Skip(PathTestStatus::BudgetSkipped,
                "replay budget expired before this path ran");

  if (!P.Curated)
    return Skip(PathTestStatus::NotReplayable, P.CurationNote.c_str());
  if (P.Exit == ExitKind::InvalidFrame)
    return Skip(PathTestStatus::ExpectedFailure,
                "invalid-frame exits grow the input, they are not tests");
  if (P.Exit == ExitKind::InvalidMemoryAccess) {
    if (Spec.Kind == InstructionKind::Bytecode)
      return Skip(PathTestStatus::ExpectedFailure,
                  "byte-codes are unsafe by design");
    // A safe native method must never reach an invalid access.
    Out.Status = PathTestStatus::Difference;
    Out.Family = DefectFamily::MissingInterpreterTypeCheck;
    Out.CauseKey = formatString("%s|%s", defectFamilyName(Out.Family),
                                Spec.Name.c_str());
    Out.Details = "interpreter reached an invalid memory access inside a "
                  "safe native method";
    return Out;
  }

  // Step 1: re-create the concrete input frame from the constraints, on
  // the arena's heap rolled back to pristine.
  ObjectMemory &Mem = Cfg.Arena->acquireHeap(Cfg.Replay);
  FrameMaterializer Materializer(Mem, *R.Builder);
  MaterializedFrame MF = Materializer.materialize(P.InputModel, *R.Method);

  // Step 2: compile with the compiler under test, through the
  // compile-once cache when one is wired. An armed front-end fault
  // bypasses the cache entirely so the injected throw fires on every
  // path, not only the first uncached one.
  JitCodeCache *CodeCache =
      Cfg.Cogit.InjectFrontEndThrow ? nullptr : Cfg.CodeCache;
  auto EmitCacheLookup = [&](const char *What) {
    if (!Cfg.Trace)
      return;
    TraceEvent E;
    E.Kind = TraceEventKind::CacheLookup;
    E.Detail = What;
    Cfg.Trace->emit(std::move(E));
  };
  // Replays the cogit's Compile event for a cache-served compile, with
  // identical fields, so deterministic traces cannot tell a hit from a
  // fresh compile (CacheLookup diagnostics are filtered from them).
  auto EmitCompile = [&](const char *Unit, std::size_t Bytes) {
    if (!Cfg.Trace)
      return;
    TraceEvent E;
    E.Kind = TraceEventKind::Compile;
    E.Detail = compilerKindName(Cfg.Kind);
    E.Aux = Unit;
    E.Value = Bytes;
    Cfg.Trace->emit(std::move(E));
  };

  // The code under test, shared with the cache when one is wired: a hit
  // copies nothing, and a miss builds the engine forms once for every
  // later hit.
  std::shared_ptr<const CompiledCode> Shared;
  unsigned PrimNumArgs = 0;
  if (Spec.Kind == InstructionKind::NativeMethod) {
    if (Cfg.Kind != CompilerKind::NativeMethod)
      return Skip(PathTestStatus::NotReplayable,
                  "byte-code compilers do not compile native methods");
    const PrimitiveInfo *Info = primitiveInfo(Spec.PrimitiveIndex);
    PrimNumArgs = Info->NumArgs;
    if (MF.Concrete.Stack.size() < PrimNumArgs + 1u)
      return Skip(PathTestStatus::NotReplayable,
                  "input stack too shallow for the calling convention");
    JitCodeCache::Key Key;
    if (CodeCache) {
      Key = codeCacheKey(Cfg.Kind, Cfg.UseArmBackend, Cfg.Cogit,
                         Spec.PrimitiveIndex);
      Shared = CodeCache->lookup(Key);
      EmitCacheLookup(Shared ? "code-hit" : "code-miss");
    }
    if (Shared) {
      if (Cfg.JitStats)
        ++Cfg.JitStats->CodeCacheHits;
      EmitCompile("native-method", Shared->Code.size());
    } else {
      if (Cfg.JitStats)
        ++Cfg.JitStats->Compiles;
      NativeMethodCogit Cogit(Mem, desc(), Cfg.Cogit);
      Shared = std::make_shared<const CompiledCode>(
          Cogit.compile(Spec.PrimitiveIndex));
      warmEngineForms(Cfg, *Shared);
      if (CodeCache)
        CodeCache->store(std::move(Key), Shared);
    }
  } else {
    if (Cfg.Kind == CompilerKind::NativeMethod)
      return Skip(PathTestStatus::NotReplayable,
                  "the native-method compiler does not compile byte-codes");
    JitCodeCache::Key Key;
    if (CodeCache) {
      Key = codeCacheKey(Cfg.Kind, Cfg.UseArmBackend, Cfg.Cogit, *R.Method,
                         MF.Concrete.Stack, R.IsSequence);
      Shared = CodeCache->lookup(Key);
      EmitCacheLookup(Shared ? "code-hit" : "code-miss");
    }
    if (Shared) {
      if (Cfg.JitStats)
        ++Cfg.JitStats->CodeCacheHits;
      EmitCompile(R.IsSequence ? "method" : "bytecode", Shared->Code.size());
    } else {
      if (Cfg.JitStats)
        ++Cfg.JitStats->Compiles;
      BytecodeCogit Cogit(Cfg.Kind, Mem, desc(), Cfg.Cogit);
      auto Compiled = R.IsSequence
                          ? Cogit.compileMethod(*R.Method, MF.Concrete.Stack)
                          : Cogit.compile(*R.Method, MF.Concrete.Stack);
      if (!Compiled)
        return Skip(PathTestStatus::NotReplayable,
                    "instruction underflows the replayed operand stack");
      Shared = std::make_shared<const CompiledCode>(std::move(*Compiled));
      warmEngineForms(Cfg, *Shared);
      if (CodeCache)
        CodeCache->store(std::move(Key), Shared);
    }
  }
  const CompiledCode &Code = *Shared;

  // Step 3 (prep): predict the outputs BEFORE executing anything.
  OutputEvaluator Evaluator(P.InputModel, MF.Bindings, Mem, P.SlotStores);

  ExpectedValue ExpectedResult;
  if (P.Exit == ExitKind::MethodReturn ||
      (P.Exit == ExitKind::Success &&
       Spec.Kind == InstructionKind::NativeMethod))
    ExpectedResult = Evaluator.evalObj(P.Result.S);

  std::vector<ExpectedValue> ExpectedStack;
  std::vector<ExpectedValue> ExpectedLocals;
  if (P.Exit == ExitKind::Success &&
      Spec.Kind == InstructionKind::Bytecode) {
    ExpectedStack.reserve(P.Output.Stack.size());
    for (const ConcolicValue &V : P.Output.Stack)
      ExpectedStack.push_back(Evaluator.evalObj(V.S));
    ExpectedLocals.reserve(P.Output.Locals.size());
    for (const ConcolicValue &V : P.Output.Locals)
      ExpectedLocals.push_back(Evaluator.evalObj(V.S));
  }

  std::vector<ExpectedValue> ExpectedSendOperands;
  if (P.Exit == ExitKind::MessageSend) {
    std::size_t Count = std::min<std::size_t>(P.SendNumArgs + 1u,
                                              P.Output.Stack.size());
    for (std::size_t I = P.Output.Stack.size() - Count;
         I < P.Output.Stack.size(); ++I)
      ExpectedSendOperands.push_back(Evaluator.evalObj(P.Output.Stack[I].S));
  }

  // Predicted side effects on input objects.
  struct SlotExpectation {
    Oop Target;
    std::int64_t Index;
    ExpectedValue Value;
  };
  std::vector<SlotExpectation> ExpectedSlots;
  for (const SlotStoreEffect &E : P.SlotStores) {
    if (!E.Object->isVar())
      continue; // stores into fresh allocations are matched structurally
    auto Target = Evaluator.oracle().bindingOf(E.Object);
    if (!Target)
      continue;
    ExpectedSlots.push_back({*Target, E.Index, Evaluator.evalObj(E.Value.S)});
  }

  std::vector<ExpectedBytes> ExpectedByteStores;
  for (const ByteStoreEffect &E : P.ByteStores) {
    if (!E.Object->isVar())
      continue;
    ExpectedBytes EB;
    auto Target = Evaluator.oracle().bindingOf(E.Object);
    if (!Target)
      continue;
    EB.Target = *Target;
    EB.Offset = E.Offset;
    std::uint64_t Raw = 0;
    if (E.IsFloat) {
      auto F = Evaluator.evalFloat(E.FloatValue.S);
      if (!F)
        continue;
      if (E.Width == 4) {
        auto Narrow = static_cast<float>(*F);
        std::uint32_t Bits;
        __builtin_memcpy(&Bits, &Narrow, 4);
        Raw = Bits;
      } else {
        __builtin_memcpy(&Raw, &*F, 8);
      }
    } else {
      auto V = Evaluator.evalInt(E.IntValue.S);
      if (!V)
        continue;
      Raw = static_cast<std::uint64_t>(*V);
    }
    for (unsigned I = 0; I < E.Width; ++I)
      EB.Bytes.push_back(static_cast<std::uint8_t>(Raw >> (8 * I)));
    EB.Valid = true;
    ExpectedByteStores.push_back(std::move(EB));
  }

  // Expected continuation for jump byte-codes: the taken breakpoint when
  // the interpreter's PC moved beyond the fall-through continuation.
  std::uint16_t ExpectedMarker = MarkerFragmentEnd;
  if (!R.IsSequence && Spec.Kind == InstructionKind::Bytecode &&
      P.Exit == ExitKind::Success) {
    // Single-instruction mode: a taken branch stops at its own marker.
    // In sequence mode in-method jumps are real branches and a Success
    // always means the PC fell off the end (FragmentEnd).
    auto D = decodeBytecode(R.Method->Bytecodes, 0);
    if (D && (D->Op == Operation::Jump || D->Op == Operation::JumpTrue ||
              D->Op == Operation::JumpFalse) &&
        P.Output.PC != D->Length)
      ExpectedMarker = MarkerJumpTaken;
  }

  // Step 3: execute the compiled code on the concrete frame.
  auto SetUpFrame = [&](MachineSim &S) {
    if (Spec.Kind == InstructionKind::NativeMethod) {
      S.setReg(abi::ResultReg, MF.Concrete.stackValue(PrimNumArgs));
      static const MReg ArgRegs[3] = {abi::Arg0Reg, abi::Arg1Reg,
                                      abi::Arg2Reg};
      for (unsigned I = 0; I < PrimNumArgs && I < 3; ++I)
        S.setReg(ArgRegs[I], MF.Concrete.stackValue(PrimNumArgs - 1 - I));
    } else {
      S.setUpFrame(R.Method->numLocals());
      S.writeReceiver(MF.Concrete.Receiver);
      for (std::size_t I = 0; I < MF.Concrete.Locals.size(); ++I)
        S.writeLocal(static_cast<unsigned>(I), MF.Concrete.Locals[I]);
      // The operand stack is NOT pre-filled: the compiled preamble pushes
      // the inputs itself (paper Listing 3).
    }
  };

  // Cross-engine probe: run the same code and inputs through the native
  // tier on a marked heap first, snapshot everything observable, roll
  // the heap back, then compare against the authoritative run below.
  // A host without the tier runs no probe. A native method never sets
  // up a frame, so its outcome has no operand stack to compare; the
  // registers and the stack-bytes hash cover it.
  bool HasFrame = Spec.Kind == InstructionKind::Bytecode;
  struct ProbeObservation {
    MachineExit Exit;
    std::uint64_t Regs[16];
    std::uint64_t FRegBits[8];
    std::vector<std::uint64_t> Stack;
    std::uint64_t StackHash = 0;
    std::uint64_t HeapHash = 0;
  };
  std::optional<ProbeObservation> Probe;
  if (Cfg.CrossEngineCheck && nativeTierSupported()) {
    HeapMark CheckMark = Mem.mark();
    {
      SimOptions ProbeOpts = Cfg.Sim;
      // Fresh zero-filled stack (identical to a pool acquire) and no
      // trace: probe runs are an oracle detail, not replay events.
      ProbeOpts.StackPool = nullptr;
      ProbeOpts.Trace = nullptr;
      MachineSim ProbeSim(Mem, ProbeOpts);
      SetUpFrame(ProbeSim);
      ProbeObservation O;
      O.Exit = runNativeTier(ProbeSim, Code);
      for (unsigned I = 0; I < 16; ++I)
        O.Regs[I] = ProbeSim.reg(static_cast<MReg>(I));
      for (unsigned I = 0; I < 8; ++I) {
        double D = ProbeSim.freg(static_cast<FReg>(I));
        std::memcpy(&O.FRegBits[I], &D, 8);
      }
      if (HasFrame)
        O.Stack = ProbeSim.operandStack();
      O.StackHash = ProbeSim.stackHash();
      O.HeapHash = Mem.contentHash();
      Probe = std::move(O);
    }
    Mem.resetTo(CheckMark);
  }

  std::uint64_t StackResetBefore = Cfg.Arena->stackPool().bytesReset();
  MachineSim Sim(Mem, Cfg.Sim);
  if (Cfg.Replay)
    Cfg.Replay->StackBytesReset +=
        Cfg.Arena->stackPool().bytesReset() - StackResetBefore;
  std::size_t Watermark = Sim.heapWatermark();
  SetUpFrame(Sim);

  MachineExit ME = Sim.run(Code);
  Out.MachineExit = ME.Kind;

  if (Probe) {
    const MachineExit &PE = Probe->Exit;
    std::string Divergence;
    if (PE.Kind != ME.Kind)
      Divergence = formatString("exit %s vs %s", machExitKindName(PE.Kind),
                                machExitKindName(ME.Kind));
    else if (PE.Marker != ME.Marker || PE.Selector != ME.Selector ||
             PE.NumArgs != ME.NumArgs ||
             PE.FaultAddress != ME.FaultAddress ||
             PE.FuelLeft != ME.FuelLeft || PE.Note.str() != ME.Note.str())
      Divergence = formatString("exit detail mismatch on %s",
                                machExitKindName(ME.Kind));
    for (unsigned I = 0; I < 16 && Divergence.empty(); ++I)
      if (Probe->Regs[I] != Sim.reg(static_cast<MReg>(I)))
        Divergence = formatString(
            "r%u = %llx native vs %llx simulated", I,
            (unsigned long long)Probe->Regs[I],
            (unsigned long long)Sim.reg(static_cast<MReg>(I)));
    for (unsigned I = 0; I < 8 && Divergence.empty(); ++I) {
      double D = Sim.freg(static_cast<FReg>(I));
      std::uint64_t Bits;
      std::memcpy(&Bits, &D, 8);
      if (Probe->FRegBits[I] != Bits)
        Divergence = formatString("f%u bit pattern differs", I);
    }
    if (Divergence.empty() && HasFrame && Probe->Stack != Sim.operandStack())
      Divergence = "operand stack differs";
    if (Divergence.empty() && Probe->StackHash != Sim.stackHash())
      Divergence = "stack bytes differ";
    if (Divergence.empty() && Probe->HeapHash != Mem.contentHash())
      Divergence = "heap contents differ";
    if (!Divergence.empty()) {
      Out.Status = PathTestStatus::Difference;
      Out.Family = DefectFamily::CrossEngineDivergence;
      Out.CauseKey = formatString("%s|%s", defectFamilyName(Out.Family),
                                  Spec.Name.c_str());
      Out.Details =
          "native tier diverged from the simulator: " + Divergence;
      return Out;
    }
  }

  if (ME.Kind == MachExitKind::FuelExhausted &&
      Cfg.FuelExhaustionIsHarnessFault)
    // Scarce fuel is a harness condition, not evidence about the
    // compiler; surface it to the campaign's containment boundary.
    throw HarnessFault("simulate",
                       "simulator fuel exhausted while replaying '" +
                           Spec.Name + "'" +
                           (ME.Note.empty() ? "" : ": " + ME.Note.str()));

  auto Difference = [&](std::string Details) {
    Out.Status = PathTestStatus::Difference;
    Out.Family = classifyDifference(P.Exit, ME, P);
    Out.CauseKey = formatString("%s|%s", defectFamilyName(Out.Family),
                                Spec.Name.c_str());
    Out.Details = std::move(Details);
    if (!ME.Note.empty())
      Out.Details += " [" + ME.Note.str() + "]";
    return Out;
  };
  auto ExitName = [](const MachineExit &E) {
    std::string N = machExitKindName(E.Kind);
    if (E.Kind == MachExitKind::Breakpoint)
      N += formatString("(marker %u)", E.Marker);
    return N;
  };

  // Step 4: validate observable behaviour.
  std::string Why;
  switch (P.Exit) {
  case ExitKind::Success: {
    if (Spec.Kind == InstructionKind::NativeMethod) {
      if (ME.Kind != MachExitKind::Returned)
        return Difference(formatString(
            "interpreter succeeded, compiled code exited %s",
            ExitName(ME).c_str()));
      if (!Evaluator.matches(ExpectedResult, Sim.reg(abi::ResultReg), Mem,
                             Watermark, Why))
        return Difference("result mismatch: " + Why);
    } else {
      if (ME.Kind != MachExitKind::Breakpoint ||
          (ME.Marker != ExpectedMarker))
        return Difference(formatString(
            "interpreter succeeded (continuation %s), compiled code "
            "exited %s",
            ExpectedMarker == MarkerJumpTaken ? "taken" : "fall-through",
            ExitName(ME).c_str()));
      std::vector<Oop> Observed = readFinalStack(Code, Sim);
      if (Observed.size() != ExpectedStack.size())
        return Difference(formatString(
            "operand stack depth %zu, expected %zu", Observed.size(),
            ExpectedStack.size()));
      for (std::size_t I = 0; I < Observed.size(); ++I)
        if (!Evaluator.matches(ExpectedStack[I], Observed[I], Mem, Watermark,
                               Why))
          return Difference(
              formatString("operand stack entry %zu mismatch: %s", I,
                           Why.c_str()));
      for (std::size_t I = 0; I < ExpectedLocals.size(); ++I)
        if (!Evaluator.matches(ExpectedLocals[I],
                               Sim.readLocal(static_cast<unsigned>(I)), Mem,
                               Watermark, Why))
          return Difference(
              formatString("local %zu mismatch: %s", I, Why.c_str()));
    }
    break;
  }
  case ExitKind::PrimitiveFailure:
    if (ME.Kind != MachExitKind::Breakpoint ||
        (ME.Marker != MarkerPrimitiveFail &&
         ME.Marker != MarkerNotImplemented))
      return Difference(formatString(
          "interpreter failed the primitive, compiled code exited %s",
          ExitName(ME).c_str()));
    break;
  case ExitKind::MessageSend: {
    if (ME.Kind != MachExitKind::TrampolineCall)
      return Difference(formatString(
          "interpreter sent #%u, compiled code exited %s", P.Selector,
          ExitName(ME).c_str()));
    if (ME.Selector != P.Selector || ME.NumArgs != P.SendNumArgs)
      return Difference(formatString(
          "send mismatch: interpreter #%u/%u, compiled #%u/%u", P.Selector,
          P.SendNumArgs, ME.Selector, ME.NumArgs));
    OperandStackView MemStack = Sim.operandStackView();
    if (MemStack.size() < ExpectedSendOperands.size())
      return Difference("trampoline operands missing from the stack");
    std::size_t Base = MemStack.size() - ExpectedSendOperands.size();
    for (std::size_t I = 0; I < ExpectedSendOperands.size(); ++I)
      if (!Evaluator.matches(ExpectedSendOperands[I], MemStack[Base + I],
                             Mem, Watermark, Why))
        return Difference(formatString("send operand %zu mismatch: %s", I,
                                       Why.c_str()));
    break;
  }
  case ExitKind::MethodReturn:
    if (ME.Kind != MachExitKind::Returned)
      return Difference(formatString(
          "interpreter returned, compiled code exited %s",
          ExitName(ME).c_str()));
    if (!Evaluator.matches(ExpectedResult, Sim.reg(abi::ResultReg), Mem,
                           Watermark, Why))
      return Difference("returned value mismatch: " + Why);
    break;
  case ExitKind::InvalidFrame:
  case ExitKind::InvalidMemoryAccess:
    igdt_unreachable("handled above");
  }

  // Side effects on input objects.
  for (const SlotExpectation &E : ExpectedSlots) {
    auto Slot = Mem.fetchPointerSlot(E.Target,
                                     static_cast<std::uint32_t>(E.Index));
    if (!Slot)
      return Difference("stored-into slot vanished");
    if (!Evaluator.matches(E.Value, *Slot, Mem, Watermark, Why))
      return Difference(formatString("slot store %lld mismatch: %s",
                                     (long long)E.Index, Why.c_str()));
  }
  for (const ExpectedBytes &E : ExpectedByteStores) {
    for (std::size_t I = 0; I < E.Bytes.size(); ++I) {
      auto Byte = Mem.fetchByte(
          E.Target, static_cast<std::uint32_t>(E.Offset + std::int64_t(I)));
      if (!Byte || *Byte != E.Bytes[I])
        return Difference(formatString(
            "byte store at offset %lld mismatch",
            (long long)(E.Offset + std::int64_t(I))));
    }
  }

  Out.Status = PathTestStatus::Match;
  return Out;
}
