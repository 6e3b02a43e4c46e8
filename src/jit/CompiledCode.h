//===- jit/CompiledCode.h - Front-end output -----------------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a front-end produces for one instruction under test, and the
/// metadata the differential tester needs to interpret the machine state
/// afterwards: where each final operand-stack entry lives (interpreter
/// and compiler frames need not have the same shape — paper §2.4 — so
/// the tester reads the layout the compiler reports).
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_JIT_COMPILEDCODE_H
#define IGDT_JIT_COMPILEDCODE_H

#include "jit/MachineCode.h"
#include "vm/Oop.h"

#include <memory>
#include <vector>

namespace igdt {

struct PredecodedCode;
struct NativeCode;

/// Where one operand-stack entry lives when the fragment finishes.
struct ValueLoc {
  enum class Kind : std::uint8_t {
    OperandStack, ///< in the in-memory operand stack (in order)
    Register,     ///< in machine register Reg
    Constant,     ///< a compile-time constant (parse-time stack)
    FrameLocal,   ///< still aliased to frame local Index
    Receiver,     ///< still aliased to the frame receiver
    SpillSlot,    ///< in FP-relative spill slot Index
  };
  Kind K = Kind::OperandStack;
  MReg Reg = MReg::NoReg;
  Oop Const = InvalidOop;
  std::uint32_t Index = 0;

  static ValueLoc onStack() { return {}; }
  static ValueLoc inReg(MReg R) {
    ValueLoc L;
    L.K = Kind::Register;
    L.Reg = R;
    return L;
  }
  static ValueLoc constant(Oop V) {
    ValueLoc L;
    L.K = Kind::Constant;
    L.Const = V;
    return L;
  }
  static ValueLoc local(std::uint32_t I) {
    ValueLoc L;
    L.K = Kind::FrameLocal;
    L.Index = I;
    return L;
  }
  static ValueLoc receiver() {
    ValueLoc L;
    L.K = Kind::Receiver;
    return L;
  }
  static ValueLoc spill(std::uint32_t I) {
    ValueLoc L;
    L.K = Kind::SpillSlot;
    L.Index = I;
    return L;
  }
};

/// A compiled instruction plus its observation metadata.
struct CompiledCode {
  std::vector<MInstr> Code;
  /// Final operand-stack layout (bottom to top) at the fragment-end
  /// breakpoint. Entries of kind OperandStack are consumed from the
  /// in-memory stack in order.
  std::vector<ValueLoc> FinalStack;
  /// True when the compiler only emitted a not-implemented stub.
  bool NotImplemented = false;
  /// True when control flow makes the final layout dynamic: the tester
  /// reads the whole in-memory operand stack instead of FinalStack.
  bool DynamicStack = false;
  /// Statistics for the evaluation harness.
  unsigned IRLength = 0;
  unsigned SpillCount = 0;
  /// Threaded-dispatch form (jit/PredecodedCode.h), built lazily by
  /// predecodedFor(). The code cache hands every path of a compilation
  /// unit the same shared, immutable CompiledCode, so the predecode is
  /// built once per unit. Mutable because building it observes the
  /// code without changing it.
  mutable std::shared_ptr<const PredecodedCode> Predecoded;
  /// Native x86-64 form (jit/native/NativeCode.h), built lazily by
  /// nativeFor() under the same build-once-per-unit contract. Rebuilt
  /// only when the miscompile-probe setting changes.
  mutable std::shared_ptr<const NativeCode> Native;
};

} // namespace igdt

#endif // IGDT_JIT_COMPILEDCODE_H
