//===- tests/jit/BytecodeCogitTest.cpp -----------------------------------------===//
//
// The three byte-code compilers, executed in the simulator and compared
// against each other (TEST_P sweeps over compiler kind and target). The
// cases about statically predicted arithmetic run only on the two
// compilers that inline it; the simple compiler always sends.
//
//===----------------------------------------------------------------------===//

#include "jit/BytecodeCogit.h"

#include "jit/MachineSim.h"
#include "vm/InstructionCatalog.h"
#include "vm/MethodBuilder.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

struct Config {
  CompilerKind Kind;
  bool Arm;
};

std::string configName(const Config &C) {
  std::string Name = compilerKindName(C.Kind);
  for (char &Ch : Name)
    if (!isalnum(static_cast<unsigned char>(Ch)))
      Ch = '_';
  return Name + (C.Arm ? "_arm" : "_x64");
}

void PrintTo(const Config &C, std::ostream *OS) { *OS << configName(C); }

class BytecodeCogitTest : public ::testing::TestWithParam<Config> {
protected:
  const MachineDesc &desc() {
    return GetParam().Arm ? armDesc() : x64Desc();
  }

  /// Compiles & runs the instruction at PC 0 of \p Method with the given
  /// frame; returns the exit and keeps the simulator for inspection.
  MachineExit run(const CompiledMethod &Method, std::vector<Oop> InputStack,
                  Oop Receiver = InvalidOop, std::vector<Oop> Locals = {}) {
    BytecodeCogit Cogit(GetParam().Kind, Mem, desc(), Opts);
    auto Compiled = Cogit.compile(Method, InputStack);
    EXPECT_TRUE(Compiled.has_value());
    Last = *Compiled;

    Sim = std::make_unique<MachineSim>(Mem);
    Sim->setUpFrame(Method.numLocals());
    Sim->writeReceiver(Receiver == InvalidOop ? Mem.nilObject() : Receiver);
    for (unsigned I = 0; I < Method.numLocals(); ++I)
      Sim->writeLocal(I, I < Locals.size() ? Locals[I] : Mem.nilObject());
    return Sim->run(Last.Code);
  }

  /// Reads the final operand stack using the compiler-reported layout.
  std::vector<Oop> finalStack() {
    std::vector<Oop> Out;
    auto Memory = Sim->operandStack();
    std::size_t NextMem = 0;
    for (const ValueLoc &L : Last.FinalStack) {
      switch (L.K) {
      case ValueLoc::Kind::OperandStack:
        Out.push_back(NextMem < Memory.size() ? Memory[NextMem++]
                                              : InvalidOop);
        break;
      case ValueLoc::Kind::Register:
        Out.push_back(Sim->reg(L.Reg));
        break;
      case ValueLoc::Kind::Constant:
        Out.push_back(L.Const);
        break;
      case ValueLoc::Kind::FrameLocal:
        Out.push_back(Sim->readLocal(L.Index));
        break;
      case ValueLoc::Kind::Receiver:
        Out.push_back(Sim->readReceiver());
        break;
      case ValueLoc::Kind::SpillSlot:
        Out.push_back(
            Sim->stackLoad64(Sim->reg(MReg::FP) + igdt::abi::spillOffset(L.Index))
                .value_or(InvalidOop));
        break;
      }
    }
    return Out;
  }

  ObjectMemory Mem{256 * 1024};
  CogitOptions Opts;
  CompiledCode Last;
  std::unique_ptr<MachineSim> Sim;
};

/// The cases about inlined arithmetic, for the compilers that inline it.
class InliningCogitTest : public BytecodeCogitTest {};

TEST_P(BytecodeCogitTest, PushLocal) {
  CompiledMethod M = MethodBuilder("m").numTemps(3).pushLocal(2).build();
  MachineExit E = run(M, {}, InvalidOop, {smallIntOop(1), smallIntOop(2),
                                          smallIntOop(77)});
  ASSERT_EQ(E.Kind, MachExitKind::Breakpoint);
  EXPECT_EQ(E.Marker, MarkerFragmentEnd);
  auto S = finalStack();
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0], smallIntOop(77));
}

TEST_P(BytecodeCogitTest, PushLiteralAndConstants) {
  MethodBuilder B("m");
  std::uint8_t Lit = B.addLiteral(smallIntOop(123));
  CompiledMethod M = B.pushLiteral(Lit).build();
  run(M, {});
  EXPECT_EQ(finalStack()[0], smallIntOop(123));

  CompiledMethod MTrue = MethodBuilder("m").pushConstant(1).build();
  run(MTrue, {});
  EXPECT_EQ(finalStack()[0], Mem.trueObject());
}

TEST_P(BytecodeCogitTest, PushReceiverAndInstVar) {
  Oop P = Mem.allocateInstance(PointClass);
  Mem.storePointerSlot(P, 1, smallIntOop(5));
  CompiledMethod M = MethodBuilder("m").pushReceiver().build();
  run(M, {}, P);
  EXPECT_EQ(finalStack()[0], P);

  CompiledMethod MIv = MethodBuilder("m").pushInstVar(1).build();
  run(MIv, {}, P);
  EXPECT_EQ(finalStack()[0], smallIntOop(5));
}

TEST_P(BytecodeCogitTest, UnsafePushInstVarSegfaultsOnIntReceiver) {
  // Byte-codes are unsafe by design: compiled code dereferences blindly.
  CompiledMethod M = MethodBuilder("m").pushInstVar(0).build();
  MachineExit E = run(M, {}, smallIntOop(5));
  EXPECT_EQ(E.Kind, MachExitKind::Segfault);
}

TEST_P(BytecodeCogitTest, StoreLocal) {
  CompiledMethod M = MethodBuilder("m").numTemps(2).storeLocal(1).build();
  MachineExit E = run(M, {smallIntOop(9)});
  ASSERT_EQ(E.Kind, MachExitKind::Breakpoint);
  EXPECT_EQ(Sim->readLocal(1), smallIntOop(9));
  EXPECT_TRUE(finalStack().empty());
}

TEST_P(BytecodeCogitTest, StoreInstVar) {
  Oop P = Mem.allocateInstance(PointClass);
  CompiledMethod M = MethodBuilder("m").storeInstVar(0).build();
  run(M, {smallIntOop(11)}, P);
  EXPECT_EQ(*Mem.fetchPointerSlot(P, 0), smallIntOop(11));
}

TEST_P(BytecodeCogitTest, PopAndDup) {
  CompiledMethod MPop = MethodBuilder("m").pop().build();
  run(MPop, {smallIntOop(1), smallIntOop(2)});
  auto S = finalStack();
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0], smallIntOop(1));

  CompiledMethod MDup = MethodBuilder("m").dup().build();
  run(MDup, {smallIntOop(4)});
  S = finalStack();
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[0], smallIntOop(4));
  EXPECT_EQ(S[1], smallIntOop(4));
}

TEST_P(BytecodeCogitTest, ArithmeticAdd) {
  CompiledMethod M = MethodBuilder("m").arith(ArithOp::Add).build();
  MachineExit E = run(M, {smallIntOop(2), smallIntOop(3)});
  if (GetParam().Kind == CompilerKind::SimpleStack) {
    // No static type prediction: a send even for two SmallIntegers.
    EXPECT_EQ(E.Kind, MachExitKind::TrampolineCall);
    EXPECT_EQ(E.Selector, SelectorPlus);
  } else {
    ASSERT_EQ(E.Kind, MachExitKind::Breakpoint);
    EXPECT_EQ(finalStack()[0], smallIntOop(5));
  }
}

TEST_P(InliningCogitTest, ArithmeticOverflowTakesSlowSend) {
  CompiledMethod M = MethodBuilder("m").arith(ArithOp::Add).build();
  MachineExit E = run(M, {smallIntOop(MaxSmallInt), smallIntOop(1)});
  EXPECT_EQ(E.Kind, MachExitKind::TrampolineCall);
  EXPECT_EQ(E.Selector, SelectorPlus);
  // The slow path flushed receiver and argument for the trampoline.
  auto MemStack = Sim->operandStack();
  ASSERT_EQ(MemStack.size(), 2u);
  EXPECT_EQ(MemStack[0], smallIntOop(MaxSmallInt));
  EXPECT_EQ(MemStack[1], smallIntOop(1));
}

TEST_P(InliningCogitTest, FloatOperandsTakeSlowSend) {
  // Optimisation difference: the byte-code compilers inline integers
  // only, while the interpreter also inlines floats.
  Oop A = Mem.allocateFloat(1.5);
  Oop B = Mem.allocateFloat(2.0);
  CompiledMethod M = MethodBuilder("m").arith(ArithOp::Add).build();
  MachineExit E = run(M, {A, B});
  EXPECT_EQ(E.Kind, MachExitKind::TrampolineCall);
}

TEST_P(InliningCogitTest, ArithmeticComparisons) {
  CompiledMethod M = MethodBuilder("m").arith(ArithOp::Less).build();
  run(M, {smallIntOop(1), smallIntOop(2)});
  EXPECT_EQ(finalStack()[0], Mem.trueObject());
  run(M, {smallIntOop(2), smallIntOop(1)});
  EXPECT_EQ(finalStack()[0], Mem.falseObject());
}

TEST_P(InliningCogitTest, DivisionFamily) {
  CompiledMethod MDiv = MethodBuilder("m").arith(ArithOp::Div).build();
  run(MDiv, {smallIntOop(42), smallIntOop(7)});
  EXPECT_EQ(finalStack()[0], smallIntOop(6));
  EXPECT_EQ(run(MDiv, {smallIntOop(43), smallIntOop(7)}).Kind,
            MachExitKind::TrampolineCall); // inexact
  EXPECT_EQ(run(MDiv, {smallIntOop(1), smallIntOop(0)}).Kind,
            MachExitKind::TrampolineCall); // zero divisor

  CompiledMethod MFloor = MethodBuilder("m").arith(ArithOp::FloorDiv).build();
  run(MFloor, {smallIntOop(-7), smallIntOop(2)});
  EXPECT_EQ(finalStack()[0], smallIntOop(-4));
  CompiledMethod MMod = MethodBuilder("m").arith(ArithOp::Mod).build();
  run(MMod, {smallIntOop(-7), smallIntOop(2)});
  EXPECT_EQ(finalStack()[0], smallIntOop(1));
}

TEST_P(InliningCogitTest, SeededBitOpsAcceptNegatives) {
  // Behavioural difference: compiled code computes; the interpreter
  // would fall back to a send.
  CompiledMethod M = MethodBuilder("m").arith(ArithOp::BitAnd).build();
  MachineExit E = run(M, {smallIntOop(-4), smallIntOop(7)});
  ASSERT_EQ(E.Kind, MachExitKind::Breakpoint);
  EXPECT_EQ(finalStack()[0], smallIntOop(4));
}

TEST_P(InliningCogitTest, FixedBitOpsSendOnNegatives) {
  Opts.SeedBitOpsAcceptNegatives = false;
  CompiledMethod M = MethodBuilder("m").arith(ArithOp::BitAnd).build();
  EXPECT_EQ(run(M, {smallIntOop(-4), smallIntOop(7)}).Kind,
            MachExitKind::TrampolineCall);
}

TEST_P(InliningCogitTest, BitShift) {
  CompiledMethod M = MethodBuilder("m").arith(ArithOp::BitShift).build();
  run(M, {smallIntOop(3), smallIntOop(4)});
  EXPECT_EQ(finalStack()[0], smallIntOop(48));
  run(M, {smallIntOop(48), smallIntOop(-4)});
  EXPECT_EQ(finalStack()[0], smallIntOop(3));
  EXPECT_EQ(run(M, {smallIntOop(MaxSmallInt), smallIntOop(2)}).Kind,
            MachExitKind::TrampolineCall);
}

TEST_P(BytecodeCogitTest, IdentityEquals) {
  Oop P = Mem.allocateInstance(PointClass);
  CompiledMethod M = MethodBuilder("m").identityEquals().build();
  run(M, {P, P});
  EXPECT_EQ(finalStack()[0], Mem.trueObject());
  Oop Q = Mem.allocateInstance(PointClass);
  run(M, {P, Q});
  EXPECT_EQ(finalStack()[0], Mem.falseObject());
}

TEST_P(BytecodeCogitTest, UnconditionalJump) {
  CompiledMethod M =
      MethodBuilder("m").jump(2).pushReceiver().pushReceiver().build();
  MachineExit E = run(M, {});
  ASSERT_EQ(E.Kind, MachExitKind::Breakpoint);
  EXPECT_EQ(E.Marker, MarkerJumpTaken);
}

TEST_P(BytecodeCogitTest, ConditionalJump) {
  CompiledMethod M = MethodBuilder("m")
                         .jumpFalse(2)
                         .pushReceiver()
                         .pushReceiver()
                         .pushReceiver()
                         .build();
  EXPECT_EQ(run(M, {Mem.falseObject()}).Marker, MarkerJumpTaken);
  EXPECT_EQ(run(M, {Mem.trueObject()}).Marker, MarkerFragmentEnd);

  MachineExit E = run(M, {smallIntOop(1)});
  EXPECT_EQ(E.Kind, MachExitKind::TrampolineCall);
  EXPECT_EQ(E.Selector, SelectorMustBeBoolean);
  // The non-boolean value was re-pushed for the send.
  auto MemStack = Sim->operandStack();
  ASSERT_EQ(MemStack.size(), 1u);
  EXPECT_EQ(MemStack[0], smallIntOop(1));
}

TEST_P(BytecodeCogitTest, Send) {
  MethodBuilder B("m");
  std::uint8_t Lit = B.addLiteral(smallIntOop(SelectorAtPut));
  CompiledMethod M = B.send(Lit, 2).build();
  Oop Arr = Mem.allocateInstance(ArrayClass, 2);
  MachineExit E = run(M, {Arr, smallIntOop(1), smallIntOop(9)});
  ASSERT_EQ(E.Kind, MachExitKind::TrampolineCall);
  EXPECT_EQ(E.Selector, SelectorAtPut);
  EXPECT_EQ(E.NumArgs, 2);
  auto MemStack = Sim->operandStack();
  ASSERT_EQ(MemStack.size(), 3u);
  EXPECT_EQ(MemStack[0], Arr);
  EXPECT_EQ(MemStack[1], smallIntOop(1));
  EXPECT_EQ(MemStack[2], smallIntOop(9));
}

TEST_P(BytecodeCogitTest, Returns) {
  CompiledMethod MTop = MethodBuilder("m").returnTop().build();
  MachineExit E = run(MTop, {smallIntOop(5)});
  ASSERT_EQ(E.Kind, MachExitKind::Returned);
  EXPECT_EQ(Sim->reg(igdt::abi::ResultReg), smallIntOop(5));

  Oop P = Mem.allocateInstance(PointClass);
  CompiledMethod MRcvr = MethodBuilder("m").returnReceiver().build();
  run(MRcvr, {}, P);
  EXPECT_EQ(Sim->reg(igdt::abi::ResultReg), P);

  CompiledMethod MNil = MethodBuilder("m").returnNil().build();
  EXPECT_EQ(run(MNil, {}).Kind, MachExitKind::Returned);
  EXPECT_EQ(Sim->reg(igdt::abi::ResultReg), Mem.nilObject());
}

TEST_P(BytecodeCogitTest, UnderflowingInputRejected) {
  CompiledMethod M = MethodBuilder("m").arith(ArithOp::Add).build();
  BytecodeCogit Cogit(GetParam().Kind, Mem, desc(), Opts);
  EXPECT_FALSE(Cogit.compile(M, {smallIntOop(1)}).has_value());
}

std::string paramName(const ::testing::TestParamInfo<Config> &Info) {
  return configName(Info.param);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompilers, BytecodeCogitTest,
    ::testing::Values(Config{CompilerKind::SimpleStack, false},
                      Config{CompilerKind::SimpleStack, true},
                      Config{CompilerKind::StackToRegister, false},
                      Config{CompilerKind::StackToRegister, true},
                      Config{CompilerKind::RegisterAllocating, false},
                      Config{CompilerKind::RegisterAllocating, true}),
    paramName);

INSTANTIATE_TEST_SUITE_P(
    InliningCompilers, InliningCogitTest,
    ::testing::Values(Config{CompilerKind::StackToRegister, false},
                      Config{CompilerKind::StackToRegister, true},
                      Config{CompilerKind::RegisterAllocating, false},
                      Config{CompilerKind::RegisterAllocating, true}),
    paramName);

} // namespace
