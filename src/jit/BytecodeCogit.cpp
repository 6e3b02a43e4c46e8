//===- jit/BytecodeCogit.cpp - Byte-code to machine-code front-ends ------------===//

#include "jit/BytecodeCogit.h"

#include "jit/CodeGenUtil.h"
#include "jit/LinearScan.h"
#include "jit/Lowering.h"
#include "jit/Trampolines.h"
#include "observe/TraceBus.h"
#include "support/Budget.h"
#include "support/Compiler.h"
#include "vm/Bytecodes.h"

#include <algorithm>

using namespace igdt;

const char *igdt::compilerKindName(CompilerKind Kind) {
  switch (Kind) {
  case CompilerKind::NativeMethod:
    return "Native Methods (primitives)";
  case CompilerKind::SimpleStack:
    return "Simple Stack BC Compiler";
  case CompilerKind::StackToRegister:
    return "Stack-to-Register BC Compiler";
  case CompilerKind::RegisterAllocating:
    return "Linear-Scan Allocator BC Compiler";
  }
  igdt_unreachable("unknown compiler kind");
}

namespace {

const VReg FP = preg(MReg::FP);
const VReg SP = preg(MReg::SP);
const VReg R0 = preg(MReg::R0);

/// Labels for jump-target PCs in whole-method (sequence) compilation,
/// indexed by PC up to and including the method end: NoLabel where no
/// jump lands. Null in single-instruction mode, where taken branches end
/// at a dedicated breakpoint instead.
using PCLabelMap = std::vector<std::int32_t>;
constexpr std::int32_t NoLabel = -1;

/// A parse-time stack entry.
struct SimVal {
  enum class K : std::uint8_t { Const, Reg, Local, Rcvr, Mem };
  K Kind = K::Const;
  Oop C = InvalidOop;
  VReg R = NoVReg;
  std::uint32_t Index = 0;

  static SimVal constant(Oop V) { return {K::Const, V, NoVReg, 0}; }
  static SimVal inReg(VReg R) { return {K::Reg, InvalidOop, R, 0}; }
  static SimVal local(std::uint32_t I) {
    return {K::Local, InvalidOop, NoVReg, I};
  }
  static SimVal receiver() { return {K::Rcvr, InvalidOop, NoVReg, 0}; }
  static SimVal inMemory() { return {K::Mem, InvalidOop, NoVReg, 0}; }
};

/// An out-of-line block the emitters queue while compiling and emit, in
/// queue order, after the fragment-end breakpoint.
struct DeferredBlock {
  enum class Kind : std::uint8_t {
    JumpTaken,     ///< a taken branch's own breakpoint
    MustBeBoolean, ///< re-push Value and send #mustBeBoolean
    ArithSlowPath, ///< push FlushR and FlushA, send the Op selector
  };
  Kind K;
  std::int32_t Label;
  VReg Value = NoVReg;
  ArithOp Op = ArithOp::Add;
  SimVal FlushR = {};
  SimVal FlushA = {};

  static DeferredBlock jumpTaken(std::int32_t Label) {
    return {Kind::JumpTaken, Label};
  }
  static DeferredBlock mustBeBoolean(std::int32_t Label, VReg Value) {
    return {Kind::MustBeBoolean, Label, Value};
  }
  static DeferredBlock arithSlowPath(std::int32_t Label, ArithOp Op,
                                     SimVal FlushR, SimVal FlushA) {
    return {Kind::ArithSlowPath, Label, NoVReg, Op, FlushR, FlushA};
  }
};

/// Emits a JumpTaken or MustBeBoolean block.
void emitSharedDeferred(IRBuilder &B, const DeferredBlock &D) {
  B.placeLabel(D.Label);
  if (D.K == DeferredBlock::Kind::JumpTaken) {
    B.brk(MarkerJumpTaken);
    return;
  }
  assert(D.K == DeferredBlock::Kind::MustBeBoolean);
  // The interpreter re-pushes the value and sends #mustBeBoolean.
  B.store(D.Value, SP, 0);
  B.addI(SP, 8);
  B.callTramp(SelectorMustBeBoolean, 0);
}

/// Branch target for a jump to byte-code \p TargetPC: its label in
/// sequence mode, else a fresh label whose deferred block ends the
/// fragment at the taken breakpoint.
std::int32_t takenLabel(IRBuilder &B, std::vector<DeferredBlock> &Deferred,
                        const PCLabelMap *PCLabels, std::uint32_t TargetPC) {
  if (PCLabels)
    return (*PCLabels)[TargetPC];
  std::int32_t Taken = B.makeLabel();
  Deferred.push_back(DeferredBlock::jumpTaken(Taken));
  return Taken;
}

/// Rough IR sizes, so the emitters' buffers rarely grow: the preamble
/// and breakpoints, each input value, and each byte-code of a method.
constexpr std::size_t IRReserveBase = 32;
constexpr std::size_t IRReservePerInput = 3;
constexpr std::size_t IRReservePerBytecode = 16;

/// How many operand-stack values the byte-code consumes.
unsigned popsOf(const DecodedBytecode &D) {
  switch (D.Op) {
  case Operation::Arithmetic:
  case Operation::IdentityEquals:
    return 2;
  case Operation::StoreLocal:
  case Operation::StoreInstVar:
  case Operation::Pop:
  case Operation::Dup:
  case Operation::JumpTrue:
  case Operation::JumpFalse:
  case Operation::ReturnTop:
    return 1;
  case Operation::Send:
    return unsigned(D.B) + 1;
  default:
    return 0;
  }
}

/// Collects the in-method jump targets of \p Method and makes their
/// labels, in ascending PC order.
std::optional<PCLabelMap> jumpTargetsOf(const CompiledMethod &Method,
                                        IRFunction &F) {
  PCLabelMap Targets(Method.Bytecodes.size() + 1, NoLabel);
  std::uint32_t PC = 0;
  while (PC < Method.Bytecodes.size()) {
    auto D = decodeBytecode(Method.Bytecodes, PC);
    if (!D)
      return std::nullopt;
    if (D->Op == Operation::Jump || D->Op == Operation::JumpTrue ||
        D->Op == Operation::JumpFalse) {
      std::int64_t Target = std::int64_t(PC) + D->Length + D->A;
      if (Target < 0 || Target > std::int64_t(Method.Bytecodes.size()))
        return std::nullopt;
      Targets[static_cast<std::size_t>(Target)] = 0; // a jump lands here
    }
    PC += D->Length;
  }
  for (std::int32_t &Label : Targets)
    if (Label != NoLabel)
      Label = F.makeLabel();
  return Targets;
}

bool hasJumps(const PCLabelMap &PCLabels) {
  return std::any_of(PCLabels.begin(), PCLabels.end(),
                     [](std::int32_t L) { return L != NoLabel; });
}

//===----------------------------------------------------------------------===//
// SimpleStackCogit: memory-stack code, no type prediction.
//===----------------------------------------------------------------------===//

class SimpleEmitter {
public:
  SimpleEmitter(ObjectMemory &Mem, IRFunction &F)
      : Mem(Mem), F(F), B(F), U(B) {}

  CompiledCode emit(const CompiledMethod &Method,
                    const std::vector<Oop> &InputStack);
  std::optional<CompiledCode>
  emitMethod(const CompiledMethod &Method,
             const std::vector<Oop> &InputStack);

private:
  void genOne(const CompiledMethod &Method, const DecodedBytecode &D,
              const PCLabelMap *PCLabels, std::uint32_t NextPC);
  void genPreamble(const std::vector<Oop> &InputStack) {
    const VReg T0 = preg(MReg::R4);
    for (Oop V : InputStack) {
      B.movRI(T0, static_cast<std::int64_t>(V));
      pushReg(T0);
    }
  }
  void pushReg(VReg V) {
    B.store(V, SP, 0);
    B.addI(SP, 8);
    ++MemCount;
  }
  void popReg(VReg V) {
    B.subI(SP, 8);
    B.load(V, SP, 0);
    --MemCount;
  }
  void emitDeferred() {
    for (const DeferredBlock &D : Deferred)
      emitSharedDeferred(B, D);
  }

  ObjectMemory &Mem;
  IRFunction &F;
  IRBuilder B;
  CodeGenUtil U;
  int MemCount = 0;
  std::vector<DeferredBlock> Deferred;
};

void SimpleEmitter::genOne(const CompiledMethod &Method,
                           const DecodedBytecode &D,
                           const PCLabelMap *PCLabels,
                           std::uint32_t NextPC) {
  const VReg T0 = preg(MReg::R4);
  const VReg T1 = preg(MReg::R5);

  switch (D.Op) {
  case Operation::PushLocal:
    B.load(T0, FP, abi::localOffset(unsigned(D.A)));
    pushReg(T0);
    break;
  case Operation::PushLiteral:
    B.movRI(T0, static_cast<std::int64_t>(Method.Literals[D.A]));
    pushReg(T0);
    break;
  case Operation::PushInstVar:
    // Unsafe by design: no type or bounds check (paper §3.1).
    B.load(T0, FP, abi::ReceiverOffset);
    B.load(T0, T0, abi::BodyOffset + 8 * std::int64_t(D.A));
    pushReg(T0);
    break;
  case Operation::PushConstant: {
    static const int ConstInts[] = {0, 0, 0, 0, 1, 2, -1};
    Oop C = D.A == 0   ? Mem.nilObject()
            : D.A == 1 ? Mem.trueObject()
            : D.A == 2 ? Mem.falseObject()
                       : smallIntOop(ConstInts[D.A]);
    B.movRI(T0, static_cast<std::int64_t>(C));
    pushReg(T0);
    break;
  }
  case Operation::PushReceiver:
    B.load(T0, FP, abi::ReceiverOffset);
    pushReg(T0);
    break;
  case Operation::StoreLocal:
    popReg(T0);
    B.store(T0, FP, abi::localOffset(unsigned(D.A)));
    break;
  case Operation::StoreInstVar:
    popReg(T0);
    B.load(T1, FP, abi::ReceiverOffset);
    B.store(T0, T1, abi::BodyOffset + 8 * std::int64_t(D.A));
    break;
  case Operation::Pop:
    B.subI(SP, 8);
    --MemCount;
    break;
  case Operation::Dup:
    B.load(T0, SP, -8);
    pushReg(T0);
    break;
  case Operation::Arithmetic:
    // No static type prediction (paper §4.1): plain message send.
    B.callTramp(arithSelector(static_cast<ArithOp>(D.A)), 1);
    MemCount -= 1; // conceptually: two operands replaced by one result
    break;
  case Operation::IdentityEquals: {
    popReg(T1);
    popReg(T0);
    B.cmp(T0, T1);
    U.boolResult(T0, MCond::Eq, Mem.trueObject(), Mem.falseObject());
    pushReg(T0);
    break;
  }
  case Operation::Jump:
    B.jmp(takenLabel(B, Deferred, PCLabels,
                     static_cast<std::uint32_t>(NextPC + D.A)));
    break;
  case Operation::JumpTrue:
  case Operation::JumpFalse: {
    bool OnTrue = D.Op == Operation::JumpTrue;
    std::int32_t Taken = takenLabel(B, Deferred, PCLabels,
                                    static_cast<std::uint32_t>(NextPC + D.A));
    std::int32_t MustBeBool = B.makeLabel();
    popReg(T0);
    B.movRI(T1, static_cast<std::int64_t>(OnTrue ? Mem.trueObject()
                                                 : Mem.falseObject()));
    B.cmp(T0, T1);
    B.jcc(MCond::Eq, Taken);
    B.movRI(T1, static_cast<std::int64_t>(OnTrue ? Mem.falseObject()
                                                 : Mem.trueObject()));
    B.cmp(T0, T1);
    B.jcc(MCond::Ne, MustBeBool);
    // fall through to the continuation
    Deferred.push_back(DeferredBlock::mustBeBoolean(MustBeBool, T0));
    break;
  }
  case Operation::Send: {
    Oop SelectorLit = Method.Literals[D.A];
    B.callTramp(static_cast<SelectorId>(smallIntValue(SelectorLit)),
                unsigned(D.B));
    MemCount -= int(D.B); // receiver+args replaced by the send result
    break;
  }
  case Operation::ReturnTop:
    popReg(R0);
    B.ret();
    break;
  case Operation::ReturnReceiver:
    B.load(R0, FP, abi::ReceiverOffset);
    B.ret();
    break;
  case Operation::ReturnConstant: {
    Oop C = D.A == 0   ? Mem.nilObject()
            : D.A == 1 ? Mem.trueObject()
                       : Mem.falseObject();
    B.movRI(R0, static_cast<std::int64_t>(C));
    B.ret();
    break;
  }
  }
}

CompiledCode SimpleEmitter::emit(const CompiledMethod &Method,
                                 const std::vector<Oop> &InputStack) {
  F.Code.reserve(IRReserveBase + IRReservePerInput * InputStack.size());
  genPreamble(InputStack);
  auto D = decodeBytecode(Method.Bytecodes, 0);
  genOne(Method, *D, /*PCLabels=*/nullptr, D->Length);
  B.brk(MarkerFragmentEnd);
  emitDeferred();

  CompiledCode Out;
  Out.FinalStack.assign(static_cast<std::size_t>(std::max(MemCount, 0)),
                        ValueLoc::onStack());
  return Out;
}

std::optional<CompiledCode>
SimpleEmitter::emitMethod(const CompiledMethod &Method,
                          const std::vector<Oop> &InputStack) {
  auto PCLabels = jumpTargetsOf(Method, F);
  if (!PCLabels)
    return std::nullopt;
  F.Code.reserve(IRReserveBase + IRReservePerInput * InputStack.size() +
                 IRReservePerBytecode * Method.Bytecodes.size());
  genPreamble(InputStack);
  std::uint32_t PC = 0;
  while (PC < Method.Bytecodes.size()) {
    if ((*PCLabels)[PC] != NoLabel)
      B.placeLabel((*PCLabels)[PC]);
    auto D = decodeBytecode(Method.Bytecodes, PC);
    if (!D)
      return std::nullopt;
    genOne(Method, *D, &*PCLabels, PC + D->Length);
    PC += D->Length;
  }
  if ((*PCLabels)[PC] != NoLabel)
    B.placeLabel((*PCLabels)[PC]); // jumps to the method end fall through
  B.brk(MarkerFragmentEnd);
  emitDeferred();

  CompiledCode Out;
  // Control flow makes the static count unreliable; the tester reads the
  // live operand stack.
  Out.DynamicStack = hasJumps(*PCLabels);
  if (!Out.DynamicStack)
    Out.FinalStack.assign(static_cast<std::size_t>(std::max(MemCount, 0)),
                          ValueLoc::onStack());
  return Out;
}

//===----------------------------------------------------------------------===//
// StackToRegisterCogit / RegisterAllocatingCogit: parse-time sim stack.
//===----------------------------------------------------------------------===//

class SimStackEmitter {
public:
  SimStackEmitter(ObjectMemory &Mem, IRFunction &F, bool UseVirtualRegs)
      : Mem(Mem), F(F), B(F), U(B), Virtual(UseVirtualRegs) {}

  CompiledCode emit(const CompiledMethod &Method,
                    const std::vector<Oop> &InputStack);
  std::optional<CompiledCode>
  emitMethod(const CompiledMethod &Method,
             const std::vector<Oop> &InputStack);

  /// Defect seeds threaded in by BytecodeCogit::compile.
  CogitOptions CompileOpts;

private:
  /// Allocates a value register: a fresh virtual register for the
  /// register-allocating compiler, the next parse-time pool register
  /// (R4..R8) for the stack-to-register compiler.
  VReg allocReg() {
    if (Virtual)
      return F.newVReg();
    assert(NextPool <= unsigned(MReg::R8) &&
           "parse-time pool exhausted (emitMethod flushes to prevent "
           "this)");
    return preg(static_cast<MReg>(NextPool++));
  }
  /// Transient temp for tag tests and flushes (never live across a
  /// value allocation).
  VReg tmpReg() { return Virtual ? F.newVReg() : preg(MReg::R9); }

  /// Materialises \p V into a freshly allocated register (safe to
  /// mutate). Memory entries are popped — they are only materialised in
  /// top-first order, which every caller observes.
  VReg materialize(const SimVal &V) {
    VReg R = allocReg();
    switch (V.Kind) {
    case SimVal::K::Const:
      B.movRI(R, static_cast<std::int64_t>(V.C));
      break;
    case SimVal::K::Reg:
      B.movRR(R, V.R);
      break;
    case SimVal::K::Local:
      B.load(R, FP, abi::localOffset(V.Index));
      break;
    case SimVal::K::Rcvr:
      B.load(R, FP, abi::ReceiverOffset);
      break;
    case SimVal::K::Mem:
      B.subI(SP, 8);
      B.load(R, SP, 0);
      break;
    }
    return R;
  }

  /// Emits a push of \p V onto the in-memory operand stack. Memory
  /// entries are already there.
  void flushValue(const SimVal &V) {
    if (V.Kind == SimVal::K::Mem)
      return;
    VReg T = tmpReg();
    switch (V.Kind) {
    case SimVal::K::Const:
      B.movRI(T, static_cast<std::int64_t>(V.C));
      break;
    case SimVal::K::Reg:
      T = V.R;
      break;
    case SimVal::K::Local:
      B.load(T, FP, abi::localOffset(V.Index));
      break;
    case SimVal::K::Rcvr:
      B.load(T, FP, abi::ReceiverOffset);
      break;
    case SimVal::K::Mem:
      return;
    }
    B.store(T, SP, 0);
    B.addI(SP, 8);
  }

  /// Flushes the whole parse-time stack to memory: the invariant at
  /// control-flow merge points ("ssFlush" in the real Cogit).
  void flushAll() {
    for (SimVal &V : Sim) {
      flushValue(V);
      V = SimVal::inMemory();
    }
  }

  void genOne(const CompiledMethod &Method, const DecodedBytecode &D,
              const PCLabelMap *PCLabels, std::uint32_t NextPC);
  void genArithmetic(ArithOp Op);
  void genConditionalJump(bool OnTrue, std::int32_t Taken);
  void emitDeferred();

  CompiledCode finish(bool Dynamic);

  ObjectMemory &Mem;
  IRFunction &F;
  IRBuilder B;
  CodeGenUtil U;
  bool Virtual;
  unsigned NextPool = unsigned(MReg::R4);
  std::vector<SimVal> Sim;
  std::vector<DeferredBlock> Deferred;
};

void SimStackEmitter::emitDeferred() {
  for (const DeferredBlock &D : Deferred) {
    if (D.K != DeferredBlock::Kind::ArithSlowPath) {
      emitSharedDeferred(B, D);
      continue;
    }
    // Slow path: flush the original operands and send (paper Listing 2's
    // "slow case first send"). Memory operands were consumed during
    // materialisation, so their pristine register copies are pushed.
    B.placeLabel(D.Label);
    flushValue(D.FlushR);
    flushValue(D.FlushA);
    B.callTramp(arithSelector(D.Op), 1);
  }
}

void SimStackEmitter::genArithmetic(ArithOp Op) {
  SimVal VA = Sim.back();
  Sim.pop_back();
  SimVal VR = Sim.back();
  Sim.pop_back();

  // Memory operands must be materialised top-first.
  VReg RA = materialize(VA);
  VReg RR = materialize(VR);

  std::int32_t Slow = B.makeLabel();
  // The fast path mutates RA/RR in place; the slow path must push the
  // *original* operand values. Non-memory operands re-materialise from
  // their source; memory operands need a pristine register copy.
  SimVal FlushR = VR;
  SimVal FlushA = VA;
  if (VR.Kind == SimVal::K::Mem) {
    VReg P = allocReg();
    B.movRR(P, RR);
    FlushR = SimVal::inReg(P);
  }
  if (VA.Kind == SimVal::K::Mem) {
    VReg P = allocReg();
    B.movRR(P, RA);
    FlushA = SimVal::inReg(P);
  }
  Deferred.push_back(DeferredBlock::arithSlowPath(Slow, Op, FlushR, FlushA));

  VReg T = tmpReg();

  // checkSmallInteger / jumpzero of the paper's Listing 2. Integer
  // arithmetic only: floats take the slow path (the optimisation
  // difference against the interpreter).
  U.checkSmallInt(RR, T, Slow);
  U.checkSmallInt(RA, T, Slow);

  auto PushBool = [&](MCond Cond) {
    VReg RD = allocReg();
    U.boolResult(RD, Cond, Mem.trueObject(), Mem.falseObject());
    Sim.push_back(SimVal::inReg(RD));
  };

  switch (Op) {
  case ArithOp::Add:
    U.untag(RR);
    U.untag(RA);
    B.add(RR, RA);
    B.jcc(MCond::Ov, Slow);
    U.checkSmallIntRange(RR, Slow);
    U.tag(RR);
    Sim.push_back(SimVal::inReg(RR));
    return;
  case ArithOp::Sub:
    U.untag(RR);
    U.untag(RA);
    B.sub(RR, RA);
    B.jcc(MCond::Ov, Slow);
    U.checkSmallIntRange(RR, Slow);
    U.tag(RR);
    Sim.push_back(SimVal::inReg(RR));
    return;
  case ArithOp::Mul:
    U.untag(RR);
    U.untag(RA);
    B.mul(RR, RA);
    B.jcc(MCond::Ov, Slow);
    U.checkSmallIntRange(RR, Slow);
    U.tag(RR);
    Sim.push_back(SimVal::inReg(RR));
    return;
  case ArithOp::Div: {
    U.untag(RR);
    U.untag(RA);
    B.cmpI(RA, 0);
    B.jcc(MCond::Eq, Slow);
    VReg T2 = allocReg();
    B.movRR(T2, RR);
    B.rem(T2, RA);
    B.cmpI(T2, 0);
    B.jcc(MCond::Ne, Slow);
    B.quo(RR, RA);
    U.checkSmallIntRange(RR, Slow);
    U.tag(RR);
    Sim.push_back(SimVal::inReg(RR));
    return;
  }
  case ArithOp::FloorDiv: {
    U.untag(RR);
    U.untag(RA);
    B.cmpI(RA, 0);
    B.jcc(MCond::Eq, Slow);
    VReg Quot = allocReg();
    // T1 dies before T2 is written inside floorDiv, so the transient
    // register serves both (keeps the parse-time pool within bounds).
    VReg T1 = tmpReg();
    VReg T2 = tmpReg();
    U.floorDiv(RR, RA, Quot, T1, T2);
    U.checkSmallIntRange(Quot, Slow);
    U.tag(Quot);
    Sim.push_back(SimVal::inReg(Quot));
    return;
  }
  case ArithOp::Mod: {
    U.untag(RR);
    U.untag(RA);
    B.cmpI(RA, 0);
    B.jcc(MCond::Eq, Slow);
    VReg Rem = allocReg();
    VReg T1 = tmpReg();
    U.floorMod(RR, RA, Rem, T1);
    U.tag(Rem);
    Sim.push_back(SimVal::inReg(Rem));
    return;
  }
  case ArithOp::Less:
    U.untag(RR);
    U.untag(RA);
    B.cmp(RR, RA);
    return PushBool(MCond::Lt);
  case ArithOp::Greater:
    U.untag(RR);
    U.untag(RA);
    B.cmp(RR, RA);
    return PushBool(MCond::Gt);
  case ArithOp::LessEq:
    U.untag(RR);
    U.untag(RA);
    B.cmp(RR, RA);
    return PushBool(MCond::Le);
  case ArithOp::GreaterEq:
    U.untag(RR);
    U.untag(RA);
    B.cmp(RR, RA);
    return PushBool(MCond::Ge);
  case ArithOp::Equal:
    U.untag(RR);
    U.untag(RA);
    B.cmp(RR, RA);
    return PushBool(MCond::Eq);
  case ArithOp::NotEqual:
    U.untag(RR);
    U.untag(RA);
    B.cmp(RR, RA);
    return PushBool(MCond::Ne);
  case ArithOp::BitAnd:
  case ArithOp::BitOr:
  case ArithOp::BitXor: {
    if (!CompileOpts.SeedBitOpsAcceptNegatives) {
      // Match the fixed interpreter's negative fallback.
      B.cmpI(RR, 0);
      B.jcc(MCond::Lt, Slow);
      B.cmpI(RA, 0);
      B.jcc(MCond::Lt, Slow);
    }
    // Seeded behaviour (paper §5.3): compiled code treats operands as
    // plain words and also handles negatives, unlike the interpreter.
    U.untag(RR);
    U.untag(RA);
    if (Op == ArithOp::BitAnd)
      B.andRR(RR, RA);
    else if (Op == ArithOp::BitOr)
      B.orRR(RR, RA);
    else
      B.xorRR(RR, RA);
    U.tag(RR);
    Sim.push_back(SimVal::inReg(RR));
    return;
  }
  case ArithOp::BitShift: {
    if (!CompileOpts.SeedBitOpsAcceptNegatives) {
      B.cmpI(RR, 0);
      B.jcc(MCond::Lt, Slow);
    }
    U.untag(RR);
    U.untag(RA);
    std::int32_t RShift = B.makeLabel();
    std::int32_t Done = B.makeLabel();
    B.cmpI(RA, 0);
    B.jcc(MCond::Lt, RShift);
    B.cmpI(RA, SmallIntBits);
    B.jcc(MCond::Gt, Slow);
    B.shl(RR, RA);
    B.jcc(MCond::Ov, Slow);
    U.checkSmallIntRange(RR, Slow);
    B.jmp(Done);
    B.placeLabel(RShift);
    {
      VReg T2 = allocReg();
      B.movRI(T2, 0);
      B.sub(T2, RA);
      B.sar(RR, T2);
    }
    B.placeLabel(Done);
    U.tag(RR);
    Sim.push_back(SimVal::inReg(RR));
    return;
  }
  }
  igdt_unreachable("unhandled arithmetic op");
}

void SimStackEmitter::genConditionalJump(bool OnTrue, std::int32_t Taken) {
  SimVal V = Sim.back();
  Sim.pop_back();
  VReg R = materialize(V);
  std::int32_t MustBeBool = B.makeLabel();
  B.cmpI(R, static_cast<std::int64_t>(OnTrue ? Mem.trueObject()
                                             : Mem.falseObject()));
  B.jcc(MCond::Eq, Taken);
  B.cmpI(R, static_cast<std::int64_t>(OnTrue ? Mem.falseObject()
                                             : Mem.trueObject()));
  B.jcc(MCond::Ne, MustBeBool);
  Deferred.push_back(DeferredBlock::mustBeBoolean(MustBeBool, R));
}

void SimStackEmitter::genOne(const CompiledMethod &Method,
                             const DecodedBytecode &D,
                             const PCLabelMap *PCLabels,
                             std::uint32_t NextPC) {
  switch (D.Op) {
  case Operation::PushLocal:
    Sim.push_back(SimVal::local(unsigned(D.A)));
    break;
  case Operation::PushLiteral:
    Sim.push_back(SimVal::constant(Method.Literals[D.A]));
    break;
  case Operation::PushInstVar: {
    VReg R = allocReg();
    B.load(R, FP, abi::ReceiverOffset);
    B.load(R, R, abi::BodyOffset + 8 * std::int64_t(D.A)); // unsafe
    Sim.push_back(SimVal::inReg(R));
    break;
  }
  case Operation::PushConstant: {
    static const int ConstInts[] = {0, 0, 0, 0, 1, 2, -1};
    Oop C = D.A == 0   ? Mem.nilObject()
            : D.A == 1 ? Mem.trueObject()
            : D.A == 2 ? Mem.falseObject()
                       : smallIntOop(ConstInts[D.A]);
    Sim.push_back(SimVal::constant(C));
    break;
  }
  case Operation::PushReceiver:
    Sim.push_back(SimVal::receiver());
    break;
  case Operation::StoreLocal: {
    SimVal V = Sim.back();
    Sim.pop_back();
    VReg R = materialize(V);
    B.store(R, FP, abi::localOffset(unsigned(D.A)));
    break;
  }
  case Operation::StoreInstVar: {
    SimVal V = Sim.back();
    Sim.pop_back();
    VReg RV = materialize(V);
    VReg RR = allocReg();
    B.load(RR, FP, abi::ReceiverOffset);
    B.store(RV, RR, abi::BodyOffset + 8 * std::int64_t(D.A)); // unsafe
    break;
  }
  case Operation::Pop:
    // The parse-time stack absorbs the pop (paper §4.2) unless the value
    // already lives in memory.
    if (Sim.back().Kind == SimVal::K::Mem)
      B.subI(SP, 8);
    Sim.pop_back();
    break;
  case Operation::Dup:
    if (Sim.back().Kind == SimVal::K::Mem) {
      VReg R = allocReg();
      B.load(R, SP, -8);
      Sim.push_back(SimVal::inReg(R));
    } else {
      Sim.push_back(Sim.back());
    }
    break;
  case Operation::Arithmetic:
    genArithmetic(static_cast<ArithOp>(D.A));
    break;
  case Operation::IdentityEquals: {
    SimVal VA = Sim.back();
    Sim.pop_back();
    SimVal VR = Sim.back();
    Sim.pop_back();
    VReg RA = materialize(VA); // top-first for memory operands
    VReg RR = materialize(VR);
    VReg RD = allocReg();
    B.cmp(RR, RA);
    U.boolResult(RD, MCond::Eq, Mem.trueObject(), Mem.falseObject());
    Sim.push_back(SimVal::inReg(RD));
    break;
  }
  case Operation::Jump: {
    if (PCLabels)
      flushAll(); // merge-point invariant
    B.jmp(takenLabel(B, Deferred, PCLabels,
                     static_cast<std::uint32_t>(NextPC + D.A)));
    break;
  }
  case Operation::JumpTrue:
  case Operation::JumpFalse: {
    SimVal Cond = Sim.back();
    if (PCLabels) {
      // Flush below the condition so both successors agree on memory.
      Sim.pop_back();
      flushAll();
      Sim.push_back(Cond);
    }
    genConditionalJump(D.Op == Operation::JumpTrue,
                       takenLabel(B, Deferred, PCLabels,
                                  static_cast<std::uint32_t>(NextPC + D.A)));
    break;
  }
  case Operation::Send: {
    // Flush the parse-time stack for the send trampoline.
    unsigned NumArgs = unsigned(D.B);
    std::size_t First = Sim.size() - NumArgs - 1;
    for (std::size_t I = First; I < Sim.size(); ++I)
      flushValue(Sim[I]);
    Sim.resize(First);
    Oop SelectorLit = Method.Literals[D.A];
    B.callTramp(static_cast<SelectorId>(smallIntValue(SelectorLit)),
                NumArgs);
    // In sequence mode execution never resumes past a send; the sim
    // stack state is irrelevant afterwards.
    break;
  }
  case Operation::ReturnTop: {
    SimVal V = Sim.back();
    Sim.pop_back();
    switch (V.Kind) {
    case SimVal::K::Const:
      B.movRI(R0, static_cast<std::int64_t>(V.C));
      break;
    case SimVal::K::Reg:
      B.movRR(R0, V.R);
      break;
    case SimVal::K::Local:
      B.load(R0, FP, abi::localOffset(V.Index));
      break;
    case SimVal::K::Rcvr:
      B.load(R0, FP, abi::ReceiverOffset);
      break;
    case SimVal::K::Mem:
      B.subI(SP, 8);
      B.load(R0, SP, 0);
      break;
    }
    B.ret();
    break;
  }
  case Operation::ReturnReceiver:
    B.load(R0, FP, abi::ReceiverOffset);
    B.ret();
    break;
  case Operation::ReturnConstant: {
    Oop C = D.A == 0   ? Mem.nilObject()
            : D.A == 1 ? Mem.trueObject()
                       : Mem.falseObject();
    B.movRI(R0, static_cast<std::int64_t>(C));
    B.ret();
    break;
  }
  }
}

CompiledCode SimStackEmitter::finish(bool Dynamic) {
  CompiledCode Out;
  Out.DynamicStack = Dynamic;
  if (Dynamic) {
    flushAll();
    B.brk(MarkerFragmentEnd);
  } else {
    B.brk(MarkerFragmentEnd);
    for (const SimVal &V : Sim) {
      switch (V.Kind) {
      case SimVal::K::Const:
        Out.FinalStack.push_back(ValueLoc::constant(V.C));
        break;
      case SimVal::K::Reg:
        Out.FinalStack.push_back(
            ValueLoc::inReg(static_cast<MReg>(V.R)));
        break;
      case SimVal::K::Local:
        Out.FinalStack.push_back(ValueLoc::local(V.Index));
        break;
      case SimVal::K::Rcvr:
        Out.FinalStack.push_back(ValueLoc::receiver());
        break;
      case SimVal::K::Mem:
        Out.FinalStack.push_back(ValueLoc::onStack());
        break;
      }
    }
  }
  emitDeferred();
  return Out;
}

CompiledCode SimStackEmitter::emit(const CompiledMethod &Method,
                                   const std::vector<Oop> &InputStack) {
  F.Code.reserve(IRReserveBase);
  // genPushLiteral: input values become parse-time constants — no code.
  Sim.reserve(InputStack.size() + 1);
  for (Oop V : InputStack)
    Sim.push_back(SimVal::constant(V));
  auto D = decodeBytecode(Method.Bytecodes, 0);
  genOne(Method, *D, /*PCLabels=*/nullptr, D->Length);
  return finish(/*Dynamic=*/false);
}

std::optional<CompiledCode>
SimStackEmitter::emitMethod(const CompiledMethod &Method,
                            const std::vector<Oop> &InputStack) {
  auto PCLabels = jumpTargetsOf(Method, F);
  if (!PCLabels)
    return std::nullopt;
  F.Code.reserve(IRReserveBase +
                 IRReservePerBytecode * Method.Bytecodes.size());
  Sim.reserve(InputStack.size() + Method.Bytecodes.size());
  for (Oop V : InputStack)
    Sim.push_back(SimVal::constant(V));
  std::uint32_t PC = 0;
  while (PC < Method.Bytecodes.size()) {
    if ((*PCLabels)[PC] != NoLabel) {
      flushAll(); // merge-point invariant
      B.placeLabel((*PCLabels)[PC]);
    }
    auto D = decodeBytecode(Method.Bytecodes, PC);
    if (!D)
      return std::nullopt;
    // A statically-underflowing instruction can still be compiled: the
    // missing operands would live on the in-memory stack below the
    // compiled window (and if they do not exist at run time, this arm is
    // dynamically unreachable for the given inputs).
    while (popsOf(*D) > Sim.size())
      Sim.insert(Sim.begin(), SimVal::inMemory());
    // Register pressure across the sequence: spill the parse-time stack
    // to memory when the pool runs low (the real Cogit's ssFlush).
    if (!Virtual && NextPool + 5 > unsigned(MReg::R8) + 1) {
      flushAll();
      NextPool = unsigned(MReg::R4);
    }
    genOne(Method, *D, &*PCLabels, PC + D->Length);
    PC += D->Length;
  }
  if ((*PCLabels)[PC] != NoLabel) {
    flushAll();
    B.placeLabel((*PCLabels)[PC]);
  }
  return finish(hasJumps(*PCLabels));
}

/// Lowers the emitted \p F into \p Out, through the linear-scan
/// allocator when \p Allocate is set; virtual registers in the final
/// stack layout are then remapped to their machine registers or spill
/// slots.
void lowerInto(CompiledCode &Out, IRFunction &F, const MachineDesc &Desc,
               bool Allocate) {
  Out.IRLength = static_cast<unsigned>(F.Code.size());
  if (!Allocate) {
    Out.Code = lowerIR(F, Desc);
    return;
  }
  AllocationResult Alloc = allocateRegistersLinearScan(F, Desc);
  Out.SpillCount = Alloc.SpillCount;
  Out.Code = lowerIR(F, Desc, Alloc.Assignment);
  for (ValueLoc &L : Out.FinalStack) {
    if (L.K != ValueLoc::Kind::Register)
      continue;
    auto V = static_cast<VReg>(L.Reg);
    if (V < FirstVirtualReg)
      continue;
    assert(V < Alloc.Assignment.size() && "value lost in allocation");
    if (Alloc.Assignment[V] != MReg::NoReg) {
      L.Reg = Alloc.Assignment[V];
    } else {
      assert(Alloc.Spilled[V] != AllocationResult::NotSpilled &&
             "value lost in allocation");
      L = ValueLoc::spill(Alloc.Spilled[V]);
    }
  }
}

} // namespace

std::optional<CompiledCode>
BytecodeCogit::compile(const CompiledMethod &Method,
                       const std::vector<Oop> &InputStack) {
  std::optional<CompiledCode> Out = compileImpl(Method, InputStack);
  if (Opts.Trace && Out) {
    TraceEvent E;
    E.Kind = TraceEventKind::Compile;
    E.Detail = compilerKindName(Kind);
    E.Aux = "bytecode";
    E.Value = Out->Code.size();
    Opts.Trace->emit(std::move(E));
  }
  return Out;
}

std::optional<CompiledCode>
BytecodeCogit::compileMethod(const CompiledMethod &Method,
                             const std::vector<Oop> &InputStack) {
  std::optional<CompiledCode> Out = compileMethodImpl(Method, InputStack);
  if (Opts.Trace && Out) {
    TraceEvent E;
    E.Kind = TraceEventKind::Compile;
    E.Detail = compilerKindName(Kind);
    E.Aux = "method";
    E.Value = Out->Code.size();
    Opts.Trace->emit(std::move(E));
  }
  return Out;
}

std::optional<CompiledCode>
BytecodeCogit::compileImpl(const CompiledMethod &Method,
                           const std::vector<Oop> &InputStack) {
  if (Opts.InjectFrontEndThrow)
    throw HarnessFault("compile",
                       "injected front-end crash while decoding bytecode");
  auto D = decodeBytecode(Method.Bytecodes, 0);
  if (!D)
    return std::nullopt;
  if (popsOf(*D) > InputStack.size())
    return std::nullopt; // invalid-frame paths are not replayed

  IRFunction F;
  CompiledCode Out;
  bool Allocate = Kind == CompilerKind::RegisterAllocating;
  if (Kind == CompilerKind::SimpleStack) {
    Out = SimpleEmitter(Mem, F).emit(Method, InputStack);
  } else {
    SimStackEmitter E(Mem, F, Allocate);
    E.CompileOpts = Opts;
    Out = E.emit(Method, InputStack);
  }
  lowerInto(Out, F, Desc, Allocate);
  return Out;
}

std::optional<CompiledCode>
BytecodeCogit::compileMethodImpl(const CompiledMethod &Method,
                                 const std::vector<Oop> &InputStack) {
  if (Opts.InjectFrontEndThrow)
    throw HarnessFault("compile",
                       "injected front-end crash while decoding bytecode");
  IRFunction F;
  std::optional<CompiledCode> Out;
  bool Allocate = Kind == CompilerKind::RegisterAllocating;
  if (Kind == CompilerKind::SimpleStack) {
    Out = SimpleEmitter(Mem, F).emitMethod(Method, InputStack);
  } else {
    SimStackEmitter E(Mem, F, Allocate);
    E.CompileOpts = Opts;
    Out = E.emitMethod(Method, InputStack);
  }
  if (!Out)
    return std::nullopt;
  lowerInto(*Out, F, Desc, Allocate);
  return Out;
}
