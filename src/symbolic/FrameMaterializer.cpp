//===- symbolic/FrameMaterializer.cpp - Model -> concrete frame --------------===//

#include "symbolic/FrameMaterializer.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstring>

using namespace igdt;

std::uint32_t FrameMaterializer::syntheticClassFor(std::int64_t SlotCount) {
  auto It = SyntheticClasses.find(SlotCount);
  if (It != SyntheticClasses.end())
    return It->second;
  std::uint32_t Idx = Mem.classTable().addClass(
      formatString("Object%lld", (long long)SlotCount), ObjectFormat::Pointers,
      static_cast<std::uint32_t>(SlotCount));
  SyntheticClasses.emplace(SlotCount, Idx);
  return Idx;
}

Oop FrameMaterializer::materializeVar(
    const Model &M, const ObjTerm *Var,
    std::map<const ObjTerm *, Oop> &Bindings) {
  const ObjTerm *Rep = M.repOf(Var);
  auto It = Bindings.find(Rep);
  if (It != Bindings.end())
    return It->second;

  ObjAssignment A = M.objectOrDefault(Rep);
  Oop Result = InvalidOop;
  switch (A.ClassIndex) {
  case SmallIntegerClass: {
    std::int64_t V = std::clamp(A.IntValue, MinSmallInt, MaxSmallInt);
    Result = smallIntOop(V);
    break;
  }
  case BoxedFloatClass:
    Result = Mem.allocateFloat(A.FloatValue);
    break;
  case UndefinedObjectClass:
    Result = Mem.nilObject();
    break;
  case TrueClass:
    Result = Mem.trueObject();
    break;
  case FalseClass:
    Result = Mem.falseObject();
    break;
  default: {
    const ClassInfo &Info = Mem.classTable().classAt(A.ClassIndex);
    std::int64_t Count = std::max<std::int64_t>(A.SlotCount, 0);
    switch (Info.Format) {
    case ObjectFormat::Pointers:
      if (A.ClassIndex == PlainObjectClass && Count > 0)
        Result = Mem.allocateInstance(syntheticClassFor(Count));
      else
        Result = Mem.allocateInstance(A.ClassIndex);
      break;
    case ObjectFormat::IndexablePointers:
    case ObjectFormat::IndexableBytes:
      Result = Mem.allocateInstance(A.ClassIndex,
                                    static_cast<std::uint32_t>(Count));
      break;
    case ObjectFormat::Float64:
      Result = Mem.allocateFloat(A.FloatValue);
      break;
    }
    break;
  }
  }

  Bindings.emplace(Rep, Result);
  if (Mem.isHeapObject(Result))
    fillObjectContents(M, Rep, Result, Bindings);
  return Result;
}

void FrameMaterializer::fillObjectContents(
    const Model &M, const ObjTerm *Rep, Oop Object,
    std::map<const ObjTerm *, Oop> &Bindings) {
  // Child slot variables: any model variable whose parent unifies to Rep.
  for (const auto &[Var, Assignment] : M.Objects) {
    (void)Assignment;
    if (Var->TermKind != ObjTerm::Kind::Var || Var->Role != VarRole::SlotOf)
      continue;
    if (M.repOf(Var->Parent) != Rep)
      continue;
    if (static_cast<std::uint32_t>(Var->Index) >= Mem.slotCountOf(Object))
      continue;
    Oop Child = materializeVar(M, Var, Bindings);
    Mem.storePointerSlot(Object, static_cast<std::uint32_t>(Var->Index),
                         Child);
  }
  // Solved byte contents (ByteAt / LoadLE leaves).
  for (const auto &[Leaf, Value] : M.IntLeaves) {
    if (!Leaf->Obj || M.repOf(Leaf->Obj) != Rep)
      continue;
    if (Leaf->TermKind == IntTerm::Kind::ByteAt) {
      Mem.storeByte(Object, static_cast<std::uint32_t>(Leaf->Aux),
                    static_cast<std::uint8_t>(Value));
    } else if (Leaf->TermKind == IntTerm::Kind::LoadLE) {
      auto Raw = static_cast<std::uint64_t>(Value);
      for (unsigned I = 0; I < Leaf->Width; ++I)
        Mem.storeByte(Object, static_cast<std::uint32_t>(Leaf->Aux) + I,
                      static_cast<std::uint8_t>(Raw >> (8 * I)));
    }
  }
  for (const auto &[Leaf, Value] : M.FloatLeaves) {
    if (Leaf->TermKind != FloatTerm::Kind::LoadF64 || !Leaf->Obj ||
        M.repOf(Leaf->Obj) != Rep)
      continue;
    std::uint64_t Raw;
    static_assert(sizeof(Raw) == sizeof(Value));
    std::memcpy(&Raw, &Value, 8);
    for (unsigned I = 0; I < 8; ++I)
      Mem.storeByte(Object, static_cast<std::uint32_t>(Leaf->Aux) + I,
                    static_cast<std::uint8_t>(Raw >> (8 * I)));
  }
}

MaterializedFrame FrameMaterializer::materialize(const Model &M,
                                                 const CompiledMethod &Method) {
  // A corrupted heap must be caught before any frame is built on it.
  Mem.checkIntegrity();
  MaterializedFrame Out;
  Out.Concolic.Method = &Method;
  Out.Concrete.Method = &Method;

  const ObjTerm *RcvrVar = B.objVar(VarRole::Receiver, 0);
  Oop Receiver = materializeVar(M, RcvrVar, Out.Bindings);
  Out.Concolic.Receiver = {Receiver, RcvrVar};
  Out.Concrete.Receiver = Receiver;

  Out.Concolic.Locals.reserve(Method.numLocals());
  Out.Concrete.Locals.reserve(Method.numLocals());
  for (std::uint32_t I = 0; I < Method.numLocals(); ++I) {
    const ObjTerm *Var = B.objVar(VarRole::Local, static_cast<std::int32_t>(I));
    Oop V = materializeVar(M, Var, Out.Bindings);
    Out.Concolic.Locals.push_back({V, Var});
    Out.Concrete.Locals.push_back(V);
  }

  Out.StackDepth = std::max<std::int64_t>(M.intLeafOrDefault(B.stackSize()), 0);
  Out.Concolic.Stack.reserve(static_cast<std::size_t>(Out.StackDepth));
  Out.Concrete.Stack.reserve(static_cast<std::size_t>(Out.StackDepth));
  for (std::int64_t I = 0; I < Out.StackDepth; ++I) {
    // Slot variables are indexed by distance from the TOP of the input
    // stack (paper Fig. 2: s1, s2 ... from the top): when a negated
    // depth constraint grows the stack, the value an instruction reads
    // keeps its variable and only deeper slots get fresh ones.
    const ObjTerm *Var = B.objVar(
        VarRole::StackSlot, static_cast<std::int32_t>(Out.StackDepth - 1 - I));
    Oop V = materializeVar(M, Var, Out.Bindings);
    Out.Concolic.Stack.push_back({V, Var});
    Out.Concrete.Stack.push_back(V);
  }
  return Out;
}
