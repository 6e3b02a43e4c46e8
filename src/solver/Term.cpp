//===- solver/Term.cpp - Hash-consing term factory -------------------------===//

#include "solver/Term.h"

#include "support/StringUtils.h"

using namespace igdt;

namespace {

// The mixing scheme below must stay bit-identical to the recursive
// full-tree walk earlier releases performed: SharedUnsatIndex keys and
// the case RNG seed material are derived from these values, and the
// determinism contract keeps them stable across releases.

std::uint64_t mix(std::uint64_t Seed, std::uint64_t Value) {
  return hashCombine64(Seed, Value);
}

std::uint64_t hashOf(const ObjTerm *T) { return T ? T->Hash : NullTermHash; }
std::uint64_t hashOf(const IntTerm *T) { return T ? T->Hash : NullTermHash; }
std::uint64_t hashOf(const FloatTerm *T) { return T ? T->Hash : NullTermHash; }
std::uint64_t hashOf(const BoolTerm *T) { return T ? T->Hash : NullTermHash; }

std::uint64_t computeHash(const ObjTerm &T) {
  std::uint64_t H = mix(0x0B57ull, std::uint64_t(T.TermKind));
  switch (T.TermKind) {
  case ObjTerm::Kind::Var:
    H = mix(H, std::uint64_t(T.Role));
    H = mix(H, std::uint64_t(std::uint32_t(T.Index)));
    H = mix(H, hashOf(T.Parent));
    break;
  case ObjTerm::Kind::Const:
    H = mix(H, T.ConstValue);
    break;
  case ObjTerm::Kind::IntObj:
    H = mix(H, hashOf(T.IntPayload));
    break;
  case ObjTerm::Kind::FloatObj:
    H = mix(H, hashOf(T.FloatPayload));
    break;
  case ObjTerm::Kind::NewObj:
    H = mix(H, T.AllocId);
    H = mix(H, T.AllocClass);
    H = mix(H, hashOf(T.AllocSize));
    H = mix(H, hashOf(T.CopyOf));
    break;
  }
  return H;
}

std::uint64_t computeHash(const IntTerm &T) {
  std::uint64_t H = mix(0x117ull, std::uint64_t(T.TermKind));
  H = mix(H, std::uint64_t(T.ConstValue));
  H = mix(H, std::uint64_t(T.Aux));
  H = mix(H, std::uint64_t(T.Width) * 2 + (T.SignExtend ? 1 : 0));
  if (T.Obj)
    H = mix(H, hashOf(T.Obj));
  if (T.Lhs)
    H = mix(H, hashOf(T.Lhs));
  if (T.Rhs)
    H = mix(H, hashOf(T.Rhs));
  if (T.FloatOperand)
    H = mix(H, hashOf(T.FloatOperand));
  return H;
}

std::uint64_t computeHash(const FloatTerm &T) {
  std::uint64_t H = mix(0xF107ull, std::uint64_t(T.TermKind));
  std::uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(T.ConstValue));
  __builtin_memcpy(&Bits, &T.ConstValue, sizeof(Bits));
  H = mix(H, Bits);
  H = mix(H, std::uint64_t(T.Aux));
  if (T.Obj)
    H = mix(H, hashOf(T.Obj));
  if (T.Lhs)
    H = mix(H, hashOf(T.Lhs));
  if (T.Rhs)
    H = mix(H, hashOf(T.Rhs));
  if (T.IntOperand)
    H = mix(H, hashOf(T.IntOperand));
  return H;
}

std::uint64_t computeHash(const BoolTerm &T) {
  std::uint64_t H = mix(0xB001ull, std::uint64_t(T.TermKind));
  H = mix(H, T.ConstValue ? 1 : 0);
  H = mix(H, std::uint64_t(T.Pred));
  H = mix(H, T.ClassIndex);
  H = mix(H, T.FormatMask);
  if (T.BLhs)
    H = mix(H, hashOf(T.BLhs));
  if (T.BRhs)
    H = mix(H, hashOf(T.BRhs));
  if (T.ILhs)
    H = mix(H, hashOf(T.ILhs));
  if (T.IRhs)
    H = mix(H, hashOf(T.IRhs));
  if (T.FLhs)
    H = mix(H, hashOf(T.FLhs));
  if (T.FRhs)
    H = mix(H, hashOf(T.FRhs));
  if (T.Obj)
    H = mix(H, hashOf(T.Obj));
  if (T.ObjRhs)
    H = mix(H, hashOf(T.ObjRhs));
  return H;
}

// Structural equality under the interning invariant: children are
// already interned, so child comparison is pointer comparison. Fields
// a kind does not use keep their defaults (only the builder populates
// nodes), so comparing the full field set is exact.

bool structurallyEqual(const ObjTerm &A, const ObjTerm &B) {
  return A.TermKind == B.TermKind && A.Role == B.Role && A.Index == B.Index &&
         A.Parent == B.Parent && A.ConstValue == B.ConstValue &&
         A.IntPayload == B.IntPayload && A.FloatPayload == B.FloatPayload &&
         A.AllocId == B.AllocId && A.AllocClass == B.AllocClass &&
         A.AllocSize == B.AllocSize && A.CopyOf == B.CopyOf;
}

bool structurallyEqual(const IntTerm &A, const IntTerm &B) {
  return A.TermKind == B.TermKind && A.ConstValue == B.ConstValue &&
         A.Obj == B.Obj && A.Aux == B.Aux && A.Width == B.Width &&
         A.SignExtend == B.SignExtend && A.Lhs == B.Lhs && A.Rhs == B.Rhs &&
         A.FloatOperand == B.FloatOperand;
}

bool bitsEqual(double A, double B) {
  std::uint64_t BA, BB;
  __builtin_memcpy(&BA, &A, sizeof(BA));
  __builtin_memcpy(&BB, &B, sizeof(BB));
  return BA == BB;
}

bool structurallyEqual(const FloatTerm &A, const FloatTerm &B) {
  // Const floats never reach the hash-bucket tables (floatConst keeps
  // its std::map<double> cache and its equivalence semantics), so a
  // bit-compare here is only ever comparing the 0.0 defaults.
  return A.TermKind == B.TermKind && bitsEqual(A.ConstValue, B.ConstValue) &&
         A.Obj == B.Obj && A.Aux == B.Aux && A.Lhs == B.Lhs && A.Rhs == B.Rhs &&
         A.IntOperand == B.IntOperand;
}

bool structurallyEqual(const BoolTerm &A, const BoolTerm &B) {
  return A.TermKind == B.TermKind && A.ConstValue == B.ConstValue &&
         A.Pred == B.Pred && A.BLhs == B.BLhs && A.BRhs == B.BRhs &&
         A.ILhs == B.ILhs && A.IRhs == B.IRhs && A.FLhs == B.FLhs &&
         A.FRhs == B.FRhs && A.Obj == B.Obj && A.ObjRhs == B.ObjRhs &&
         A.ClassIndex == B.ClassIndex && A.FormatMask == B.FormatMask;
}

template <typename T, typename Table>
const T *internInto(Table &Buckets, Arena &Mem, std::size_t &InternedNodes,
                    T Proto) {
  Proto.Hash = computeHash(Proto);
  auto &Bucket = Buckets[Proto.Hash];
  for (const T *Existing : Bucket)
    if (structurallyEqual(*Existing, Proto))
      return Existing;
  T *Node = Mem.create<T>(Proto);
  Bucket.push_back(Node);
  ++InternedNodes;
  return Node;
}

} // namespace

const ObjTerm *TermBuilder::internObj(ObjTerm Proto) {
  return internInto(ObjIntern, Mem, InternedNodes, Proto);
}
const IntTerm *TermBuilder::internInt(IntTerm Proto) {
  return internInto(IntIntern, Mem, InternedNodes, Proto);
}
const FloatTerm *TermBuilder::internFloat(FloatTerm Proto) {
  return internInto(FloatIntern, Mem, InternedNodes, Proto);
}
const BoolTerm *TermBuilder::internBool(BoolTerm Proto) {
  return internInto(BoolIntern, Mem, InternedNodes, Proto);
}

// Variables, constants and memory leaves keep their original
// field-keyed caches: their equivalence relations (e.g. std::map's
// ordering-equivalence over double keys for float constants) predate
// the generic intern tables and are part of the reproducibility
// contract. Each cache miss stamps the node's hash before publication.

const ObjTerm *TermBuilder::objVar(VarRole Role, std::int32_t Index,
                                   const ObjTerm *Parent) {
  auto Key = std::make_tuple(Role, Index, Parent);
  auto It = VarCache.find(Key);
  if (It != VarCache.end())
    return It->second;
  auto *T = Mem.create<ObjTerm>();
  T->TermKind = ObjTerm::Kind::Var;
  T->Role = Role;
  T->Index = Index;
  T->Parent = Parent;
  T->Hash = computeHash(*T);
  ++InternedNodes;
  VarCache.emplace(Key, T);
  return T;
}

const ObjTerm *TermBuilder::objConst(Oop Value) {
  auto It = ConstCache.find(Value);
  if (It != ConstCache.end())
    return It->second;
  auto *T = Mem.create<ObjTerm>();
  T->TermKind = ObjTerm::Kind::Const;
  T->ConstValue = Value;
  T->Hash = computeHash(*T);
  ++InternedNodes;
  ConstCache.emplace(Value, T);
  return T;
}

const ObjTerm *TermBuilder::intObj(const IntTerm *Payload) {
  ObjTerm Proto;
  Proto.TermKind = ObjTerm::Kind::IntObj;
  Proto.IntPayload = Payload;
  return internObj(Proto);
}

const ObjTerm *TermBuilder::floatObj(const FloatTerm *Payload) {
  ObjTerm Proto;
  Proto.TermKind = ObjTerm::Kind::FloatObj;
  Proto.FloatPayload = Payload;
  return internObj(Proto);
}

const ObjTerm *TermBuilder::newObj(std::uint32_t AllocId,
                                   std::uint32_t ClassIndex,
                                   const IntTerm *Size,
                                   const ObjTerm *CopyOf) {
  ObjTerm Proto;
  Proto.TermKind = ObjTerm::Kind::NewObj;
  Proto.AllocId = AllocId;
  Proto.AllocClass = ClassIndex;
  Proto.AllocSize = Size;
  Proto.CopyOf = CopyOf;
  return internObj(Proto);
}

const IntTerm *TermBuilder::intConst(std::int64_t Value) {
  auto It = IntConstCache.find(Value);
  if (It != IntConstCache.end())
    return It->second;
  auto *T = Mem.create<IntTerm>();
  T->TermKind = IntTerm::Kind::Const;
  T->ConstValue = Value;
  T->Hash = computeHash(*T);
  ++InternedNodes;
  IntConstCache.emplace(Value, T);
  return T;
}

const IntTerm *TermBuilder::valueOf(const ObjTerm *Var) {
  auto Key = std::make_pair(IntTerm::Kind::ValueOf, Var);
  auto It = IntLeafCache.find(Key);
  if (It != IntLeafCache.end())
    return It->second;
  const IntTerm *T = internInt([&] {
    IntTerm Proto;
    Proto.TermKind = IntTerm::Kind::ValueOf;
    Proto.Obj = Var;
    return Proto;
  }());
  IntLeafCache.emplace(Key, T);
  return T;
}

const IntTerm *TermBuilder::uncheckedValueOf(const ObjTerm *Var) {
  auto Key = std::make_pair(IntTerm::Kind::UncheckedValueOf, Var);
  auto It = IntLeafCache.find(Key);
  if (It != IntLeafCache.end())
    return It->second;
  const IntTerm *T = internInt([&] {
    IntTerm Proto;
    Proto.TermKind = IntTerm::Kind::UncheckedValueOf;
    Proto.Obj = Var;
    return Proto;
  }());
  IntLeafCache.emplace(Key, T);
  return T;
}

const IntTerm *TermBuilder::slotCount(const ObjTerm *Var) {
  auto Key = std::make_pair(IntTerm::Kind::SlotCount, Var);
  auto It = IntLeafCache.find(Key);
  if (It != IntLeafCache.end())
    return It->second;
  const IntTerm *T = internInt([&] {
    IntTerm Proto;
    Proto.TermKind = IntTerm::Kind::SlotCount;
    Proto.Obj = Var;
    return Proto;
  }());
  IntLeafCache.emplace(Key, T);
  return T;
}

const IntTerm *TermBuilder::stackSize() {
  if (!StackSizeTerm) {
    IntTerm Proto;
    Proto.TermKind = IntTerm::Kind::StackSize;
    StackSizeTerm = internInt(Proto);
  }
  return StackSizeTerm;
}

const IntTerm *TermBuilder::byteAt(const ObjTerm *Var, std::int64_t Index) {
  auto Key = std::make_tuple(Var, Index, -1);
  auto It = ByteCache.find(Key);
  if (It != ByteCache.end())
    return It->second;
  IntTerm Proto;
  Proto.TermKind = IntTerm::Kind::ByteAt;
  Proto.Obj = Var;
  Proto.Aux = Index;
  const IntTerm *T = internInt(Proto);
  ByteCache.emplace(Key, T);
  return T;
}

const IntTerm *TermBuilder::loadLE(const ObjTerm *Var, std::int64_t Offset,
                                   std::uint8_t Width, bool SignExtend) {
  auto Key = std::make_tuple(Var, Offset, int(Width) * 2 + (SignExtend ? 1 : 0));
  auto It = ByteCache.find(Key);
  if (It != ByteCache.end())
    return It->second;
  IntTerm Proto;
  Proto.TermKind = IntTerm::Kind::LoadLE;
  Proto.Obj = Var;
  Proto.Aux = Offset;
  Proto.Width = Width;
  Proto.SignExtend = SignExtend;
  const IntTerm *T = internInt(Proto);
  ByteCache.emplace(Key, T);
  return T;
}

const IntTerm *TermBuilder::classIndexOf(const ObjTerm *Var) {
  auto Key = std::make_pair(IntTerm::Kind::ClassIndexOf, Var);
  auto It = IntLeafCache.find(Key);
  if (It != IntLeafCache.end())
    return It->second;
  const IntTerm *T = internInt([&] {
    IntTerm Proto;
    Proto.TermKind = IntTerm::Kind::ClassIndexOf;
    Proto.Obj = Var;
    return Proto;
  }());
  IntLeafCache.emplace(Key, T);
  return T;
}

const IntTerm *TermBuilder::identityHash(const ObjTerm *Var) {
  auto Key = std::make_pair(IntTerm::Kind::IdentityHash, Var);
  auto It = IntLeafCache.find(Key);
  if (It != IntLeafCache.end())
    return It->second;
  const IntTerm *T = internInt([&] {
    IntTerm Proto;
    Proto.TermKind = IntTerm::Kind::IdentityHash;
    Proto.Obj = Var;
    return Proto;
  }());
  IntLeafCache.emplace(Key, T);
  return T;
}

const IntTerm *TermBuilder::binInt(IntTerm::Kind Op, const IntTerm *L,
                                   const IntTerm *R) {
  IntTerm Proto;
  Proto.TermKind = Op;
  Proto.Lhs = L;
  Proto.Rhs = R;
  return internInt(Proto);
}

const IntTerm *TermBuilder::negInt(const IntTerm *Operand) {
  IntTerm Proto;
  Proto.TermKind = IntTerm::Kind::Neg;
  Proto.Lhs = Operand;
  return internInt(Proto);
}

const IntTerm *TermBuilder::highBit(const IntTerm *Operand) {
  IntTerm Proto;
  Proto.TermKind = IntTerm::Kind::HighBit;
  Proto.Lhs = Operand;
  return internInt(Proto);
}

const IntTerm *TermBuilder::truncF(const FloatTerm *Operand) {
  IntTerm Proto;
  Proto.TermKind = IntTerm::Kind::TruncF;
  Proto.FloatOperand = Operand;
  return internInt(Proto);
}

const FloatTerm *TermBuilder::floatConst(double Value) {
  auto It = FloatConstCache.find(Value);
  if (It != FloatConstCache.end())
    return It->second;
  auto *T = Mem.create<FloatTerm>();
  T->TermKind = FloatTerm::Kind::Const;
  T->ConstValue = Value;
  T->Hash = computeHash(*T);
  ++InternedNodes;
  FloatConstCache.emplace(Value, T);
  return T;
}

const FloatTerm *TermBuilder::floatValueOf(const ObjTerm *Var) {
  auto Key = std::make_pair(0, Var);
  auto It = FloatLeafCache.find(Key);
  if (It != FloatLeafCache.end())
    return It->second;
  FloatTerm Proto;
  Proto.TermKind = FloatTerm::Kind::ValueOf;
  Proto.Obj = Var;
  const FloatTerm *T = internFloat(Proto);
  FloatLeafCache.emplace(Key, T);
  return T;
}

const FloatTerm *TermBuilder::uncheckedFloatValueOf(const ObjTerm *Var) {
  auto Key = std::make_pair(1, Var);
  auto It = FloatLeafCache.find(Key);
  if (It != FloatLeafCache.end())
    return It->second;
  FloatTerm Proto;
  Proto.TermKind = FloatTerm::Kind::UncheckedValueOf;
  Proto.Obj = Var;
  const FloatTerm *T = internFloat(Proto);
  FloatLeafCache.emplace(Key, T);
  return T;
}

const FloatTerm *TermBuilder::loadF64(const ObjTerm *Var,
                                      std::int64_t Offset) {
  FloatTerm Proto;
  Proto.TermKind = FloatTerm::Kind::LoadF64;
  Proto.Obj = Var;
  Proto.Aux = Offset;
  return internFloat(Proto);
}

const FloatTerm *TermBuilder::loadF32(const ObjTerm *Var,
                                      std::int64_t Offset) {
  FloatTerm Proto;
  Proto.TermKind = FloatTerm::Kind::LoadF32;
  Proto.Obj = Var;
  Proto.Aux = Offset;
  return internFloat(Proto);
}

const FloatTerm *TermBuilder::ofInt(const IntTerm *Operand) {
  FloatTerm Proto;
  Proto.TermKind = FloatTerm::Kind::OfInt;
  Proto.IntOperand = Operand;
  return internFloat(Proto);
}

const FloatTerm *TermBuilder::binFloat(FloatTerm::Kind Op, const FloatTerm *L,
                                       const FloatTerm *R) {
  FloatTerm Proto;
  Proto.TermKind = Op;
  Proto.Lhs = L;
  Proto.Rhs = R;
  return internFloat(Proto);
}

const FloatTerm *TermBuilder::unFloat(FloatTerm::Kind Op,
                                      const FloatTerm *Operand) {
  FloatTerm Proto;
  Proto.TermKind = Op;
  Proto.Lhs = Operand;
  return internFloat(Proto);
}

const BoolTerm *TermBuilder::boolConst(bool Value) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::Const;
  Proto.ConstValue = Value;
  return internBool(Proto);
}

const BoolTerm *TermBuilder::notB(const BoolTerm *Operand) {
  // Collapse double negation for readable path conditions.
  if (Operand->TermKind == BoolTerm::Kind::Not)
    return Operand->BLhs;
  // Consed so repeated negations of the same branch condition (every
  // generational re-negation of a prefix) share one node — pointer
  // identity then implies structural identity for the shared index's
  // hashing.
  auto It = NotCache.find(Operand);
  if (It != NotCache.end())
    return It->second;
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::Not;
  Proto.BLhs = Operand;
  const BoolTerm *T = internBool(Proto);
  NotCache.emplace(Operand, T);
  return T;
}

const BoolTerm *TermBuilder::andB(const BoolTerm *L, const BoolTerm *R) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::And;
  Proto.BLhs = L;
  Proto.BRhs = R;
  return internBool(Proto);
}

const BoolTerm *TermBuilder::orB(const BoolTerm *L, const BoolTerm *R) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::Or;
  Proto.BLhs = L;
  Proto.BRhs = R;
  return internBool(Proto);
}

const BoolTerm *TermBuilder::icmp(CmpPred Pred, const IntTerm *L,
                                  const IntTerm *R) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::ICmp;
  Proto.Pred = Pred;
  Proto.ILhs = L;
  Proto.IRhs = R;
  return internBool(Proto);
}

const BoolTerm *TermBuilder::fcmp(CmpPred Pred, const FloatTerm *L,
                                  const FloatTerm *R) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::FCmp;
  Proto.Pred = Pred;
  Proto.FLhs = L;
  Proto.FRhs = R;
  return internBool(Proto);
}

const BoolTerm *TermBuilder::isClass(const ObjTerm *Var,
                                     std::uint32_t ClassIndex) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::IsClass;
  Proto.Obj = Var;
  Proto.ClassIndex = ClassIndex;
  return internBool(Proto);
}

const BoolTerm *TermBuilder::hasFormat(const ObjTerm *Var,
                                       std::uint8_t FormatMask) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::HasFormat;
  Proto.Obj = Var;
  Proto.FormatMask = FormatMask;
  return internBool(Proto);
}

const BoolTerm *TermBuilder::objEq(const ObjTerm *L, const ObjTerm *R) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::ObjEq;
  Proto.Obj = L;
  Proto.ObjRhs = R;
  return internBool(Proto);
}

const BoolTerm *TermBuilder::intFormatIs(const IntTerm *ClassIdx,
                                         std::uint8_t FormatMask) {
  BoolTerm Proto;
  Proto.TermKind = BoolTerm::Kind::IntFormatIs;
  Proto.ILhs = ClassIdx;
  Proto.FormatMask = FormatMask;
  return internBool(Proto);
}
