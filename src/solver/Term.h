//===- solver/Term.h - Symbolic terms over VM semantics --------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint vocabulary of the concolic execution model. Terms are
/// deliberately *semantic* (paper §3.3): a value is "a SmallInteger" or
/// "an instance of class k with n slots" — never "a word whose low bit is
/// set" — so condition negation stays meaningful and the solver needs no
/// bit-level pointer reasoning.
///
/// Terms come in four sorts:
///  - Obj terms denote VM values (variables of the abstract frame,
///    constants, boxed results, fresh allocations);
///  - Int terms denote untagged integers (SmallInteger payloads, slot
///    counts, the operand stack size);
///  - Float terms denote untagged IEEE doubles;
///  - Bool terms denote path conditions.
///
/// All terms are immutable, arena-allocated and hash-consed by
/// TermBuilder, so pointer equality is term identity for *every* node,
/// not just leaves: two structurally equal terms built through the same
/// builder are the same pointer. Each node also carries its structural
/// hash, precomputed at intern time with the full-tree mixing scheme of
/// earlier releases — solver cache keys are O(1) field reads, and hashes
/// agree across arenas.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SOLVER_TERM_H
#define IGDT_SOLVER_TERM_H

#include "support/Arena.h"
#include "vm/ObjectFormat.h"
#include "vm/Oop.h"

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace igdt {

struct IntTerm;
struct FloatTerm;
struct BoolTerm;

/// Structural identity of an input variable in the abstract frame
/// (paper Figure 3: receiver, operand stack slots, locals, object slots).
enum class VarRole : std::uint8_t {
  Receiver,
  StackSlot, // Index counts from the *bottom* of the operand stack
  Local,
  SlotOf, // slot Index of Parent
};

/// Neutral hash of an absent child term; also the seed constant of
/// hashCombine64. Kept identical to the value the old recursive
/// full-tree walk produced for null children, so precomputed hashes equal
/// its hashes bit for bit (cache keys and RNG seed material derived from
/// them are unchanged).
constexpr std::uint64_t NullTermHash = 0x9E3779B97F4A7C15ull;

/// Object-sort term.
struct ObjTerm {
  enum class Kind : std::uint8_t {
    Var,      // abstract input value
    Const,    // concrete Oop known at exploration time
    IntObj,   // SmallInteger box of IntPayload
    FloatObj, // BoxedFloat box of FloatPayload
    NewObj,   // object allocated while executing the instruction
  };

  Kind TermKind;
  // Var
  VarRole Role = VarRole::Receiver;
  std::int32_t Index = 0;
  const ObjTerm *Parent = nullptr;
  // Const
  Oop ConstValue = InvalidOop;
  // IntObj / FloatObj
  const IntTerm *IntPayload = nullptr;
  const FloatTerm *FloatPayload = nullptr;
  // NewObj
  std::uint32_t AllocId = 0;
  std::uint32_t AllocClass = 0;
  const IntTerm *AllocSize = nullptr;
  const ObjTerm *CopyOf = nullptr; // shallowCopy source, else nullptr
  /// Structural hash, precomputed at intern time.
  std::uint64_t Hash = 0;

  bool isVar() const { return TermKind == Kind::Var; }
};

/// Integer-sort term.
struct IntTerm {
  enum class Kind : std::uint8_t {
    Const,
    ValueOf,          // SmallInteger payload of an Obj var
    UncheckedValueOf, // blind untag of an Obj var (missing-check paths)
    SlotCount,        // slot/byte count of an Obj var
    StackSize,        // operand stack depth of the input frame
    ByteAt,           // byte Index of an Obj var (pinned index)
    LoadLE,           // little-endian multi-byte load (pinned offset)
    ClassIndexOf,     // class-table index of an Obj var
    IdentityHash,     // identity hash of an Obj var
    // unary / binary operators
    Add,
    Sub,
    Mul,
    Quo,      // truncated division
    DivFloor, // floored division
    ModFloor, // floored modulo
    Neg,
    BitAnd,
    BitOr,
    BitXor,
    Shl, // saturating left shift
    Asr, // arithmetic right shift
    HighBit,
    TruncF, // double -> integer truncation of a Float term
  };

  Kind TermKind;
  std::int64_t ConstValue = 0;
  const ObjTerm *Obj = nullptr; // leaf terms referencing a variable
  std::int64_t Aux = 0;         // ByteAt index / LoadLE offset
  std::uint8_t Width = 0;       // LoadLE width in bytes
  bool SignExtend = false;      // LoadLE signedness
  const IntTerm *Lhs = nullptr;
  const IntTerm *Rhs = nullptr;
  const FloatTerm *FloatOperand = nullptr; // TruncF
  /// Structural hash, precomputed at intern time.
  std::uint64_t Hash = 0;

  bool isLeaf() const {
    switch (TermKind) {
    case Kind::ValueOf:
    case Kind::UncheckedValueOf:
    case Kind::SlotCount:
    case Kind::StackSize:
    case Kind::ByteAt:
    case Kind::LoadLE:
    case Kind::ClassIndexOf:
    case Kind::IdentityHash:
      return true;
    default:
      return false;
    }
  }
};

/// Float-sort term.
struct FloatTerm {
  enum class Kind : std::uint8_t {
    Const,
    ValueOf,          // payload of a BoxedFloat Obj var
    UncheckedValueOf, // blind unbox (missing-check paths)
    LoadF64,          // FFI double load (pinned offset)
    LoadF32,          // FFI single-precision load, widened (pinned offset)
    OfInt,            // integer -> double conversion
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Ln,
    ArcTan,
    Frac, // x - trunc(x)
  };

  Kind TermKind;
  double ConstValue = 0;
  const ObjTerm *Obj = nullptr;
  std::int64_t Aux = 0; // LoadF64 offset
  const FloatTerm *Lhs = nullptr;
  const FloatTerm *Rhs = nullptr;
  const IntTerm *IntOperand = nullptr; // OfInt
  /// Structural hash, precomputed at intern time.
  std::uint64_t Hash = 0;

  bool isLeaf() const {
    return TermKind == Kind::ValueOf || TermKind == Kind::UncheckedValueOf ||
           TermKind == Kind::LoadF64 || TermKind == Kind::LoadF32;
  }
};

/// Integer / float comparison predicates (others are built from these).
enum class CmpPred : std::uint8_t { Lt, Le, Eq };

/// Boolean-sort term (path-condition node).
struct BoolTerm {
  enum class Kind : std::uint8_t {
    Const,
    Not,
    And,
    Or,
    ICmp,        // CmpPred over two Int terms
    FCmp,        // CmpPred over two Float terms
    IsClass,     // Obj var's class-table index equals ClassIndex
    HasFormat,   // Obj var's class format is within FormatMask
    ObjEq,       // identity of two Obj terms
    IntFormatIs, // class table entry denoted by an Int term has FormatMask
  };

  Kind TermKind;
  bool ConstValue = false;
  CmpPred Pred = CmpPred::Lt;
  const BoolTerm *BLhs = nullptr;
  const BoolTerm *BRhs = nullptr;
  const IntTerm *ILhs = nullptr;
  const IntTerm *IRhs = nullptr;
  const FloatTerm *FLhs = nullptr;
  const FloatTerm *FRhs = nullptr;
  const ObjTerm *Obj = nullptr;
  const ObjTerm *ObjRhs = nullptr;
  std::uint32_t ClassIndex = 0;
  std::uint8_t FormatMask = 0; // bit per ObjectFormat value
  /// Structural hash, precomputed at intern time.
  std::uint64_t Hash = 0;
};

/// Bit for \p Format within BoolTerm::FormatMask.
inline std::uint8_t formatBit(ObjectFormat Format) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(Format));
}

/// Arena-backed factory that hash-conses *every* term, so structural
/// identity is pointer identity across the whole vocabulary and each
/// node carries its precomputed structural hash.
///
/// Arena ownership is unchanged: the builder owns the arena, terms die
/// with the builder, and nothing interned here may outlive the
/// exploration that built it. Interning happens through two kinds of
/// table. Leaves and variables keep their original field-keyed caches
/// (their equivalence semantics — e.g. std::map<double> folding of
/// float constants — predate this layer and are load-bearing for
/// reproducibility). Interior nodes go through per-sort hash-bucket
/// tables: the candidate's hash selects a bucket and a full structural
/// field compare picks the existing node, where child comparison is by
/// pointer because children are already interned.
class TermBuilder {
public:
  TermBuilder() = default;
  TermBuilder(const TermBuilder &) = delete;
  TermBuilder &operator=(const TermBuilder &) = delete;

  /// \name Obj terms
  /// @{
  const ObjTerm *objVar(VarRole Role, std::int32_t Index,
                        const ObjTerm *Parent = nullptr);
  const ObjTerm *objConst(Oop Value);
  const ObjTerm *intObj(const IntTerm *Payload);
  const ObjTerm *floatObj(const FloatTerm *Payload);
  const ObjTerm *newObj(std::uint32_t AllocId, std::uint32_t ClassIndex,
                        const IntTerm *Size, const ObjTerm *CopyOf = nullptr);
  /// @}

  /// \name Int terms
  /// @{
  const IntTerm *intConst(std::int64_t Value);
  const IntTerm *valueOf(const ObjTerm *Var);
  const IntTerm *uncheckedValueOf(const ObjTerm *Var);
  const IntTerm *slotCount(const ObjTerm *Var);
  const IntTerm *stackSize();
  const IntTerm *byteAt(const ObjTerm *Var, std::int64_t Index);
  const IntTerm *loadLE(const ObjTerm *Var, std::int64_t Offset,
                        std::uint8_t Width, bool SignExtend);
  const IntTerm *classIndexOf(const ObjTerm *Var);
  const IntTerm *identityHash(const ObjTerm *Var);
  const IntTerm *binInt(IntTerm::Kind Op, const IntTerm *L, const IntTerm *R);
  const IntTerm *negInt(const IntTerm *Operand);
  const IntTerm *highBit(const IntTerm *Operand);
  const IntTerm *truncF(const FloatTerm *Operand);
  /// @}

  /// \name Float terms
  /// @{
  const FloatTerm *floatConst(double Value);
  const FloatTerm *floatValueOf(const ObjTerm *Var);
  const FloatTerm *uncheckedFloatValueOf(const ObjTerm *Var);
  const FloatTerm *loadF64(const ObjTerm *Var, std::int64_t Offset);
  const FloatTerm *loadF32(const ObjTerm *Var, std::int64_t Offset);
  const FloatTerm *ofInt(const IntTerm *Operand);
  const FloatTerm *binFloat(FloatTerm::Kind Op, const FloatTerm *L,
                            const FloatTerm *R);
  const FloatTerm *unFloat(FloatTerm::Kind Op, const FloatTerm *Operand);
  /// @}

  /// \name Bool terms
  /// @{
  const BoolTerm *boolConst(bool Value);
  const BoolTerm *notB(const BoolTerm *Operand);
  const BoolTerm *andB(const BoolTerm *L, const BoolTerm *R);
  const BoolTerm *orB(const BoolTerm *L, const BoolTerm *R);
  const BoolTerm *icmp(CmpPred Pred, const IntTerm *L, const IntTerm *R);
  const BoolTerm *fcmp(CmpPred Pred, const FloatTerm *L, const FloatTerm *R);
  const BoolTerm *isClass(const ObjTerm *Var, std::uint32_t ClassIndex);
  const BoolTerm *hasFormat(const ObjTerm *Var, std::uint8_t FormatMask);
  const BoolTerm *objEq(const ObjTerm *L, const ObjTerm *R);
  const BoolTerm *intFormatIs(const IntTerm *ClassIdx, std::uint8_t FormatMask);
  /// @}

  Arena &arena() { return Mem; }

  /// Number of distinct interned nodes (all sorts). Exposed for tests
  /// and the explore bench: interning effectiveness is #calls - #nodes.
  std::size_t internedNodes() const { return InternedNodes; }

private:
  /// Per-sort hash-bucket intern table. Collisions chain into a small
  /// vector resolved by full structural comparison.
  template <typename T>
  using InternTable = std::unordered_map<std::uint64_t, std::vector<const T *>>;

  const ObjTerm *internObj(ObjTerm Proto);
  const IntTerm *internInt(IntTerm Proto);
  const FloatTerm *internFloat(FloatTerm Proto);
  const BoolTerm *internBool(BoolTerm Proto);

  Arena Mem;
  std::map<std::tuple<VarRole, std::int32_t, const ObjTerm *>, const ObjTerm *>
      VarCache;
  std::map<Oop, const ObjTerm *> ConstCache;
  std::map<std::int64_t, const IntTerm *> IntConstCache;
  std::map<std::pair<IntTerm::Kind, const ObjTerm *>, const IntTerm *>
      IntLeafCache;
  std::map<std::tuple<const ObjTerm *, std::int64_t, int>, const IntTerm *>
      ByteCache;
  const IntTerm *StackSizeTerm = nullptr;
  std::map<double, const FloatTerm *> FloatConstCache;
  std::map<std::pair<int, const ObjTerm *>, const FloatTerm *> FloatLeafCache;
  std::map<const BoolTerm *, const BoolTerm *> NotCache;
  InternTable<ObjTerm> ObjIntern;
  InternTable<IntTerm> IntIntern;
  InternTable<FloatTerm> FloatIntern;
  InternTable<BoolTerm> BoolIntern;
  std::size_t InternedNodes = 0;
  std::uint32_t NextAllocId = 1;
};

} // namespace igdt

#endif // IGDT_SOLVER_TERM_H
