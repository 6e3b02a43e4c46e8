//===- solver/Solver.cpp - Constraint solver over VM semantics ---------------===//

#include "solver/Solver.h"

#include "observe/MetricsRegistry.h"
#include "observe/TraceBus.h"
#include "solver/TermEval.h"
#include "support/Compiler.h"
#include "support/IntMath.h"
#include "support/RNG.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace igdt;

const char *igdt::solveStatusName(SolveStatus Status) {
  switch (Status) {
  case SolveStatus::Sat:
    return "sat";
  case SolveStatus::Unsat:
    return "unsat";
  case SolveStatus::Unknown:
    return "unknown";
  }
  igdt_unreachable("unknown solve status");
}

namespace {

/// An atom with polarity, produced by negation-normal-form expansion.
struct Literal {
  const BoolTerm *Atom;
  bool Positive;
};

/// One conjunctive case of an expanded query.
using Case = std::vector<Literal>;

/// Expands a boolean term into disjunctive cases of literals.
class CaseExpander {
public:
  explicit CaseExpander(unsigned MaxCases) : MaxCases(MaxCases) {}

  /// Returns the cases of \p Conjuncts or nullopt when the cap bursts.
  std::optional<std::vector<Case>>
  expand(const std::vector<const BoolTerm *> &Conjuncts) {
    std::vector<Case> Cases = {{}};
    for (const BoolTerm *C : Conjuncts) {
      // Most conjuncts are one literal: append it to every case in
      // place, as the cross product with its single case would.
      bool Positive = true;
      const BoolTerm *Atom = C;
      for (; Atom->TermKind == BoolTerm::Kind::Not; Atom = Atom->BLhs)
        Positive = !Positive;
      if (Atom->TermKind != BoolTerm::Kind::Const &&
          Atom->TermKind != BoolTerm::Kind::And &&
          Atom->TermKind != BoolTerm::Kind::Or) {
        if (Cases.size() > MaxCases)
          return std::nullopt;
        for (Case &Into : Cases)
          Into.push_back(Literal{Atom, Positive});
        continue;
      }
      std::vector<Case> Sub = casesOf(C, /*Positive=*/true);
      std::vector<Case> Next;
      for (const Case &Left : Cases)
        for (const Case &Right : Sub) {
          Case Merged = Left;
          Merged.insert(Merged.end(), Right.begin(), Right.end());
          Next.push_back(std::move(Merged));
          if (Next.size() > MaxCases)
            return std::nullopt;
        }
      Cases = std::move(Next);
      if (Cases.empty())
        return Cases; // definitely unsatisfiable (false conjunct)
    }
    return Cases;
  }

private:
  std::vector<Case> casesOf(const BoolTerm *T, bool Positive) {
    switch (T->TermKind) {
    case BoolTerm::Kind::Const:
      if (T->ConstValue == Positive)
        return {{}}; // trivially true: one empty case
      return {};     // trivially false: no cases
    case BoolTerm::Kind::Not:
      return casesOf(T->BLhs, !Positive);
    case BoolTerm::Kind::And:
    case BoolTerm::Kind::Or: {
      bool IsConjunction =
          (T->TermKind == BoolTerm::Kind::And) == Positive;
      std::vector<Case> L = casesOf(T->BLhs, Positive);
      std::vector<Case> R = casesOf(T->BRhs, Positive);
      if (IsConjunction) {
        std::vector<Case> Out;
        for (const Case &A : L)
          for (const Case &B : R) {
            Case Merged = A;
            Merged.insert(Merged.end(), B.begin(), B.end());
            Out.push_back(std::move(Merged));
          }
        return Out;
      }
      // Disjunction: union of cases.
      L.insert(L.end(), R.begin(), R.end());
      return L;
    }
    default:
      return {{Literal{T, Positive}}};
    }
  }

  unsigned MaxCases;
};

/// Closed integer interval with emptiness.
struct Interval {
  std::int64_t Lo = SatMin;
  std::int64_t Hi = SatMax;
  bool empty() const { return Lo > Hi; }
  static Interval point(std::int64_t V) { return {V, V}; }
  Interval meet(Interval Other) const {
    return {std::max(Lo, Other.Lo), std::min(Hi, Other.Hi)};
  }
};

/// Canonical identity of a numeric leaf (after union-find).
struct LeafKey {
  int Kind; // IntTerm::Kind or 1000 + FloatTerm::Kind
  const ObjTerm *Rep;
  std::int64_t Aux;
  int Extra;
  bool operator<(const LeafKey &O) const {
    return std::tie(Kind, Rep, Aux, Extra) <
           std::tie(O.Kind, O.Rep, O.Aux, O.Extra);
  }
};

/// Per-variable class constraints accumulated from type literals.
struct ClassConstraint {
  std::optional<std::uint32_t> Forced;
  std::set<std::uint32_t> Excluded;
  std::vector<std::uint8_t> PositiveMasks;
  std::vector<std::uint8_t> NegativeMasks;
};

/// The terms sharing one leaf key, plus the leaf's dense id
/// (registration order) that literal dependency lists refer to.
template <typename TermT> struct LeafTerms {
  unsigned Id;
  std::vector<const TermT *> Terms;
};

/// Literal indices bucketed by the search depth that decides them, each
/// bucket in case order.
using LiteralSchedule = std::vector<std::vector<unsigned>>;

/// Solves one conjunctive case.
class CaseSolver {
public:
  CaseSolver(const ClassTable &Classes, const SolverOptions &Opts,
             SolverStats &Stats, RNG &Rand)
      : Classes(Classes), Opts(Opts), Stats(Stats), Rand(Rand) {}

  enum class CaseStatus { Sat, ProvenUnsat, Unknown };

  CaseStatus solve(const Case &Lits, Model &Out);

  bool budgetStopped() const { return BudgetStopped; }

private:
  // --- union-find ---
  const ObjTerm *findRep(const ObjTerm *V) {
    auto It = Parent.find(V);
    if (It == Parent.end() || It->second == V)
      return V;
    const ObjTerm *Rep = findRep(It->second);
    Parent[V] = Rep;
    return Rep;
  }
  void unite(const ObjTerm *A, const ObjTerm *B) {
    const ObjTerm *RA = findRep(A);
    const ObjTerm *RB = findRep(B);
    if (RA != RB)
      Parent[RA] = RB;
  }

  // --- collection ---
  void collectBool(const BoolTerm *T);
  void collectInt(const IntTerm *T);
  void collectFloat(const FloatTerm *T);
  void collectObj(const ObjTerm *T);
  void registerIntLeaf(const IntTerm *T);
  void registerFloatLeaf(const FloatTerm *T);

  LeafKey intLeafKey(const IntTerm *T) {
    const ObjTerm *Rep = T->Obj ? findRep(T->Obj) : nullptr;
    return LeafKey{int(T->TermKind), Rep, T->Aux,
                   int(T->Width) * 2 + (T->SignExtend ? 1 : 0)};
  }
  LeafKey floatLeafKey(const FloatTerm *T) {
    const ObjTerm *Rep = T->Obj ? findRep(T->Obj) : nullptr;
    return LeafKey{1000 + int(T->TermKind), Rep, T->Aux, 0};
  }

  // --- class handling ---
  std::vector<std::uint32_t> candidateClasses(const ObjTerm *Rep);
  Interval classSlotInterval(std::uint32_t ClassIdx) const;

  // --- numeric phase ---
  CaseStatus numericSolve(Model &Out);
  Interval evalInterval(const IntTerm *T);
  void backProp(const IntTerm *T, Interval Target, bool &Emptied);
  bool propagate(bool &Emptied);

  /// Ids of the searched leaves \p T reads (ClassIndexOf leaves are
  /// fixed by the class assignment, not searched). May repeat an id.
  void leafDepsOfInt(const IntTerm *T, std::vector<unsigned> &IntDeps,
                     std::vector<unsigned> &FloatDeps);
  void leafDepsOfFloat(const FloatTerm *T, std::vector<unsigned> &IntDeps,
                       std::vector<unsigned> &FloatDeps);

  using IntLeafMap = std::map<LeafKey, LeafTerms<IntTerm>>;
  using FloatLeafMap = std::map<LeafKey, LeafTerms<FloatTerm>>;

  void assignIntLeaf(const IntLeafMap::value_type &Leaf, std::int64_t Value,
                     Model &M);
  void assignFloatLeaf(const FloatLeafMap::value_type &Leaf, double Value,
                       Model &M);

  bool checkLiteral(const Literal &Lit, const Model &M);
  /// Checks the literals \p Lits (indices into Deps).
  bool checkAll(const std::vector<unsigned> &Lits, const Model &M);
  bool searchInt(std::size_t Index, Model &M);
  bool searchFloat(std::size_t Index, Model &M);
  bool finalCheck(const Model &M);

  const ClassTable &Classes;
  const SolverOptions &Opts;
  SolverStats &Stats;
  RNG &Rand;

  Case Literals;
  std::map<const ObjTerm *, const ObjTerm *> Parent;
  std::set<const ObjTerm *> Vars; // original vars
  std::map<const ObjTerm *, ClassConstraint> Constraints; // by rep
  IntLeafMap IntLeaves;
  FloatLeafMap FloatLeaves;
  /// Dense id of every collected integer leaf term, sorted by term once
  /// collection ends. Union-find settles before collection, so a term's
  /// leaf key, and with it its id, never moves.
  std::vector<std::pair<const IntTerm *, unsigned>> IntLeafIds;
  unsigned intLeafId(const IntTerm *T) const {
    return std::lower_bound(IntLeafIds.begin(), IntLeafIds.end(),
                            std::make_pair(T, 0u))
        ->second;
  }
  std::vector<std::pair<const ObjTerm *, const ObjTerm *>> DistinctPairs;

  /// One literal of the case with the ids of the searched leaves it
  /// reads. A literal without float leaves is decided in the integer
  /// search, one with float leaves in the float search.
  struct LiteralDeps {
    Literal Lit;
    std::vector<unsigned> Ints;
    std::vector<unsigned> Floats;
  };
  std::vector<LiteralDeps> Deps;

  /// Float leaves in search order (key order, the same for every class
  /// assignment), the literals each float depth decides, and the
  /// structural float candidates every float node tries first.
  std::vector<const FloatLeafMap::value_type *> FloatOrder;
  LiteralSchedule FloatSchedule;
  std::vector<double> FloatPool;

  // The working set of the numeric phase, sized once per case and reused
  // by every class combination and search node.
  /// Interval of each integer leaf, by dense id.
  std::vector<Interval> LeafIv;
  /// Intervals of the terms of the literal being propagated. A literal
  /// has a handful of terms, so a linear scan beats a tree.
  std::vector<std::pair<const IntTerm *, Interval>> Memo;
  /// Search depth of each integer leaf, by dense id.
  std::vector<unsigned> IntDepth;
  /// Candidate values of each integer depth, and the random samples
  /// each float depth tries after FloatPool.
  std::vector<std::vector<std::int64_t>> IntCandidates;
  std::vector<std::vector<double>> FloatSamples;

  // numeric phase state
  std::map<const ObjTerm *, std::uint32_t> ClassAssignment; // by rep
  /// An integer leaf in search order, with its narrowed interval.
  struct SearchLeaf {
    const IntLeafMap::value_type *Leaf;
    Interval Iv;
  };
  std::vector<SearchLeaf> IntOrder;
  /// The literals each integer depth decides; depth IntOrder.size() (the
  /// bottom) holds the integer literals that read no searched leaf.
  LiteralSchedule IntSchedule;
  unsigned Nodes = 0;
  bool PrecisionClamped = false;
  bool BudgetStopped = false;
};

void CaseSolver::collectObj(const ObjTerm *T) {
  if (!T)
    return;
  switch (T->TermKind) {
  case ObjTerm::Kind::Var:
    Vars.insert(T);
    collectObj(T->Parent);
    return;
  case ObjTerm::Kind::IntObj:
    collectInt(T->IntPayload);
    return;
  case ObjTerm::Kind::FloatObj:
    collectFloat(T->FloatPayload);
    return;
  case ObjTerm::Kind::NewObj:
    if (T->AllocSize)
      collectInt(T->AllocSize);
    return;
  case ObjTerm::Kind::Const:
    return;
  }
}

/// The entry for \p Key in \p Leaves, created with the next id.
template <typename TermT>
LeafTerms<TermT> &leafEntry(std::map<LeafKey, LeafTerms<TermT>> &Leaves,
                            const LeafKey &Key) {
  return Leaves
      .try_emplace(Key, LeafTerms<TermT>{unsigned(Leaves.size()), {}})
      .first->second;
}

void CaseSolver::registerIntLeaf(const IntTerm *T) {
  LeafTerms<IntTerm> &Leaf = leafEntry(IntLeaves, intLeafKey(T));
  Leaf.Terms.push_back(T);
  IntLeafIds.emplace_back(T, Leaf.Id);
}

void CaseSolver::registerFloatLeaf(const FloatTerm *T) {
  leafEntry(FloatLeaves, floatLeafKey(T)).Terms.push_back(T);
}

void CaseSolver::collectInt(const IntTerm *T) {
  if (!T)
    return;
  if (T->isLeaf()) {
    collectObj(T->Obj);
    registerIntLeaf(T);
    return;
  }
  collectInt(T->Lhs);
  collectInt(T->Rhs);
  collectFloat(T->FloatOperand);
}

void CaseSolver::collectFloat(const FloatTerm *T) {
  if (!T)
    return;
  if (T->isLeaf()) {
    collectObj(T->Obj);
    registerFloatLeaf(T);
    return;
  }
  collectFloat(T->Lhs);
  collectFloat(T->Rhs);
  collectInt(T->IntOperand);
}

void CaseSolver::collectBool(const BoolTerm *T) {
  collectObj(T->Obj);
  collectObj(T->ObjRhs);
  collectInt(T->ILhs);
  collectInt(T->IRhs);
  collectFloat(T->FLhs);
  collectFloat(T->FRhs);
}

std::vector<std::uint32_t> CaseSolver::candidateClasses(const ObjTerm *Rep) {
  static const std::uint32_t DefaultOrder[] = {
      SmallIntegerClass, PlainObjectClass,     ArrayClass,
      BoxedFloatClass,   ByteArrayClass,       UndefinedObjectClass,
      TrueClass,         FalseClass,           PointClass,
      ByteStringClass,   AssociationClass,     ExternalAddressClass};

  const ClassConstraint &C = Constraints[Rep];
  std::vector<std::uint32_t> Out;
  auto Admissible = [&](std::uint32_t K) {
    if (C.Excluded.count(K))
      return false;
    bool IsImmediate = K == SmallIntegerClass;
    for (std::uint8_t Mask : C.PositiveMasks) {
      if (IsImmediate)
        return false; // immediates never satisfy a format requirement
      if (!(formatBit(Classes.classAt(K).Format) & Mask))
        return false;
    }
    for (std::uint8_t Mask : C.NegativeMasks) {
      if (IsImmediate)
        continue; // "has not format X" holds for immediates
      if (formatBit(Classes.classAt(K).Format) & Mask)
        return false;
    }
    return true;
  };
  if (C.Forced) {
    if (Classes.isValidIndex(*C.Forced) && Admissible(*C.Forced))
      Out.push_back(*C.Forced);
    return Out;
  }
  for (std::uint32_t K : DefaultOrder)
    if (Admissible(K))
      Out.push_back(K);
  return Out;
}

Interval CaseSolver::classSlotInterval(std::uint32_t ClassIdx) const {
  switch (ClassIdx) {
  case SmallIntegerClass:
    return Interval::point(0);
  case BoxedFloatClass:
    return Interval::point(1);
  case UndefinedObjectClass:
  case TrueClass:
  case FalseClass:
    return Interval::point(0);
  default: {
    const ClassInfo &Info = Classes.classAt(ClassIdx);
    if (Info.Format == ObjectFormat::Pointers) {
      if (ClassIdx == PlainObjectClass)
        return {0, Opts.MaxSlotCount}; // synthesised per slot count
      return Interval::point(Info.FixedSlots);
    }
    return {0, Opts.MaxSlotCount};
  }
  }
}

Interval CaseSolver::evalInterval(const IntTerm *T) {
  for (const auto &[Term, Iv] : Memo)
    if (Term == T)
      return Iv;

  Interval R;
  switch (T->TermKind) {
  case IntTerm::Kind::Const:
    R = Interval::point(T->ConstValue);
    break;
  case IntTerm::Kind::ValueOf:
  case IntTerm::Kind::UncheckedValueOf:
  case IntTerm::Kind::SlotCount:
  case IntTerm::Kind::StackSize:
  case IntTerm::Kind::ByteAt:
  case IntTerm::Kind::LoadLE:
  case IntTerm::Kind::ClassIndexOf:
  case IntTerm::Kind::IdentityHash:
    R = LeafIv[intLeafId(T)];
    break;
  case IntTerm::Kind::Add: {
    Interval A = evalInterval(T->Lhs);
    Interval B = evalInterval(T->Rhs);
    R = {addSat(A.Lo, B.Lo), addSat(A.Hi, B.Hi)};
    break;
  }
  case IntTerm::Kind::Sub: {
    Interval A = evalInterval(T->Lhs);
    Interval B = evalInterval(T->Rhs);
    R = {subSat(A.Lo, B.Hi), subSat(A.Hi, B.Lo)};
    break;
  }
  case IntTerm::Kind::Neg: {
    Interval A = evalInterval(T->Lhs);
    R = {negSat(A.Hi), negSat(A.Lo)};
    break;
  }
  case IntTerm::Kind::Mul: {
    Interval A = evalInterval(T->Lhs);
    Interval B = evalInterval(T->Rhs);
    std::int64_t Corners[4] = {mulSat(A.Lo, B.Lo), mulSat(A.Lo, B.Hi),
                               mulSat(A.Hi, B.Lo), mulSat(A.Hi, B.Hi)};
    R = {*std::min_element(Corners, Corners + 4),
         *std::max_element(Corners, Corners + 4)};
    break;
  }
  case IntTerm::Kind::ModFloor: {
    Interval B = evalInterval(T->Rhs);
    if (B.Lo == B.Hi && B.Lo > 0)
      R = {0, B.Lo - 1};
    else
      R = {};
    break;
  }
  case IntTerm::Kind::Asr: {
    Interval A = evalInterval(T->Lhs);
    if (A.Lo >= 0)
      R = {0, A.Hi};
    else
      R = {};
    break;
  }
  case IntTerm::Kind::HighBit:
    R = {0, 63};
    break;
  case IntTerm::Kind::BitAnd: {
    Interval A = evalInterval(T->Lhs);
    Interval B = evalInterval(T->Rhs);
    if (A.Lo >= 0 && B.Lo >= 0)
      R = {0, std::min(A.Hi, B.Hi)};
    else
      R = {};
    break;
  }
  default:
    R = {};
    break;
  }
  Memo.emplace_back(T, R);
  return R;
}

void CaseSolver::backProp(const IntTerm *T, Interval Target, bool &Emptied) {
  switch (T->TermKind) {
  case IntTerm::Kind::Const:
    if (T->ConstValue < Target.Lo || T->ConstValue > Target.Hi)
      Emptied = true;
    return;
  case IntTerm::Kind::ValueOf:
  case IntTerm::Kind::UncheckedValueOf:
  case IntTerm::Kind::SlotCount:
  case IntTerm::Kind::StackSize:
  case IntTerm::Kind::ByteAt:
  case IntTerm::Kind::LoadLE:
  case IntTerm::Kind::ClassIndexOf:
  case IntTerm::Kind::IdentityHash: {
    Interval &Iv = LeafIv[intLeafId(T)];
    Iv = Iv.meet(Target);
    if (Iv.empty())
      Emptied = true;
    return;
  }
  case IntTerm::Kind::Add: {
    Interval A = evalInterval(T->Lhs);
    Interval B = evalInterval(T->Rhs);
    backProp(T->Lhs, {subSat(Target.Lo, B.Hi), subSat(Target.Hi, B.Lo)},
             Emptied);
    backProp(T->Rhs, {subSat(Target.Lo, A.Hi), subSat(Target.Hi, A.Lo)},
             Emptied);
    return;
  }
  case IntTerm::Kind::Sub: {
    Interval A = evalInterval(T->Lhs);
    Interval B = evalInterval(T->Rhs);
    backProp(T->Lhs, {addSat(Target.Lo, B.Lo), addSat(Target.Hi, B.Hi)},
             Emptied);
    backProp(T->Rhs, {subSat(A.Lo, Target.Hi), subSat(A.Hi, Target.Lo)},
             Emptied);
    return;
  }
  case IntTerm::Kind::Neg:
    backProp(T->Lhs, {negSat(Target.Hi), negSat(Target.Lo)}, Emptied);
    return;
  case IntTerm::Kind::Mul: {
    // Narrow only through a constant factor.
    const IntTerm *ConstSide = nullptr;
    const IntTerm *VarSide = nullptr;
    if (T->Lhs->TermKind == IntTerm::Kind::Const) {
      ConstSide = T->Lhs;
      VarSide = T->Rhs;
    } else if (T->Rhs->TermKind == IntTerm::Kind::Const) {
      ConstSide = T->Rhs;
      VarSide = T->Lhs;
    }
    if (!ConstSide || ConstSide->ConstValue == 0)
      return;
    std::int64_t C = ConstSide->ConstValue;
    std::int64_t Lo = floorDiv(Target.Lo + (C > 0 ? C - 1 : 0), C);
    std::int64_t Hi = floorDiv(Target.Hi, C);
    if (C < 0)
      std::swap(Lo, Hi);
    backProp(VarSide, {Lo, Hi}, Emptied);
    return;
  }
  default:
    return;
  }
}

bool CaseSolver::propagate(bool &Emptied) {
  for (int Pass = 0; Pass < 3 && !Emptied; ++Pass) {
    Memo.clear();
    for (const LiteralDeps &D : Deps) {
      if (!D.Floats.empty())
        continue; // float-dependent literals skip interval propagation
      const Literal &Lit = D.Lit;
      const BoolTerm *A = Lit.Atom;
      if (A->TermKind != BoolTerm::Kind::ICmp)
        continue;
      const IntTerm *L = A->ILhs;
      const IntTerm *R = A->IRhs;
      CmpPred Pred = A->Pred;
      bool Positive = Lit.Positive;
      // Canonicalise negated comparisons: !(a<b) == b<=a, !(a<=b) == b<a.
      if (!Positive && Pred == CmpPred::Lt) {
        std::swap(L, R);
        Pred = CmpPred::Le;
        Positive = true;
      } else if (!Positive && Pred == CmpPred::Le) {
        std::swap(L, R);
        Pred = CmpPred::Lt;
        Positive = true;
      }
      if (!Positive)
        continue; // disequality: no narrowing
      Interval IvL = evalInterval(L);
      Interval IvR = evalInterval(R);
      switch (Pred) {
      case CmpPred::Lt:
        backProp(L, {SatMin, subSat(IvR.Hi, 1)}, Emptied);
        backProp(R, {addSat(IvL.Lo, 1), SatMax}, Emptied);
        break;
      case CmpPred::Le:
        backProp(L, {SatMin, IvR.Hi}, Emptied);
        backProp(R, {IvL.Lo, SatMax}, Emptied);
        break;
      case CmpPred::Eq: {
        Interval Meet = IvL.meet(IvR);
        backProp(L, Meet, Emptied);
        backProp(R, Meet, Emptied);
        break;
      }
      }
      Memo.clear(); // leaf intervals changed
      if (Emptied)
        return false;
    }
  }
  return !Emptied;
}

void CaseSolver::leafDepsOfInt(const IntTerm *T,
                               std::vector<unsigned> &IntDeps,
                               std::vector<unsigned> &FloatDeps) {
  if (!T)
    return;
  if (T->isLeaf()) {
    // ClassIndexOf is fixed by the class assignment, not searched.
    if (T->TermKind != IntTerm::Kind::ClassIndexOf)
      IntDeps.push_back(intLeafId(T));
    return;
  }
  leafDepsOfInt(T->Lhs, IntDeps, FloatDeps);
  leafDepsOfInt(T->Rhs, IntDeps, FloatDeps);
  if (T->FloatOperand)
    leafDepsOfFloat(T->FloatOperand, IntDeps, FloatDeps);
}

void CaseSolver::leafDepsOfFloat(const FloatTerm *T,
                                 std::vector<unsigned> &IntDeps,
                                 std::vector<unsigned> &FloatDeps) {
  if (!T)
    return;
  if (T->isLeaf()) {
    FloatDeps.push_back(FloatLeaves.at(floatLeafKey(T)).Id);
    return;
  }
  leafDepsOfFloat(T->Lhs, IntDeps, FloatDeps);
  leafDepsOfFloat(T->Rhs, IntDeps, FloatDeps);
  if (T->IntOperand)
    leafDepsOfInt(T->IntOperand, IntDeps, FloatDeps);
}

void CaseSolver::assignIntLeaf(const IntLeafMap::value_type &Leaf,
                               std::int64_t Value, Model &M) {
  const LeafKey &Key = Leaf.first;
  switch (IntTerm::Kind(Key.Kind)) {
  case IntTerm::Kind::ValueOf:
    M.Objects[Key.Rep].IntValue = Value;
    break;
  case IntTerm::Kind::SlotCount:
    M.Objects[Key.Rep].SlotCount = Value;
    break;
  default:
    for (const IntTerm *T : Leaf.second.Terms)
      M.IntLeaves[T] = Value;
    break;
  }
}

void CaseSolver::assignFloatLeaf(const FloatLeafMap::value_type &Leaf,
                                 double Value, Model &M) {
  const auto &Terms = Leaf.second.Terms;
  if (Terms.front()->TermKind == FloatTerm::Kind::ValueOf) {
    M.Objects[Leaf.first.Rep].FloatValue = Value;
    return;
  }
  for (const FloatTerm *T : Terms)
    M.FloatLeaves[T] = Value;
}

bool CaseSolver::checkLiteral(const Literal &Lit, const Model &M) {
  TermEvaluator Eval(M, Classes);
  auto V = Eval.evalBool(Lit.Atom);
  if (!V)
    return false;
  return *V == Lit.Positive;
}

bool CaseSolver::checkAll(const std::vector<unsigned> &Lits,
                          const Model &M) {
  for (unsigned I : Lits)
    if (!checkLiteral(Deps[I].Lit, M))
      return false;
  return true;
}

bool CaseSolver::searchInt(std::size_t Index, Model &M) {
  if (Nodes++ > Opts.MaxSearchNodes)
    return false;
  if (Opts.SharedBudget && !Opts.SharedBudget->charge()) {
    BudgetStopped = true;
    return false;
  }
  if (Index == IntOrder.size()) {
    // All integer leaves fixed: check the integer literals no searched
    // leaf decides, then search the floats.
    if (!checkAll(IntSchedule[Index], M))
      return false;
    return searchFloat(0, M);
  }

  const SearchLeaf &Leaf = IntOrder[Index];
  const Interval &Iv = Leaf.Iv;
  std::vector<std::int64_t> &Candidates = IntCandidates[Index];
  Candidates.clear();
  auto Push = [&](std::int64_t V) {
    if (V < Iv.Lo || V > Iv.Hi)
      return;
    if (std::find(Candidates.begin(), Candidates.end(), V) ==
        Candidates.end())
      Candidates.push_back(V);
  };
  Push(Iv.Lo);
  Push(Iv.Hi);
  Push(0);
  Push(1);
  Push(2);
  Push(-1);
  if (Iv.Lo != SatMin && Iv.Hi != SatMax)
    Push(Iv.Lo + (Iv.Hi - Iv.Lo) / 2);
  for (unsigned I = 0; I < Opts.RandomSamples; ++I)
    Push(Rand.nextInRange(std::max(Iv.Lo, -(std::int64_t(1) << 62)),
                          std::min(Iv.Hi, std::int64_t(1) << 62)));

  for (std::int64_t V : Candidates) {
    assignIntLeaf(*Leaf.Leaf, V, M);
    // Only the literals whose last-ordered leaf this is can change
    // verdict here; earlier ones passed and their leaves are unchanged.
    if (checkAll(IntSchedule[Index], M) && searchInt(Index + 1, M))
      return true;
  }
  return false;
}

bool CaseSolver::searchFloat(std::size_t Index, Model &M) {
  if (Index == FloatOrder.size())
    return finalCheck(M);
  if (Nodes++ > Opts.MaxSearchNodes)
    return false;
  if (Opts.SharedBudget && !Opts.SharedBudget->charge()) {
    BudgetStopped = true;
    return false;
  }

  // Every sample is drawn before the first candidate recurses, so deeper
  // nodes see the same generator state whichever candidate succeeds.
  std::vector<double> &Samples = FloatSamples[Index];
  Samples.clear();
  for (unsigned I = 0; I < Opts.RandomSamples; ++I)
    Samples.push_back(Rand.nextDouble(-1000.0, 1000.0));

  const FloatLeafMap::value_type &Leaf = *FloatOrder[Index];
  auto Try = [&](double V) {
    assignFloatLeaf(Leaf, V, M);
    return checkAll(FloatSchedule[Index], M) && searchFloat(Index + 1, M);
  };
  for (double V : FloatPool)
    if (Try(V))
      return true;
  for (double V : Samples)
    if (Try(V))
      return true;
  return false;
}

bool CaseSolver::finalCheck(const Model &M) {
  for (const LiteralDeps &D : Deps)
    if (!checkLiteral(D.Lit, M))
      return false;
  return true;
}

CaseSolver::CaseStatus CaseSolver::solve(const Case &Lits, Model &Out) {
  Literals = Lits;
  PrecisionClamped = Opts.IntegerBits < SmallIntBits;

  // Phase 0: union-find over positive identity literals, then collect.
  for (const Literal &L : Literals)
    if (L.Atom->TermKind == BoolTerm::Kind::ObjEq && L.Positive &&
        L.Atom->Obj->isVar() && L.Atom->ObjRhs->isVar())
      unite(L.Atom->Obj, L.Atom->ObjRhs);

  for (const Literal &L : Literals)
    collectBool(L.Atom);
  // A term met twice is registered twice, under the same id.
  std::sort(IntLeafIds.begin(), IntLeafIds.end());

  // Phase 1: class constraints.
  for (const Literal &L : Literals) {
    const BoolTerm *A = L.Atom;
    if (A->TermKind == BoolTerm::Kind::IsClass && A->Obj->isVar()) {
      ClassConstraint &C = Constraints[findRep(A->Obj)];
      if (L.Positive) {
        if (C.Forced && *C.Forced != A->ClassIndex)
          return CaseStatus::ProvenUnsat;
        C.Forced = A->ClassIndex;
      } else {
        C.Excluded.insert(A->ClassIndex);
      }
    } else if (A->TermKind == BoolTerm::Kind::HasFormat && A->Obj->isVar()) {
      ClassConstraint &C = Constraints[findRep(A->Obj)];
      if (L.Positive)
        C.PositiveMasks.push_back(A->FormatMask);
      else
        C.NegativeMasks.push_back(A->FormatMask);
    } else if (A->TermKind == BoolTerm::Kind::ObjEq && !L.Positive &&
               A->Obj->isVar() && A->ObjRhs->isVar()) {
      DistinctPairs.emplace_back(A->Obj, A->ObjRhs);
      // Ensure the payloads of both sides are searchable so the solver
      // can make two immediates distinct (synthetic ValueOf leaves).
      leafEntry(IntLeaves,
                LeafKey{int(IntTerm::Kind::ValueOf), findRep(A->Obj), 0, 0});
      leafEntry(IntLeaves, LeafKey{int(IntTerm::Kind::ValueOf),
                                   findRep(A->ObjRhs), 0, 0});
    }
  }

  // Representatives of every variable seen.
  std::vector<const ObjTerm *> Reps;
  for (const ObjTerm *V : Vars) {
    const ObjTerm *R = findRep(V);
    if (std::find(Reps.begin(), Reps.end(), R) == Reps.end())
      Reps.push_back(R);
  }

  // Literal dependencies.
  for (const Literal &L : Literals) {
    LiteralDeps D{L, {}, {}};
    const BoolTerm *A = L.Atom;
    leafDepsOfInt(A->ILhs, D.Ints, D.Floats);
    leafDepsOfInt(A->IRhs, D.Ints, D.Floats);
    leafDepsOfFloat(A->FLhs, D.Ints, D.Floats);
    leafDepsOfFloat(A->FRhs, D.Ints, D.Floats);
    if (A->TermKind == BoolTerm::Kind::ObjEq) {
      // Identity of two small integers depends on their payloads; model
      // this conservatively by depending on both ValueOf leaves if known.
      for (const ObjTerm *Side : {A->Obj, A->ObjRhs})
        if (Side->isVar())
          for (const auto &[Key, Leaf] : IntLeaves)
            if (Key.Rep == findRep(Side) &&
                Key.Kind == int(IntTerm::Kind::ValueOf))
              D.Ints.push_back(Leaf.Id);
    }
    Deps.push_back(std::move(D));
  }

  // Float leaves are searched in key order whatever the class
  // assignment, so the float schedule is fixed per case: a float
  // literal is decided at the depth of its last float leaf (every
  // integer leaf is assigned before the float search starts).
  std::vector<unsigned> FloatDepth(FloatLeaves.size());
  for (const auto &Entry : FloatLeaves) {
    FloatDepth[Entry.second.Id] = FloatOrder.size();
    FloatOrder.push_back(&Entry);
  }
  FloatSchedule.resize(FloatOrder.size());
  FloatSamples.resize(FloatOrder.size());
  for (unsigned I = 0; I < Deps.size(); ++I) {
    if (Deps[I].Floats.empty())
      continue;
    unsigned Depth = 0;
    for (unsigned Id : Deps[I].Floats)
      Depth = std::max(Depth, FloatDepth[Id]);
    FloatSchedule[Depth].push_back(I);
  }

  // Float candidate pool: generic values, structural constants from
  // float comparisons, then extremes; each node appends random samples.
  FloatPool = {0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 4.0, 100.25, -100.25};
  for (const LiteralDeps &D : Deps) {
    const BoolTerm *A = D.Lit.Atom;
    if (A->TermKind != BoolTerm::Kind::FCmp)
      continue;
    for (const FloatTerm *Side : {A->FLhs, A->FRhs}) {
      if (Side && Side->TermKind == FloatTerm::Kind::Const) {
        double C = Side->ConstValue;
        FloatPool.insert(FloatPool.end(),
                         {C, C + 1, C - 1, C + 0.5, C - 0.5, C * 2});
      }
    }
  }
  FloatPool.insert(FloatPool.end(), {1e19, -1e19, 1e300, -1e300});

  // Phase 2: iterate class assignments.
  std::vector<std::vector<std::uint32_t>> Candidates;
  for (const ObjTerm *R : Reps) {
    Candidates.push_back(candidateClasses(R));
    if (Candidates.back().empty())
      return CaseStatus::ProvenUnsat;
  }

  unsigned Combos = 0;
  bool AnyUnknown = false;
  // DFS over class choices.
  std::vector<std::size_t> Choice(Reps.size(), 0);
  while (true) {
    if (Combos++ > Opts.MaxClassCombos) {
      AnyUnknown = true;
      break;
    }
    if (Opts.SharedBudget && Opts.SharedBudget->expired()) {
      BudgetStopped = true;
      AnyUnknown = true;
      break;
    }
    Stats.CasesExplored++;
    ClassAssignment.clear();
    Model M;
    for (std::size_t I = 0; I < Reps.size(); ++I) {
      ClassAssignment[Reps[I]] = Candidates[I][Choice[I]];
      M.Objects[Reps[I]].ClassIndex = Candidates[I][Choice[I]];
    }
    for (const ObjTerm *V : Vars)
      M.Reps[V] = findRep(V);

    CaseStatus S = numericSolve(M);
    if (S == CaseStatus::Sat) {
      Out = std::move(M);
      return CaseStatus::Sat;
    }
    if (S == CaseStatus::Unknown)
      AnyUnknown = true;

    // Advance mixed-radix counter; an empty Reps list runs exactly once.
    std::size_t I = 0;
    for (; I < Reps.size(); ++I) {
      if (++Choice[I] < Candidates[I].size())
        break;
      Choice[I] = 0;
    }
    if (I == Reps.size())
      break;
  }
  return AnyUnknown ? CaseStatus::Unknown : CaseStatus::ProvenUnsat;
}

CaseSolver::CaseStatus CaseSolver::numericSolve(Model &M) {
  // Initial leaf intervals.
  LeafIv.resize(IntLeaves.size());
  std::int64_t Clamp =
      Opts.IntegerBits >= 63
          ? SatMax
          : (std::int64_t(1) << (Opts.IntegerBits - 1)) - 1;
  for (const auto &[Key, Leaf] : IntLeaves) {
    Interval Iv;
    switch (IntTerm::Kind(Key.Kind)) {
    case IntTerm::Kind::ValueOf:
      Iv = {std::max(MinSmallInt, -Clamp - 1), std::min(MaxSmallInt, Clamp)};
      break;
    case IntTerm::Kind::SlotCount: {
      auto It = ClassAssignment.find(Key.Rep);
      Iv = It != ClassAssignment.end() ? classSlotInterval(It->second)
                                       : Interval{0, Opts.MaxSlotCount};
      break;
    }
    case IntTerm::Kind::StackSize:
      Iv = {0, Opts.MaxStackSize};
      break;
    case IntTerm::Kind::ByteAt:
      Iv = {0, 255};
      break;
    case IntTerm::Kind::LoadLE: {
      int Width = Key.Extra / 2;
      bool SignExtend = Key.Extra % 2 != 0;
      if (Width >= 8)
        Iv = {SatMin, SatMax};
      else if (SignExtend)
        Iv = {-(std::int64_t(1) << (8 * Width - 1)),
              (std::int64_t(1) << (8 * Width - 1)) - 1};
      else
        Iv = {0, (std::int64_t(1) << (8 * Width)) - 1};
      break;
    }
    case IntTerm::Kind::ClassIndexOf: {
      auto It = ClassAssignment.find(Key.Rep);
      Iv = It != ClassAssignment.end()
               ? Interval::point(It->second)
               : Interval{1, std::int64_t(Classes.size()) - 1};
      break;
    }
    default: // opaque leaves
      Iv = {-(std::int64_t(1) << 61), std::int64_t(1) << 61};
      break;
    }
    LeafIv[Leaf.Id] = Iv;
  }

  bool Emptied = false;
  propagate(Emptied);
  if (Emptied)
    return PrecisionClamped ? CaseStatus::Unknown : CaseStatus::ProvenUnsat;

  // Fix ClassIndexOf leaves immediately (they are not searched).
  for (const auto &Entry : IntLeaves)
    if (Entry.first.Kind == int(IntTerm::Kind::ClassIndexOf)) {
      auto It = ClassAssignment.find(Entry.first.Rep);
      if (It != ClassAssignment.end())
        assignIntLeaf(Entry, It->second, M);
    }

  // Search order: narrow intervals first.
  IntOrder.clear();
  for (const auto &Entry : IntLeaves)
    if (Entry.first.Kind != int(IntTerm::Kind::ClassIndexOf))
      IntOrder.push_back({&Entry, LeafIv[Entry.second.Id]});
  std::sort(IntOrder.begin(), IntOrder.end(),
            [](const SearchLeaf &A, const SearchLeaf &B) {
              __int128 WA = (__int128)A.Iv.Hi - A.Iv.Lo;
              __int128 WB = (__int128)B.Iv.Hi - B.Iv.Lo;
              return WA < WB;
            });

  // Integer schedule: a literal without float leaves is decided where
  // its last-ordered leaf is assigned, or at the bottom when it reads
  // no searched leaf. Float literals wait for the float search.
  IntDepth.assign(IntLeaves.size(), 0);
  for (std::size_t I = 0; I < IntOrder.size(); ++I)
    IntDepth[IntOrder[I].Leaf->second.Id] = unsigned(I);
  // Every class combination searches the same leaves, so the buckets
  // and candidate buffers keep their capacity across combinations.
  IntSchedule.resize(IntOrder.size() + 1);
  for (std::vector<unsigned> &Bucket : IntSchedule)
    Bucket.clear();
  IntCandidates.resize(IntOrder.size());
  for (unsigned I = 0; I < Deps.size(); ++I) {
    if (!Deps[I].Floats.empty())
      continue;
    unsigned Depth = Deps[I].Ints.empty() ? unsigned(IntOrder.size()) : 0;
    for (unsigned Id : Deps[I].Ints)
      Depth = std::max(Depth, IntDepth[Id]);
    IntSchedule[Depth].push_back(I);
  }

  unsigned StartNodes = Nodes;
  bool SatFound = searchInt(0, M);
  if (SatFound)
    return CaseStatus::Sat;
  Stats.NodesExplored += Nodes - StartNodes;
  if (Nodes > Opts.MaxSearchNodes || BudgetStopped)
    return CaseStatus::Unknown;
  // Search exhausted its candidate pool without covering the whole space:
  // sampling incompleteness, not an unsat proof.
  bool HadSearchSpace = !IntOrder.empty() || !FloatOrder.empty();
  return HadSearchSpace ? CaseStatus::Unknown : CaseStatus::ProvenUnsat;
}

} // namespace

void SolverStats::add(const SolverStats &Other) {
  Queries += Other.Queries;
  SatCount += Other.SatCount;
  UnsatCount += Other.UnsatCount;
  UnknownCount += Other.UnknownCount;
  CasesExplored += Other.CasesExplored;
  NodesExplored += Other.NodesExplored;
  BudgetStops += Other.BudgetStops;
  CacheHits += Other.CacheHits;
  CacheMisses += Other.CacheMisses;
  PrefixReuseSolves += Other.PrefixReuseSolves;
  FullSolves += Other.FullSolves;
}

void igdt::foldSolverStats(MetricsRegistry &Registry,
                           const SolverStats &Stats) {
  Registry.add("solver.queries", Stats.Queries);
  Registry.add("solver.sat", Stats.SatCount);
  Registry.add("solver.unsat", Stats.UnsatCount);
  Registry.add("solver.unknown", Stats.UnknownCount);
  Registry.add("solver.cases", Stats.CasesExplored);
  Registry.add("solver.nodes", Stats.NodesExplored);
  Registry.add("solver.budget_stops", Stats.BudgetStops);
  Registry.add("solver.cache.hits", Stats.CacheHits);
  Registry.add("solver.cache.misses", Stats.CacheMisses);
}

ConstraintSolver::ConstraintSolver(const ClassTable &Classes,
                                   SolverOptions Options)
    : Classes(Classes), Opts(Options) {}

SolveResult ConstraintSolver::solve(
    const std::vector<const BoolTerm *> &Conjuncts) {
  if (!Opts.Trace)
    return solveImpl(Conjuncts);
  // The nodes/cases deltas are cost-compensated on shared-index hits
  // (see below), so the emitted numbers match an index-less run and the
  // event is safe for deterministic traces.
  std::uint64_t NodesBefore = Stats.NodesExplored;
  std::uint64_t CasesBefore = Stats.CasesExplored;
  SolveResult Result = solveImpl(Conjuncts);
  TraceEvent E;
  E.Kind = TraceEventKind::SolverQuery;
  E.Detail = solveStatusName(Result.Status);
  E.Value = Stats.NodesExplored - NodesBefore;
  E.Extra = Stats.CasesExplored - CasesBefore;
  Opts.Trace->emit(std::move(E));
  return Result;
}

SolveResult ConstraintSolver::solveImpl(
    const std::vector<const BoolTerm *> &Conjuncts) {
  auto EmitCache = [this](const char *What) {
    if (!Opts.Trace)
      return;
    TraceEvent E;
    E.Kind = TraceEventKind::CacheLookup;
    E.Detail = What;
    Opts.Trace->emit(std::move(E));
  };
  Stats.Queries++;
  if (Opts.InjectSolverHang)
    throw HarnessFault("solve", "injected solver hang: query exceeded "
                                "every search cap without converging");
  SolveResult Result;
  if (Opts.SharedBudget && Opts.SharedBudget->expired()) {
    // The instruction's budget is already gone: answer Unknown without
    // burning more wall time.
    Stats.UnknownCount++;
    Stats.BudgetStops++;
    Result.Status = SolveStatus::Unknown;
    return Result;
  }

  Stats.FullSolves++;
  std::optional<std::vector<Case>> Cases =
      CaseExpander(Opts.MaxCases).expand(Conjuncts);
  if (!Cases) {
    Result.Status = SolveStatus::Unknown;
    Stats.UnknownCount++;
    return Result;
  }
  if (Cases->empty()) {
    Result.Status = SolveStatus::Unsat;
    Stats.UnsatCount++;
    return Result;
  }

  // Fingerprint of every cap that can influence whether a case is
  // *provably* Unsat (as opposed to Sat or Unknown): shared-index
  // entries only serve solvers whose proof would be identical.
  // RandomSamples and MaxSearchNodes are included out of caution even
  // though Unsat proofs never reach the seeded search.
  std::uint64_t CapsFp = hashCombine64(0xF1A6ull, std::uint64_t(Opts.IntegerBits));
  CapsFp = hashCombine64(CapsFp, Opts.MaxClassCombos);
  CapsFp = hashCombine64(CapsFp, Opts.MaxSearchNodes);
  CapsFp = hashCombine64(CapsFp, Opts.RandomSamples);
  CapsFp = hashCombine64(CapsFp, std::uint64_t(Opts.MaxStackSize));
  CapsFp = hashCombine64(CapsFp, std::uint64_t(Opts.MaxSlotCount));

  bool AnyUnknown = false;
  bool AnyBudgetStop = false;
  for (const Case &C : *Cases) {
    // Case key: the sorted hashes of its literals (each atom's
    // precomputed structural hash mixed with polarity), independent of
    // arena addresses and of literal order.
    SharedUnsatIndex::QueryKey CaseKey;
    CaseKey.reserve(C.size());
    for (const Literal &L : C)
      CaseKey.push_back(
          hashCombine64(L.Atom->Hash, L.Positive ? 0xA11ull : 0xB22ull));
    std::sort(CaseKey.begin(), CaseKey.end());

    SharedUnsatIndex::Proof Proof;
    if (Opts.Shared && Opts.Shared->lookup(CapsFp, CaseKey, Proof)) {
      // Another exploration (possibly on another worker) already proved
      // this case Unsat under identical caps. Charge the proof's
      // deterministic cost so the per-instruction cases/nodes counters
      // are the same as if we had re-proved it here.
      Stats.CacheHits++;
      EmitCache("shared-hit");
      Stats.CasesExplored += Proof.CasesExplored;
      Stats.NodesExplored += Proof.NodesExplored;
      continue;
    }
    if (Opts.Shared) {
      Stats.CacheMisses++;
      EmitCache("miss");
    }
    // The case RNG is seeded from the exploration seed and the case's
    // own content only — deliberately NOT from any per-query signature:
    // the same case posed by different queries (a longer prefix, a
    // ladder rung) must sample bit-identically, and skipping a case the
    // shared index proved must not shift the samples of its neighbours.
    std::uint64_t CaseFold = 0xCA5Eull;
    for (std::uint64_t H : CaseKey)
      CaseFold = hashCombine64(CaseFold, H);
    RNG CaseRand(hashCombine64(Opts.Seed, CaseFold));
    std::uint64_t CasesBefore = Stats.CasesExplored;
    std::uint64_t NodesBefore = Stats.NodesExplored;
    CaseSolver CS(Classes, Opts, Stats, CaseRand);
    Model M;
    CaseSolver::CaseStatus S = CS.solve(C, M);
    if (Opts.Shared && S == CaseSolver::CaseStatus::ProvenUnsat &&
        !CS.budgetStopped())
      Opts.Shared->store(CapsFp, CaseKey,
                         {Stats.CasesExplored - CasesBefore,
                          Stats.NodesExplored - NodesBefore});
    if (S == CaseSolver::CaseStatus::Sat) {
      Result.Status = SolveStatus::Sat;
      Result.M = std::move(M);
      Stats.SatCount++;
      return Result;
    }
    if (CS.budgetStopped()) {
      AnyBudgetStop = true;
      AnyUnknown = true;
      break; // remaining cases would stop the same way
    }
    if (S == CaseSolver::CaseStatus::Unknown)
      AnyUnknown = true;
  }
  if (AnyBudgetStop)
    Stats.BudgetStops++;
  Result.Status = AnyUnknown ? SolveStatus::Unknown : SolveStatus::Unsat;
  if (AnyUnknown)
    Stats.UnknownCount++;
  else
    Stats.UnsatCount++;
  return Result;
}
