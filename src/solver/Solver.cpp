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
  Interval evalInterval(const IntTerm *T,
                        std::map<LeafKey, Interval> &LeafIv,
                        std::map<const IntTerm *, Interval> &Memo);
  void backProp(const IntTerm *T, Interval Target,
                std::map<LeafKey, Interval> &LeafIv,
                std::map<const IntTerm *, Interval> &Memo, bool &Emptied);
  bool propagate(std::map<LeafKey, Interval> &LeafIv, bool &Emptied);

  void leafDepsOfInt(const IntTerm *T, std::set<LeafKey> &IntDeps,
                     std::set<LeafKey> &FloatDeps);
  void leafDepsOfFloat(const FloatTerm *T, std::set<LeafKey> &IntDeps,
                       std::set<LeafKey> &FloatDeps);

  void assignIntLeaf(const LeafKey &Key, std::int64_t Value, Model &M);
  void assignFloatLeaf(const LeafKey &Key, double Value, Model &M);

  bool checkLiteral(const Literal &Lit, const Model &M);
  bool searchInt(std::size_t Index, Model &M,
                 const std::vector<std::pair<LeafKey, Interval>> &Order);
  bool searchFloat(std::size_t Index, Model &M,
                   const std::vector<LeafKey> &Order);
  bool finalCheck(const Model &M);

  const ClassTable &Classes;
  const SolverOptions &Opts;
  SolverStats &Stats;
  RNG &Rand;

  Case Literals;
  std::map<const ObjTerm *, const ObjTerm *> Parent;
  std::set<const ObjTerm *> Vars; // original vars
  std::map<const ObjTerm *, ClassConstraint> Constraints; // by rep
  std::map<LeafKey, std::vector<const IntTerm *>> IntLeaves;
  std::map<LeafKey, std::vector<const FloatTerm *>> FloatLeaves;
  std::vector<std::pair<const ObjTerm *, const ObjTerm *>> DistinctPairs;

  // numeric phase state
  std::map<const ObjTerm *, std::uint32_t> ClassAssignment; // by rep
  std::map<LeafKey, Interval> FinalLeafIv;
  std::set<LeafKey> AssignedInt;
  std::set<LeafKey> AssignedFloat;
  std::vector<std::pair<Literal, std::pair<std::set<LeafKey>,
                                           std::set<LeafKey>>>>
      LiteralDeps;
  std::vector<LeafKey> FloatOrder;
  unsigned Nodes = 0;
  bool PrecisionClamped = false;
  bool SawClampedEmpty = false;
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

void CaseSolver::registerIntLeaf(const IntTerm *T) {
  IntLeaves[intLeafKey(T)].push_back(T);
}

void CaseSolver::registerFloatLeaf(const FloatTerm *T) {
  FloatLeaves[floatLeafKey(T)].push_back(T);
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

Interval CaseSolver::evalInterval(const IntTerm *T,
                                  std::map<LeafKey, Interval> &LeafIv,
                                  std::map<const IntTerm *, Interval> &Memo) {
  auto It = Memo.find(T);
  if (It != Memo.end())
    return It->second;

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
  case IntTerm::Kind::IdentityHash: {
    auto LIt = LeafIv.find(intLeafKey(T));
    R = LIt == LeafIv.end() ? Interval{} : LIt->second;
    break;
  }
  case IntTerm::Kind::Add: {
    Interval A = evalInterval(T->Lhs, LeafIv, Memo);
    Interval B = evalInterval(T->Rhs, LeafIv, Memo);
    R = {addSat(A.Lo, B.Lo), addSat(A.Hi, B.Hi)};
    break;
  }
  case IntTerm::Kind::Sub: {
    Interval A = evalInterval(T->Lhs, LeafIv, Memo);
    Interval B = evalInterval(T->Rhs, LeafIv, Memo);
    R = {subSat(A.Lo, B.Hi), subSat(A.Hi, B.Lo)};
    break;
  }
  case IntTerm::Kind::Neg: {
    Interval A = evalInterval(T->Lhs, LeafIv, Memo);
    R = {negSat(A.Hi), negSat(A.Lo)};
    break;
  }
  case IntTerm::Kind::Mul: {
    Interval A = evalInterval(T->Lhs, LeafIv, Memo);
    Interval B = evalInterval(T->Rhs, LeafIv, Memo);
    std::int64_t Corners[4] = {mulSat(A.Lo, B.Lo), mulSat(A.Lo, B.Hi),
                               mulSat(A.Hi, B.Lo), mulSat(A.Hi, B.Hi)};
    R = {*std::min_element(Corners, Corners + 4),
         *std::max_element(Corners, Corners + 4)};
    break;
  }
  case IntTerm::Kind::ModFloor: {
    Interval B = evalInterval(T->Rhs, LeafIv, Memo);
    if (B.Lo == B.Hi && B.Lo > 0)
      R = {0, B.Lo - 1};
    else
      R = {};
    break;
  }
  case IntTerm::Kind::Asr: {
    Interval A = evalInterval(T->Lhs, LeafIv, Memo);
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
    Interval A = evalInterval(T->Lhs, LeafIv, Memo);
    Interval B = evalInterval(T->Rhs, LeafIv, Memo);
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
  Memo.emplace(T, R);
  return R;
}

void CaseSolver::backProp(const IntTerm *T, Interval Target,
                          std::map<LeafKey, Interval> &LeafIv,
                          std::map<const IntTerm *, Interval> &Memo,
                          bool &Emptied) {
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
    LeafKey Key = intLeafKey(T);
    auto It = LeafIv.find(Key);
    if (It == LeafIv.end())
      return;
    It->second = It->second.meet(Target);
    if (It->second.empty())
      Emptied = true;
    return;
  }
  case IntTerm::Kind::Add: {
    Interval A = evalInterval(T->Lhs, LeafIv, Memo);
    Interval B = evalInterval(T->Rhs, LeafIv, Memo);
    backProp(T->Lhs, {subSat(Target.Lo, B.Hi), subSat(Target.Hi, B.Lo)},
             LeafIv, Memo, Emptied);
    backProp(T->Rhs, {subSat(Target.Lo, A.Hi), subSat(Target.Hi, A.Lo)},
             LeafIv, Memo, Emptied);
    return;
  }
  case IntTerm::Kind::Sub: {
    Interval A = evalInterval(T->Lhs, LeafIv, Memo);
    Interval B = evalInterval(T->Rhs, LeafIv, Memo);
    backProp(T->Lhs, {addSat(Target.Lo, B.Lo), addSat(Target.Hi, B.Hi)},
             LeafIv, Memo, Emptied);
    backProp(T->Rhs, {subSat(A.Lo, Target.Hi), subSat(A.Hi, Target.Lo)},
             LeafIv, Memo, Emptied);
    return;
  }
  case IntTerm::Kind::Neg:
    backProp(T->Lhs, {negSat(Target.Hi), negSat(Target.Lo)}, LeafIv, Memo,
             Emptied);
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
    backProp(VarSide, {Lo, Hi}, LeafIv, Memo, Emptied);
    return;
  }
  default:
    return;
  }
}

bool CaseSolver::propagate(std::map<LeafKey, Interval> &LeafIv,
                           bool &Emptied) {
  for (int Pass = 0; Pass < 3 && !Emptied; ++Pass) {
    std::map<const IntTerm *, Interval> Memo;
    for (const auto &[Lit, Deps] : LiteralDeps) {
      if (!Deps.second.empty())
        continue; // float-dependent literals skip interval propagation
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
      Interval IvL = evalInterval(L, LeafIv, Memo);
      Interval IvR = evalInterval(R, LeafIv, Memo);
      switch (Pred) {
      case CmpPred::Lt:
        backProp(L, {SatMin, subSat(IvR.Hi, 1)}, LeafIv, Memo, Emptied);
        backProp(R, {addSat(IvL.Lo, 1), SatMax}, LeafIv, Memo, Emptied);
        break;
      case CmpPred::Le:
        backProp(L, {SatMin, IvR.Hi}, LeafIv, Memo, Emptied);
        backProp(R, {IvL.Lo, SatMax}, LeafIv, Memo, Emptied);
        break;
      case CmpPred::Eq: {
        Interval Meet = IvL.meet(IvR);
        backProp(L, Meet, LeafIv, Memo, Emptied);
        backProp(R, Meet, LeafIv, Memo, Emptied);
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

void CaseSolver::leafDepsOfInt(const IntTerm *T, std::set<LeafKey> &IntDeps,
                               std::set<LeafKey> &FloatDeps) {
  if (!T)
    return;
  if (T->isLeaf()) {
    // ClassIndexOf is fixed by the class assignment, not searched.
    if (T->TermKind != IntTerm::Kind::ClassIndexOf)
      IntDeps.insert(intLeafKey(T));
    return;
  }
  leafDepsOfInt(T->Lhs, IntDeps, FloatDeps);
  leafDepsOfInt(T->Rhs, IntDeps, FloatDeps);
  if (T->FloatOperand)
    leafDepsOfFloat(T->FloatOperand, IntDeps, FloatDeps);
}

void CaseSolver::leafDepsOfFloat(const FloatTerm *T,
                                 std::set<LeafKey> &IntDeps,
                                 std::set<LeafKey> &FloatDeps) {
  if (!T)
    return;
  if (T->isLeaf()) {
    FloatDeps.insert(floatLeafKey(T));
    return;
  }
  leafDepsOfFloat(T->Lhs, IntDeps, FloatDeps);
  leafDepsOfFloat(T->Rhs, IntDeps, FloatDeps);
  if (T->IntOperand)
    leafDepsOfInt(T->IntOperand, IntDeps, FloatDeps);
}

void CaseSolver::assignIntLeaf(const LeafKey &Key, std::int64_t Value,
                               Model &M) {
  AssignedInt.insert(Key);
  const auto &Terms = IntLeaves[Key];
  switch (IntTerm::Kind(Key.Kind)) {
  case IntTerm::Kind::ValueOf:
    M.Objects[Key.Rep].IntValue = Value;
    break;
  case IntTerm::Kind::SlotCount:
    M.Objects[Key.Rep].SlotCount = Value;
    break;
  default:
    for (const IntTerm *T : Terms)
      M.IntLeaves[T] = Value;
    break;
  }
}

void CaseSolver::assignFloatLeaf(const LeafKey &Key, double Value, Model &M) {
  AssignedFloat.insert(Key);
  const auto &Terms = FloatLeaves[Key];
  const FloatTerm *T0 = Terms.front();
  if (T0->TermKind == FloatTerm::Kind::ValueOf) {
    M.Objects[Key.Rep].FloatValue = Value;
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

bool CaseSolver::searchInt(
    std::size_t Index, Model &M,
    const std::vector<std::pair<LeafKey, Interval>> &Order) {
  if (Nodes++ > Opts.MaxSearchNodes)
    return false;
  if (Opts.SharedBudget && !Opts.SharedBudget->charge()) {
    BudgetStopped = true;
    return false;
  }
  if (Index == Order.size()) {
    // All integer leaves fixed: check int-only literals then floats.
    for (const auto &[Lit, Deps] : LiteralDeps) {
      if (!Deps.second.empty())
        continue;
      if (!checkLiteral(Lit, M))
        return false;
    }
    return searchFloat(0, M, FloatOrder);
  }

  const auto &[Key, Iv] = Order[Index];
  std::vector<std::int64_t> Candidates;
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
    assignIntLeaf(Key, V, M);
    // Check literals that became fully int-assigned (and have no floats).
    bool Ok = true;
    for (const auto &[Lit, Deps] : LiteralDeps) {
      if (!Deps.second.empty())
        continue;
      if (!Deps.first.count(Key))
        continue;
      bool AllAssigned = true;
      for (const LeafKey &D : Deps.first)
        if (!AssignedInt.count(D)) {
          AllAssigned = false;
          break;
        }
      if (AllAssigned && !checkLiteral(Lit, M)) {
        Ok = false;
        break;
      }
    }
    if (Ok && searchInt(Index + 1, M, Order))
      return true;
    AssignedInt.erase(Key);
  }
  return false;
}

bool CaseSolver::searchFloat(std::size_t Index, Model &M,
                             const std::vector<LeafKey> &Order) {
  if (Index == Order.size())
    return finalCheck(M);
  if (Nodes++ > Opts.MaxSearchNodes)
    return false;
  if (Opts.SharedBudget && !Opts.SharedBudget->charge()) {
    BudgetStopped = true;
    return false;
  }

  // Candidate pool: structural constants from float comparisons plus
  // generic values and random samples.
  std::vector<double> Candidates = {0.0, 1.0, -1.0, 0.5,  -0.5, 2.0,
                                    -2.0, 4.0, 100.25, -100.25};
  for (const auto &[Lit, Deps] : LiteralDeps) {
    const BoolTerm *A = Lit.Atom;
    if (A->TermKind != BoolTerm::Kind::FCmp)
      continue;
    for (const FloatTerm *Side : {A->FLhs, A->FRhs}) {
      if (Side && Side->TermKind == FloatTerm::Kind::Const) {
        double C = Side->ConstValue;
        Candidates.push_back(C);
        Candidates.push_back(C + 1);
        Candidates.push_back(C - 1);
        Candidates.push_back(C + 0.5);
        Candidates.push_back(C - 0.5);
        Candidates.push_back(C * 2);
      }
    }
  }
  Candidates.push_back(1e19);
  Candidates.push_back(-1e19);
  Candidates.push_back(1e300);
  Candidates.push_back(-1e300);
  for (unsigned I = 0; I < Opts.RandomSamples; ++I)
    Candidates.push_back(Rand.nextDouble(-1000.0, 1000.0));

  const LeafKey &Key = Order[Index];
  for (double V : Candidates) {
    assignFloatLeaf(Key, V, M);
    bool Ok = true;
    for (const auto &[Lit, Deps] : LiteralDeps) {
      if (Deps.second.empty())
        continue;
      bool AllAssigned = true;
      for (const LeafKey &D : Deps.second)
        if (!AssignedFloat.count(D)) {
          AllAssigned = false;
          break;
        }
      for (const LeafKey &D : Deps.first)
        if (!AssignedInt.count(D)) {
          AllAssigned = false;
          break;
        }
      if (AllAssigned && !checkLiteral(Lit, M)) {
        Ok = false;
        break;
      }
    }
    if (Ok && searchFloat(Index + 1, M, Order))
      return true;
    AssignedFloat.erase(Key);
  }
  return false;
}

bool CaseSolver::finalCheck(const Model &M) {
  for (const auto &[Lit, Deps] : LiteralDeps)
    if (!checkLiteral(Lit, M))
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
      IntLeaves[LeafKey{int(IntTerm::Kind::ValueOf), findRep(A->Obj), 0, 0}];
      IntLeaves[LeafKey{int(IntTerm::Kind::ValueOf), findRep(A->ObjRhs), 0,
                        0}];
    }
  }

  // Representatives of every variable seen.
  std::vector<const ObjTerm *> Reps;
  for (const ObjTerm *V : Vars) {
    const ObjTerm *R = findRep(V);
    if (std::find(Reps.begin(), Reps.end(), R) == Reps.end())
      Reps.push_back(R);
  }

  // Literal dependency sets.
  for (const Literal &L : Literals) {
    std::set<LeafKey> IntDeps;
    std::set<LeafKey> FloatDeps;
    const BoolTerm *A = L.Atom;
    leafDepsOfInt(A->ILhs, IntDeps, FloatDeps);
    leafDepsOfInt(A->IRhs, IntDeps, FloatDeps);
    leafDepsOfFloat(A->FLhs, IntDeps, FloatDeps);
    leafDepsOfFloat(A->FRhs, IntDeps, FloatDeps);
    if (A->TermKind == BoolTerm::Kind::ObjEq) {
      // Identity of two small integers depends on their payloads; model
      // this conservatively by depending on both ValueOf leaves if known.
      for (const ObjTerm *Side : {A->Obj, A->ObjRhs})
        if (Side->isVar())
          for (const auto &[Key, Terms] : IntLeaves)
            if (Key.Rep == findRep(Side) &&
                Key.Kind == int(IntTerm::Kind::ValueOf))
              IntDeps.insert(Key);
    }
    LiteralDeps.emplace_back(L, std::make_pair(IntDeps, FloatDeps));
  }

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
      Stats.CapHits++;
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
  AssignedInt.clear();
  AssignedFloat.clear();

  // Initial leaf intervals.
  std::map<LeafKey, Interval> LeafIv;
  std::int64_t Clamp =
      Opts.IntegerBits >= 63
          ? SatMax
          : (std::int64_t(1) << (Opts.IntegerBits - 1)) - 1;
  for (const auto &[Key, Terms] : IntLeaves) {
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
    LeafIv[Key] = Iv;
  }

  bool Emptied = false;
  propagate(LeafIv, Emptied);
  if (Emptied)
    return PrecisionClamped ? CaseStatus::Unknown : CaseStatus::ProvenUnsat;

  // Fix ClassIndexOf leaves immediately (they are not searched).
  for (const auto &[Key, Terms] : IntLeaves)
    if (Key.Kind == int(IntTerm::Kind::ClassIndexOf)) {
      auto It = ClassAssignment.find(Key.Rep);
      if (It != ClassAssignment.end())
        assignIntLeaf(Key, It->second, M);
    }

  // Search order: narrow intervals first.
  std::vector<std::pair<LeafKey, Interval>> Order;
  for (const auto &[Key, Iv] : LeafIv)
    if (Key.Kind != int(IntTerm::Kind::ClassIndexOf))
      Order.emplace_back(Key, Iv);
  std::sort(Order.begin(), Order.end(), [](const auto &A, const auto &B) {
    __int128 WA = (__int128)A.second.Hi - A.second.Lo;
    __int128 WB = (__int128)B.second.Hi - B.second.Lo;
    return WA < WB;
  });
  FinalLeafIv = LeafIv;

  FloatOrder.clear();
  for (const auto &[Key, Terms] : FloatLeaves)
    FloatOrder.push_back(Key);

  unsigned StartNodes = Nodes;
  bool SatFound = searchInt(0, M, Order);
  // A node-cap trip prunes subtrees, so even a Sat answer may differ
  // from the un-capped search's Sat — count the trip on every outcome
  // (the scheduler's cheap-tier acceptance requires that no cap was
  // felt anywhere, not merely that the final status stayed definite).
  if (Nodes > Opts.MaxSearchNodes)
    Stats.CapHits++;
  if (SatFound)
    return CaseStatus::Sat;
  Stats.NodesExplored += Nodes - StartNodes;
  if (Nodes > Opts.MaxSearchNodes || BudgetStopped)
    return CaseStatus::Unknown;
  // Search exhausted its candidate pool without covering the whole space:
  // sampling incompleteness, not an unsat proof.
  bool HadSearchSpace = !Order.empty() || !FloatOrder.empty();
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
  CapHits += Other.CapHits;
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
  Registry.add("solver.cap_hits", Stats.CapHits);
}

SolverOptions igdt::solverTierCaps(const SolverOptions &Base,
                                   unsigned Distance) {
  SolverOptions Tier = Base;
  for (unsigned I = 0; I < Distance; ++I) {
    // 4x per rung, floored so a tier never degenerates to an empty
    // search. Only give-up thresholds move: everything that shapes the
    // below-cap trajectory (RandomSamples, IntegerBits, stack/slot
    // bounds, Seed) is untouched, so CapHits == 0 at any tier proves
    // the run identical to full strength.
    Tier.MaxCases = std::max(4u, Tier.MaxCases / 4);
    Tier.MaxClassCombos = std::max(8u, Tier.MaxClassCombos / 4);
    Tier.MaxSearchNodes = std::max(256u, Tier.MaxSearchNodes / 4);
  }
  return Tier;
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
    Stats.CapHits++;
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
