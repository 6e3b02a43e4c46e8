//===- tests/solver/SolverTest.cpp --------------------------------------------===//
//
// The constraint solver: class assignment, interval narrowing, overflow
// cases, disjunction splitting, identity, and the precision knob.
//
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "solver/TermEval.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

class SolverTest : public ::testing::Test {
protected:
  SolverTest() : Solver(Classes) {}

  const ObjTerm *stackVar(int I) { return B.objVar(VarRole::StackSlot, I); }

  /// Checks the model satisfies every conjunct.
  void expectModelSatisfies(const Model &M,
                            const std::vector<const BoolTerm *> &Conjuncts) {
    TermEvaluator Eval(M, Classes);
    for (const BoolTerm *C : Conjuncts) {
      auto V = Eval.evalBool(C);
      ASSERT_TRUE(V.has_value());
      EXPECT_TRUE(*V);
    }
  }

  ClassTable Classes;
  TermBuilder B;
  ConstraintSolver Solver;
};

TEST_F(SolverTest, EmptyConjunctionIsSat) {
  SolveResult R = Solver.solve({});
  EXPECT_EQ(R.Status, SolveStatus::Sat);
}

TEST_F(SolverTest, SimpleTypeConstraint) {
  const ObjTerm *S0 = stackVar(0);
  std::vector<const BoolTerm *> C = {B.isClass(S0, SmallIntegerClass)};
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(R.M.objectOrDefault(S0).ClassIndex, SmallIntegerClass);
}

TEST_F(SolverTest, NegatedTypeConstraintPicksNonInteger) {
  const ObjTerm *S0 = stackVar(0);
  std::vector<const BoolTerm *> C = {
      B.notB(B.isClass(S0, SmallIntegerClass))};
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_NE(R.M.objectOrDefault(S0).ClassIndex, SmallIntegerClass);
}

TEST_F(SolverTest, ValueBoundsConstraint) {
  const ObjTerm *S0 = stackVar(0);
  const IntTerm *V = B.valueOf(S0);
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Lt, B.intConst(100), V),
      B.icmp(CmpPred::Lt, V, B.intConst(103)),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::int64_t Value = R.M.objectOrDefault(S0).IntValue;
  EXPECT_GT(Value, 100);
  EXPECT_LT(Value, 103);
  expectModelSatisfies(R.M, C);
}

TEST_F(SolverTest, ContradictionIsProvenUnsat) {
  const ObjTerm *S0 = stackVar(0);
  const IntTerm *V = B.valueOf(S0);
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Lt, V, B.intConst(0)),
      B.icmp(CmpPred::Lt, B.intConst(0), V),
  };
  EXPECT_EQ(Solver.solve(C).Status, SolveStatus::Unsat);
}

TEST_F(SolverTest, ClassConflictIsProvenUnsat) {
  const ObjTerm *S0 = stackVar(0);
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, SmallIntegerClass),
      B.isClass(S0, BoxedFloatClass),
  };
  EXPECT_EQ(Solver.solve(C).Status, SolveStatus::Unsat);
}

TEST_F(SolverTest, AdditionOverflowCase) {
  // The canonical Table 1 query: two SmallIntegers whose sum overflows.
  const ObjTerm *S0 = stackVar(0);
  const ObjTerm *S1 = stackVar(1);
  const IntTerm *Sum = B.binInt(IntTerm::Kind::Add, B.valueOf(S1),
                                B.valueOf(S0));
  const BoolTerm *InRange =
      B.andB(B.icmp(CmpPred::Le, B.intConst(MinSmallInt), Sum),
             B.icmp(CmpPred::Le, Sum, B.intConst(MaxSmallInt)));
  std::vector<const BoolTerm *> C = {
      B.isClass(S1, SmallIntegerClass),
      B.isClass(S0, SmallIntegerClass),
      B.notB(InRange), // overflow: disjunction after NNF
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  __int128 Sum128 = (__int128)R.M.objectOrDefault(S1).IntValue +
                    R.M.objectOrDefault(S0).IntValue;
  EXPECT_TRUE(Sum128 > MaxSmallInt || Sum128 < MinSmallInt);
}

TEST_F(SolverTest, AdditionOverflowUnreachableWith56Bits) {
  // Reproduces the paper's solver-precision limitation (§4.3): with
  // 56-bit integers the overflow boundary is out of reach, so the path
  // becomes Unknown (curated out) instead of Sat.
  SolverOptions Opts;
  Opts.IntegerBits = 56;
  ConstraintSolver Small(Classes, Opts);
  const ObjTerm *S0 = stackVar(0);
  const ObjTerm *S1 = stackVar(1);
  const IntTerm *Sum =
      B.binInt(IntTerm::Kind::Add, B.valueOf(S1), B.valueOf(S0));
  std::vector<const BoolTerm *> C = {
      B.isClass(S1, SmallIntegerClass),
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Lt, B.intConst(MaxSmallInt), Sum),
  };
  EXPECT_NE(Small.solve(C).Status, SolveStatus::Sat);
  // The full-precision solver handles it.
  EXPECT_EQ(Solver.solve(C).Status, SolveStatus::Sat);
}

TEST_F(SolverTest, EqualityNarrowsToPoint) {
  const ObjTerm *S0 = stackVar(0);
  const IntTerm *V = B.valueOf(S0);
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Eq, V, B.intConst(12345)),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(R.M.objectOrDefault(S0).IntValue, 12345);
}

TEST_F(SolverTest, StackSizeRespectsBounds) {
  const IntTerm *Size = B.stackSize();
  std::vector<const BoolTerm *> C = {
      B.icmp(CmpPred::Le, B.intConst(2), Size)};
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::int64_t N = R.M.intLeafOrDefault(Size);
  EXPECT_GE(N, 2);
  EXPECT_LE(N, Solver.options().MaxStackSize);
}

TEST_F(SolverTest, StackSizeBeyondBoundUnsolvable) {
  const IntTerm *Size = B.stackSize();
  std::vector<const BoolTerm *> C = {
      B.icmp(CmpPred::Le, B.intConst(100), Size)};
  EXPECT_NE(Solver.solve(C).Status, SolveStatus::Sat);
}

TEST_F(SolverTest, FormatConstraintSelectsArray) {
  const ObjTerm *S0 = stackVar(0);
  std::vector<const BoolTerm *> C = {
      B.hasFormat(S0, formatBit(ObjectFormat::IndexablePointers)),
      B.icmp(CmpPred::Le, B.intConst(3), B.slotCount(S0)),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  ObjAssignment A = R.M.objectOrDefault(S0);
  EXPECT_EQ(Classes.classAt(A.ClassIndex).Format,
            ObjectFormat::IndexablePointers);
  EXPECT_GE(A.SlotCount, 3);
}

TEST_F(SolverTest, PointerObjectWithSlots) {
  const ObjTerm *Rcvr = B.objVar(VarRole::Receiver, 0);
  std::vector<const BoolTerm *> C = {
      B.notB(B.isClass(Rcvr, SmallIntegerClass)),
      B.hasFormat(Rcvr, formatBit(ObjectFormat::Pointers) |
                            formatBit(ObjectFormat::IndexablePointers)),
      B.icmp(CmpPred::Lt, B.intConst(5), B.slotCount(Rcvr)),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_GT(R.M.objectOrDefault(Rcvr).SlotCount, 5);
  expectModelSatisfies(R.M, C);
}

TEST_F(SolverTest, FloatComparisonAgainstConstant) {
  const ObjTerm *S0 = stackVar(0);
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, BoxedFloatClass),
      B.fcmp(CmpPred::Lt, B.floatConst(0.0), B.floatValueOf(S0)),
      B.fcmp(CmpPred::Lt, B.floatValueOf(S0), B.floatConst(1.0)),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  double V = R.M.objectOrDefault(S0).FloatValue;
  EXPECT_GT(V, 0.0);
  EXPECT_LT(V, 1.0);
}

TEST_F(SolverTest, FloatEqualityAgainstConstant) {
  const ObjTerm *S0 = stackVar(0);
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, BoxedFloatClass),
      B.fcmp(CmpPred::Eq, B.floatValueOf(S0), B.floatConst(0.0)),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(R.M.objectOrDefault(S0).FloatValue, 0.0);
}

TEST_F(SolverTest, IdentityUnifiesVariables) {
  const ObjTerm *S0 = stackVar(0);
  const ObjTerm *S1 = stackVar(1);
  const IntTerm *V0 = B.valueOf(S0);
  std::vector<const BoolTerm *> C = {
      B.objEq(S0, S1),
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Eq, V0, B.intConst(7)),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(R.M.repOf(S0), R.M.repOf(S1));
  EXPECT_EQ(R.M.objectOrDefault(S1).IntValue, 7);
}

TEST_F(SolverTest, NegatedIdentityKeepsDistinct) {
  const ObjTerm *S0 = stackVar(0);
  const ObjTerm *S1 = stackVar(1);
  std::vector<const BoolTerm *> C = {
      B.notB(B.objEq(S0, S1)),
      B.isClass(S0, SmallIntegerClass),
      B.isClass(S1, SmallIntegerClass),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_NE(R.M.objectOrDefault(S0).IntValue,
            R.M.objectOrDefault(S1).IntValue);
}

TEST_F(SolverTest, ByteLeafRange) {
  const ObjTerm *Rcvr = B.objVar(VarRole::Receiver, 0);
  const IntTerm *Byte = B.byteAt(Rcvr, 0);
  std::vector<const BoolTerm *> C = {
      B.hasFormat(Rcvr, formatBit(ObjectFormat::IndexableBytes)),
      B.icmp(CmpPred::Lt, B.intConst(200), Byte),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::int64_t V = R.M.intLeafOrDefault(Byte);
  EXPECT_GT(V, 200);
  EXPECT_LE(V, 255);
}

TEST_F(SolverTest, IntFormatIsFindsClassOfRightFormat) {
  const ObjTerm *Rcvr = B.objVar(VarRole::Receiver, 0);
  const IntTerm *V = B.valueOf(Rcvr);
  std::vector<const BoolTerm *> C = {
      B.isClass(Rcvr, SmallIntegerClass),
      B.icmp(CmpPred::Le, B.intConst(1), V),
      B.icmp(CmpPred::Lt, V, B.intConst(Classes.size())),
      B.intFormatIs(V, formatBit(ObjectFormat::IndexablePointers)),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::int64_t ClassIdx = R.M.objectOrDefault(Rcvr).IntValue;
  EXPECT_EQ(Classes.classAt(std::uint32_t(ClassIdx)).Format,
            ObjectFormat::IndexablePointers);
}

TEST_F(SolverTest, MultiplicationBySampling) {
  const ObjTerm *S0 = stackVar(0);
  const ObjTerm *S1 = stackVar(1);
  const IntTerm *Prod =
      B.binInt(IntTerm::Kind::Mul, B.valueOf(S1), B.valueOf(S0));
  std::vector<const BoolTerm *> C = {
      B.isClass(S1, SmallIntegerClass),
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Lt, B.intConst(MaxSmallInt), Prod),
  };
  SolveResult R = Solver.solve(C);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  __int128 P = (__int128)R.M.objectOrDefault(S1).IntValue *
               R.M.objectOrDefault(S0).IntValue;
  EXPECT_GT(P, (__int128)MaxSmallInt);
}

TEST_F(SolverTest, StatsAreTracked) {
  const ObjTerm *S0 = stackVar(0);
  Solver.solve({B.isClass(S0, SmallIntegerClass)});
  EXPECT_GE(Solver.stats().Queries, 1u);
  EXPECT_GE(Solver.stats().SatCount, 1u);
}

/// Bit-equality of two satisfying assignments (same arena, so keys are
/// comparable pointers).
void expectModelsEqual(const Model &A, const Model &B) {
  ASSERT_EQ(A.Objects.size(), B.Objects.size());
  for (const auto &[Var, Assign] : A.Objects) {
    auto It = B.Objects.find(Var);
    ASSERT_NE(It, B.Objects.end());
    EXPECT_EQ(Assign.ClassIndex, It->second.ClassIndex);
    EXPECT_EQ(Assign.IntValue, It->second.IntValue);
    EXPECT_EQ(Assign.FloatValue, It->second.FloatValue);
    EXPECT_EQ(Assign.SlotCount, It->second.SlotCount);
  }
  EXPECT_EQ(A.Reps, B.Reps);
  EXPECT_EQ(A.IntLeaves, B.IntLeaves);
  EXPECT_EQ(A.FloatLeaves, B.FloatLeaves);
}

TEST_F(SolverTest, CaseRngIsSeededByCaseContentNotQueryShape) {
  // A constraint whose satisfying value can only come from the random
  // samples: every deterministic candidate (interval bounds, 0/1/2/-1,
  // midpoint) of [8, 10^6] is even, but the query wants an odd value.
  const ObjTerm *S0 = stackVar(0);
  const IntTerm *V = B.valueOf(S0);
  const BoolTerm *Odd =
      B.icmp(CmpPred::Eq, B.binInt(IntTerm::Kind::ModFloor, V, B.intConst(2)),
             B.intConst(1));
  std::vector<const BoolTerm *> Direct = {
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Lt, B.intConst(7), V),
      B.icmp(CmpPred::Lt, V, B.intConst(1000001)),
      Odd,
  };
  SolveResult R1 = Solver.solve(Direct);
  ASSERT_EQ(R1.Status, SolveStatus::Sat);
  std::int64_t Picked = R1.M.objectOrDefault(S0).IntValue;
  EXPECT_EQ(Picked % 2, 1);
  EXPECT_GT(Picked, 7);

  // The same case posed by a *different query*: the last conjunct is a
  // disjunction whose first case expands to exactly the literals above.
  // The case RNG is seeded from the case's own literal hashes — not
  // from the query signature — so the sample sequence, and therefore
  // the returned model, is bit-identical. (The historical per-query
  // seeding made these two queries sample different values.)
  std::vector<const BoolTerm *> ViaDisjunction = Direct;
  ViaDisjunction[3] =
      B.orB(Odd, B.icmp(CmpPred::Lt, B.intConst(1), B.intConst(0)));
  SolveResult R2 = Solver.solve(ViaDisjunction);
  ASSERT_EQ(R2.Status, SolveStatus::Sat);
  expectModelsEqual(R1.M, R2.M);
}

TEST_F(SolverTest, RepeatedQueriesAreSolvedAfresh) {
  // solve() is the only way a query is answered and keeps no memo or
  // prefix expansion between calls: posing the same query twice runs
  // the same search twice and returns the same model.
  const ObjTerm *S0 = stackVar(0);
  const IntTerm *V = B.valueOf(S0);
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Lt, B.intConst(7), V),
      B.icmp(CmpPred::Eq, B.binInt(IntTerm::Kind::ModFloor, V, B.intConst(2)),
             B.intConst(1)),
  };
  SolveResult First = Solver.solve(C);
  ASSERT_EQ(First.Status, SolveStatus::Sat);
  SolverStats After1 = Solver.stats();

  SolveResult Second = Solver.solve(C);
  ASSERT_EQ(Second.Status, SolveStatus::Sat);
  expectModelsEqual(First.M, Second.M);
  const SolverStats &After2 = Solver.stats();
  EXPECT_EQ(After2.FullSolves, 2u);
  EXPECT_EQ(After2.PrefixReuseSolves, 0u);
  EXPECT_EQ(After2.CasesExplored, 2 * After1.CasesExplored);
  EXPECT_EQ(After2.NodesExplored, 2 * After1.NodesExplored);
}

TEST_F(SolverTest, SlotCountHonoursFixedClasses) {
  const ObjTerm *Rcvr = B.objVar(VarRole::Receiver, 0);
  std::vector<const BoolTerm *> C = {
      B.isClass(Rcvr, PointClass),
      B.icmp(CmpPred::Eq, B.slotCount(Rcvr), B.intConst(2)),
  };
  EXPECT_EQ(Solver.solve(C).Status, SolveStatus::Sat);
  // Point has exactly two slots; asking for three is unsatisfiable.
  std::vector<const BoolTerm *> C2 = {
      B.isClass(Rcvr, PointClass),
      B.icmp(CmpPred::Eq, B.slotCount(Rcvr), B.intConst(3)),
  };
  EXPECT_NE(Solver.solve(C2).Status, SolveStatus::Sat);
}

/// Status, model payloads and work counters of one query, for pinning
/// the numeric search's trajectory: a change to when a literal is
/// checked that prunes differently moves NodesExplored even when the
/// answer stays the same.
struct Trajectory {
  SolveStatus Status;
  std::uint64_t Nodes;
  std::uint64_t Cases;
};

Trajectory solveFresh(const ClassTable &Classes,
                      const std::vector<const BoolTerm *> &C, Model &Out) {
  ConstraintSolver S(Classes);
  SolveResult R = S.solve(C);
  Out = R.M;
  return {R.Status, S.stats().NodesExplored, S.stats().CasesExplored};
}

TEST_F(SolverTest, ScheduleChecksATwoLeafLiteralAtItsLaterOrderedLeaf) {
  // V0 < SS names the value first, but the width sort searches the
  // stack size ([0, 12]) before the value ([-99, 11]): the literal can
  // only be decided once V0, the later-ordered leaf, is assigned. The
  // first case (V0 * SS = 131, a prime above both bounds) survives
  // interval propagation but no candidate pair meets it, so it exhausts
  // its search; the second is satisfiable.
  const ObjTerm *S0 = stackVar(0);
  const IntTerm *V0 = B.valueOf(S0);
  const IntTerm *SS = B.stackSize();
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Lt, V0, SS),
      B.icmp(CmpPred::Lt, B.intConst(-100), V0),
      B.orB(B.icmp(CmpPred::Eq, B.binInt(IntTerm::Kind::Mul, V0, SS),
                   B.intConst(131)),
            B.icmp(CmpPred::Eq, B.binInt(IntTerm::Kind::Add, V0, SS),
                   B.intConst(9))),
  };
  Model M;
  Trajectory T = solveFresh(Classes, C, M);
  EXPECT_EQ(T.Status, SolveStatus::Sat);
  EXPECT_EQ(T.Nodes, 10u);
  EXPECT_EQ(T.Cases, 2u);
  EXPECT_EQ(M.objectOrDefault(S0).IntValue, -3);
  EXPECT_EQ(M.intLeafOrDefault(SS, -7), 12);
}

TEST_F(SolverTest, ScheduleChecksAnIntFedFloatLiteralWithTheIntLeaf) {
  // OfInt(ValueOf S0) < 2.5 reads no float leaf: it is decided as soon
  // as the payload is assigned, so only V0 in {1, 2} reaches the float
  // search. F1 < OfInt(V0) reads both sorts and is decided in the float
  // search. The first case asks F1 to be 1.75 and above 1.8, which no
  // float candidate meets; the second only asks for 1.75.
  const ObjTerm *S0 = stackVar(0);
  const ObjTerm *S1 = stackVar(1);
  const IntTerm *V0 = B.valueOf(S0);
  const FloatTerm *AsFloat = B.ofInt(V0);
  const FloatTerm *F1 = B.floatValueOf(S1);
  const BoolTerm *Is175 = B.fcmp(CmpPred::Eq, F1, B.floatConst(1.75));
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, SmallIntegerClass),
      B.isClass(S1, BoxedFloatClass),
      B.icmp(CmpPred::Lt, B.intConst(0), V0),
      B.icmp(CmpPred::Lt, V0, B.intConst(50)),
      B.fcmp(CmpPred::Lt, AsFloat, B.floatConst(2.5)),
      B.fcmp(CmpPred::Lt, F1, AsFloat),
      B.orB(B.andB(Is175, B.fcmp(CmpPred::Lt, B.floatConst(1.8), F1)), Is175),
  };
  Model M;
  Trajectory T = solveFresh(Classes, C, M);
  EXPECT_EQ(T.Status, SolveStatus::Sat);
  EXPECT_EQ(T.Nodes, 5u);
  EXPECT_EQ(T.Cases, 2u);
  EXPECT_EQ(M.objectOrDefault(S0).IntValue, 2);
  EXPECT_EQ(M.objectOrDefault(S1).FloatValue, 1.75);
}

TEST_F(SolverTest, ScheduleChecksALeaflessLiteralAtTheBottom) {
  // IntFormatIs(ClassIndexOf R) has no searched leaf: the class
  // assignment alone decides it, after every integer leaf is fixed.
  // R's candidate classes run SmallInteger, PlainObject, Array,
  // BoxedFloat, ByteArray; only the last has byte format, so the first
  // four class combinations each walk V0's candidates to the bottom,
  // where the failed check must stop them before the float search over
  // S1 spends nodes.
  const ObjTerm *S0 = stackVar(0);
  const ObjTerm *S1 = stackVar(1);
  const ObjTerm *Rcvr = B.objVar(VarRole::Receiver, 0);
  const IntTerm *V0 = B.valueOf(S0);
  std::vector<const BoolTerm *> C = {
      B.isClass(S0, SmallIntegerClass),
      B.isClass(S1, BoxedFloatClass),
      B.icmp(CmpPred::Lt, B.intConst(0), V0),
      B.icmp(CmpPred::Lt, V0, B.intConst(1000)),
      B.fcmp(CmpPred::Lt, B.floatValueOf(S1), B.floatConst(-3.0)),
      B.intFormatIs(B.classIndexOf(Rcvr),
                    formatBit(ObjectFormat::IndexableBytes)),
  };
  Model M;
  Trajectory T = solveFresh(Classes, C, M);
  EXPECT_EQ(T.Status, SolveStatus::Sat);
  EXPECT_EQ(T.Nodes, 68u);
  EXPECT_EQ(T.Cases, 5u);
  EXPECT_EQ(M.objectOrDefault(S0).IntValue, 1);
  EXPECT_EQ(M.objectOrDefault(S1).FloatValue, -100.25);
  EXPECT_EQ(M.objectOrDefault(Rcvr).ClassIndex, ByteArrayClass);
}

TEST_F(SolverTest, ScheduleChecksANegatedIdentityOnItsSyntheticLeaves) {
  // No literal mentions a payload, so the payloads S0 and S1 must keep
  // distinct are synthetic ValueOf leaves: the negated identity is
  // decided when the later of the two is assigned. The byte-format
  // demand on R again fails four class combinations at the bottom.
  const ObjTerm *S0 = stackVar(0);
  const ObjTerm *S1 = stackVar(1);
  const ObjTerm *Rcvr = B.objVar(VarRole::Receiver, 0);
  std::vector<const BoolTerm *> C = {
      B.notB(B.objEq(S0, S1)),
      B.isClass(S0, SmallIntegerClass),
      B.isClass(S1, SmallIntegerClass),
      B.intFormatIs(B.classIndexOf(Rcvr),
                    formatBit(ObjectFormat::IndexableBytes)),
  };
  Model M;
  Trajectory T = solveFresh(Classes, C, M);
  EXPECT_EQ(T.Status, SolveStatus::Sat);
  EXPECT_EQ(T.Nodes, 1348u);
  EXPECT_EQ(T.Cases, 5u);
  EXPECT_EQ(M.objectOrDefault(S0).IntValue, MinSmallInt);
  EXPECT_EQ(M.objectOrDefault(S1).IntValue, MaxSmallInt);
  EXPECT_EQ(M.objectOrDefault(Rcvr).ClassIndex, ByteArrayClass);
}

} // namespace
