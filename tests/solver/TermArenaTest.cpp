//===- tests/solver/TermArenaTest.cpp ------------------------------------------===//
//
// The hash-consed term arena: structural equality is pointer identity
// for every node kind (not just leaves), interning is idempotent (the
// table does not grow when a term is re-built), each node carries a
// precomputed structural hash that agrees across independent arenas,
// and the builder-level rewrites (double-negation collapse) compose
// with consing.
//
//===----------------------------------------------------------------------===//

#include "solver/Term.h"

#include "solver/SolverCache.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

/// A compound term exercising every sort: the add-style guard
/// "s0 is class 1 and value(s0) + 7 < value(s1) and float(s0) < 2.5".
const BoolTerm *buildGuard(TermBuilder &B) {
  const ObjTerm *S0 = B.objVar(VarRole::StackSlot, 0);
  const ObjTerm *S1 = B.objVar(VarRole::StackSlot, 1);
  const IntTerm *Sum =
      B.binInt(IntTerm::Kind::Add, B.valueOf(S0), B.intConst(7));
  const BoolTerm *IntSide =
      B.andB(B.isClass(S0, 1), B.icmp(CmpPred::Lt, Sum, B.valueOf(S1)));
  const BoolTerm *FloatSide =
      B.fcmp(CmpPred::Lt, B.floatValueOf(S0), B.floatConst(2.5));
  return B.andB(IntSide, FloatSide);
}

TEST(TermArenaTest, StructurallyEqualTermsAreTheSamePointer) {
  TermBuilder B;
  // Interior nodes of every sort cons to one node, so pointer equality
  // is term identity across the whole vocabulary.
  EXPECT_EQ(buildGuard(B), buildGuard(B));

  const ObjTerm *S0 = B.objVar(VarRole::StackSlot, 0);
  EXPECT_EQ(B.valueOf(S0), B.valueOf(S0));
  EXPECT_EQ(B.intObj(B.intConst(3)), B.intObj(B.intConst(3)));
  EXPECT_EQ(B.floatObj(B.floatConst(1.5)), B.floatObj(B.floatConst(1.5)));
  EXPECT_EQ(B.orB(B.boolConst(true), B.isClass(S0, 2)),
            B.orB(B.boolConst(true), B.isClass(S0, 2)));
  EXPECT_EQ(B.objEq(S0, B.objVar(VarRole::Receiver, 0)),
            B.objEq(S0, B.objVar(VarRole::Receiver, 0)));

  // Distinct structure stays distinct.
  EXPECT_NE(B.intConst(7), B.intConst(8));
  EXPECT_NE(B.icmp(CmpPred::Lt, B.intConst(1), B.intConst(2)),
            B.icmp(CmpPred::Le, B.intConst(1), B.intConst(2)));
}

TEST(TermArenaTest, ReinterningDoesNotGrowTheArena) {
  TermBuilder B;
  buildGuard(B);
  std::size_t Nodes = B.internedNodes();
  ASSERT_GT(Nodes, 0u);

  // Re-building the identical structure allocates nothing new.
  buildGuard(B);
  EXPECT_EQ(B.internedNodes(), Nodes);

  // A genuinely new node grows the count.
  B.intConst(123456);
  EXPECT_EQ(B.internedNodes(), Nodes + 1);
}

TEST(TermArenaTest, PrecomputedHashesAgreeAcrossArenas) {
  // Two independent arenas allocate the "same" guard at different
  // addresses; the precomputed structural hashes must agree bit for
  // bit — they are the solver cache's key material.
  TermBuilder B1;
  TermBuilder B2;
  const BoolTerm *G1 = buildGuard(B1);
  const BoolTerm *G2 = buildGuard(B2);
  EXPECT_NE(G1, G2) << "different arenas, different storage";
  EXPECT_EQ(G1->Hash, G2->Hash);
  EXPECT_EQ(B1.objVar(VarRole::StackSlot, 0)->Hash,
            B2.objVar(VarRole::StackSlot, 0)->Hash);
  EXPECT_EQ(B1.valueOf(B1.objVar(VarRole::StackSlot, 0))->Hash,
            B2.valueOf(B2.objVar(VarRole::StackSlot, 0))->Hash);
  EXPECT_EQ(B1.floatConst(2.5)->Hash, B2.floatConst(2.5)->Hash);
}

TEST(TermArenaTest, HashesDistinguishStructure) {
  TermBuilder B;
  const ObjTerm *S0 = B.objVar(VarRole::StackSlot, 0);
  EXPECT_NE(B.intConst(7)->Hash, B.intConst(8)->Hash);
  EXPECT_NE(B.valueOf(S0)->Hash, B.uncheckedValueOf(S0)->Hash);
  const BoolTerm *Cmp = B.icmp(CmpPred::Lt, B.valueOf(S0), B.intConst(7));
  EXPECT_NE(Cmp->Hash, B.notB(Cmp)->Hash);
  EXPECT_NE(B.andB(Cmp, B.boolConst(true))->Hash,
            B.orB(Cmp, B.boolConst(true))->Hash);
}

TEST(TermArenaTest, DoubleNegationCollapsesToTheOriginalPointer) {
  TermBuilder B;
  const BoolTerm *Cond = B.isClass(B.objVar(VarRole::StackSlot, 0), 1);
  const BoolTerm *Neg = B.notB(Cond);
  ASSERT_NE(Neg, Cond);
  // Generational re-negation lands back on the consed original, so the
  // solver sees the same pointer — and the same hash — both times.
  EXPECT_EQ(B.notB(Neg), Cond);
  EXPECT_EQ(B.notB(Cond), Neg);
}

} // namespace
