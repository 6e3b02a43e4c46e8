//===- tests/symbolic/PathRecorderTest.cpp ------------------------------------===//
//
// The path signature the explorer deduplicates paths by: it tells apart
// every pair of distinct recorded paths, including those whose rendered
// conditions read the same.
//
//===----------------------------------------------------------------------===//

#include "symbolic/PathRecorder.h"

#include "solver/TermPrinter.h"
#include "vm/ObjectFormat.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

/// Signature of a one-entry path that took \p Condition.
PathSignature signatureOf(const BoolTerm *Condition) {
  PathRecorder Rec;
  Rec.record(Condition, /*Taken=*/true);
  return Rec.signature();
}

TEST(PathRecorderTest, FloatConstantsBeyondSixDigitsGetDistinctSignatures) {
  TermBuilder B;
  const FloatTerm *X = B.floatValueOf(B.objVar(VarRole::StackSlot, 0));
  const BoolTerm *Near = B.fcmp(CmpPred::Lt, X, B.floatConst(0.1));
  const BoolTerm *Far = B.fcmp(CmpPred::Lt, X, B.floatConst(0.1 + 1e-9));
  // Rendered text cannot be the key: both print alike.
  EXPECT_EQ(printBoolTerm(Near), printBoolTerm(Far));
  EXPECT_NE(signatureOf(Near), signatureOf(Far));
}

TEST(PathRecorderTest, AllocationsOfAnotherSizeGetDistinctSignatures) {
  TermBuilder B;
  const ObjTerm *S0 = B.objVar(VarRole::StackSlot, 0);
  const BoolTerm *Two =
      B.objEq(B.newObj(1, ArrayClass, B.intConst(2)), S0);
  const BoolTerm *Three =
      B.objEq(B.newObj(1, ArrayClass, B.intConst(3)), S0);
  EXPECT_EQ(printBoolTerm(Two), printBoolTerm(Three));
  EXPECT_NE(signatureOf(Two), signatureOf(Three));
}

TEST(PathRecorderTest, SignatureKeepsEachOutcome) {
  TermBuilder B;
  const BoolTerm *IsInt =
      B.isClass(B.objVar(VarRole::StackSlot, 0), SmallIntegerClass);
  PathRecorder Taken;
  Taken.record(IsInt, true);
  PathRecorder NotTaken;
  NotTaken.record(IsInt, false);
  EXPECT_NE(Taken.signature(), NotTaken.signature());
  EXPECT_EQ(Taken.signature(), signatureOf(IsInt));
}

} // namespace
