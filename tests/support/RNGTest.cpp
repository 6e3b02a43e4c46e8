//===- tests/support/RNGTest.cpp --------------------------------------------===//

#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace igdt;

TEST(RNGTest, DeterministicForSameSeed) {
  RNG A(42);
  RNG B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNGTest, DifferentSeedsDiffer) {
  RNG A(1);
  RNG B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 5);
}

TEST(RNGTest, RangeIsInclusive) {
  RNG R(7);
  bool SawLo = false;
  bool SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    std::int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RNGTest, SingletonRange) {
  RNG R(9);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(R.nextInRange(5, 5), 5);
}

TEST(RNGTest, FullRangeDoesNotCrash) {
  RNG R(11);
  for (int I = 0; I < 10; ++I)
    (void)R.nextInRange(INT64_MIN, INT64_MAX);
}

TEST(RNGTest, AsymmetricWideRangeStaysInBounds) {
  // Span and offset both exceed INT64_MAX here, so neither may be
  // computed in signed arithmetic.
  const std::int64_t Lo = INT64_MIN / 2;
  const std::int64_t Hi = INT64_MAX;
  RNG R(17);
  for (int I = 0; I < 1000; ++I) {
    std::int64_t V = R.nextInRange(Lo, Hi);
    EXPECT_GE(V, Lo);
    EXPECT_LE(V, Hi);
  }
}

TEST(RNGTest, DoubleWithinBounds) {
  RNG R(13);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble(-1.5, 2.5);
    EXPECT_GE(V, -1.5);
    EXPECT_LT(V, 2.5);
  }
}
