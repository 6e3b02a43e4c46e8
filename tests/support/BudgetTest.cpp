//===- tests/support/BudgetTest.cpp - Budget and HarnessFault tests -----------===//

#include "support/Budget.h"

#include <gtest/gtest.h>

using namespace igdt;

TEST(BudgetTest, UnlimitedBudgetNeverExpires) {
  Budget B;
  for (int I = 0; I < 100000; ++I)
    ASSERT_TRUE(B.charge());
  EXPECT_FALSE(B.expired());
  EXPECT_EQ(B.state(), BudgetState::Active);
  EXPECT_EQ(B.spentUnits(), 100000u);
}

TEST(BudgetTest, WorkUnitsExpireExactlyAtTheAllowance) {
  Budget B(10);
  for (int I = 0; I < 10; ++I)
    EXPECT_TRUE(B.charge()) << "charge " << I;
  EXPECT_FALSE(B.charge());
  EXPECT_EQ(B.state(), BudgetState::WorkExpired);
  EXPECT_TRUE(B.expired());
  // Further charges stay rejected but keep counting spend.
  EXPECT_FALSE(B.charge(5));
  EXPECT_EQ(B.spentUnits(), 16u);
}

TEST(BudgetTest, BulkChargeCanOvershootTheAllowance) {
  Budget B(10);
  EXPECT_FALSE(B.charge(100));
  EXPECT_EQ(B.state(), BudgetState::WorkExpired);
}

TEST(BudgetTest, DescribeReportsStateAndUnits) {
  Budget B(3);
  B.charge(4);
  // Work only: the description is the same on every run and machine.
  EXPECT_EQ(B.describe(), "state=work-expired units=4/3");

  Budget Unlimited;
  EXPECT_EQ(Unlimited.describe(), "state=active units=0/unlimited");
}

TEST(BudgetTest, HarnessFaultCarriesStageAndMessage) {
  HarnessFault F("solve", "injected solver hang");
  EXPECT_EQ(F.stage(), "solve");
  EXPECT_STREQ(F.what(), "injected solver hang");
  // HarnessFault must be catchable as std::runtime_error so generic
  // containment code does not need to know about it.
  try {
    throw HarnessFault("compile", "boom");
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "boom");
  }
}
