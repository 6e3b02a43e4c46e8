//===- tests/concolic/BudgetExhaustionTest.cpp ---------------------------------===//
//
// Exploration under exhausted budgets: a partial result must still be a
// valid result — retained paths verified and replayable, unanswered
// negations counted, budget state reported — and the degradation
// ladder must retry Unknown negations with cheaper solver rungs.
//
//===----------------------------------------------------------------------===//

#include "concolic/ConcolicExplorer.h"
#include "differential/DifferentialTester.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

class BudgetExhaustionTest : public ::testing::Test {
protected:
  ExplorationResult explore(const std::string &Name,
                            const ExplorerOptions &Opts) {
    const InstructionSpec *Spec = findInstruction(Name);
    EXPECT_NE(Spec, nullptr) << Name;
    ConcolicExplorer Explorer(Config, Opts);
    return Explorer.explore(*Spec);
  }

  VMConfig Config;
};

TEST_F(BudgetExhaustionTest, TinyWorkBudgetYieldsPartialResult) {
  ExplorerOptions Opts;
  // A handful of work units: enough for the first concrete execution,
  // nowhere near enough for the frontier (a full exploration of the
  // add byte-code spends ~21 units: one per execution plus one per
  // solver search node).
  Opts.InstructionBudget.WorkUnits = 10;
  Opts.LadderRungs = 0;
  ExplorationResult R = explore("bytecodePrim_add", Opts);

  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_EQ(R.FinalBudget, BudgetState::WorkExpired);
  // Partial, but non-empty: the first execution always lands a path.
  EXPECT_GE(R.Paths.size(), 1u);

  ExplorerOptions Full;
  ExplorationResult Complete = explore("bytecodePrim_add", Full);
  EXPECT_LT(R.Paths.size(), Complete.Paths.size());
}

TEST_F(BudgetExhaustionTest, UnansweredNegationsAreCountedAsUnknown) {
  ExplorerOptions Opts;
  Opts.InstructionBudget.WorkUnits = 10;
  Opts.LadderRungs = 0;
  ExplorationResult R = explore("bytecodePrim_add", Opts);

  // Once the budget expires, the remaining negations of the final
  // iteration come back Unknown and must be accounted for, together
  // with the solver-side budget stops.
  EXPECT_GT(R.UnknownNegations, 0u);
  EXPECT_GT(R.Solver.BudgetStops, 0u);
}

TEST_F(BudgetExhaustionTest, RetainedPathsOfAPartialResultStayReplayable) {
  ExplorerOptions Opts;
  Opts.InstructionBudget.WorkUnits = 12;
  ExplorationResult R = explore("bytecodePrim_add", Opts);
  ASSERT_GE(R.Paths.size(), 1u);

  DiffTestConfig Cfg;
  Cfg.Kind = CompilerKind::StackToRegister;
  DifferentialTester Tester(Cfg);
  for (std::size_t I = 0; I < R.Paths.size(); ++I) {
    PathTestOutcome O = Tester.testPath(R, I);
    // Every retained curated path must replay to a definite verdict;
    // nothing may crash or come back half-tested.
    if (R.Paths[I].Curated && R.Paths[I].Exit != ExitKind::InvalidFrame &&
        R.Paths[I].Exit != ExitKind::InvalidMemoryAccess) {
      EXPECT_TRUE(O.Status == PathTestStatus::Match ||
                  O.Status == PathTestStatus::Difference)
          << pathTestStatusName(O.Status) << ": " << O.Details;
    }
  }
}

TEST_F(BudgetExhaustionTest, ExpiredWallClockStopsExploration) {
  ExplorerOptions Opts;
  Opts.InstructionBudget.WallMillis = 0.0001; // expired essentially at once
  ExplorationResult R = explore("bytecodePrim_add", Opts);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_EQ(R.FinalBudget, BudgetState::WallExpired);
}

TEST_F(BudgetExhaustionTest, ExternalBudgetIsSharedAndReadableAfterwards) {
  Budget Shared(BudgetOptions{0, 10});
  ExplorerOptions Opts;
  Opts.ExternalBudget = &Shared;
  Opts.LadderRungs = 0;
  ExplorationResult R = explore("bytecodePrim_add", Opts);
  EXPECT_TRUE(R.BudgetExhausted);
  // The campaign layer reads the budget it handed in.
  EXPECT_EQ(Shared.state(), BudgetState::WorkExpired);
  EXPECT_GT(Shared.spentUnits(), 10u);
}

TEST_F(BudgetExhaustionTest, LadderRetriesUnknownNegationsWithCheaperRungs) {
  // Starve the primary solver so hard that negations go Unknown, then
  // let the ladder answer them with its (floored) cheaper rungs.
  ExplorerOptions Starved;
  Starved.Solver.MaxSearchNodes = 1;
  Starved.LadderRungs = 0;
  ExplorationResult NoLadder = explore("bytecodePrim_add", Starved);
  EXPECT_GT(NoLadder.UnknownNegations, 0u);
  EXPECT_EQ(NoLadder.LadderRetries, 0u);

  ExplorerOptions Laddered = Starved;
  Laddered.LadderRungs = 2;
  ExplorationResult R = explore("bytecodePrim_add", Laddered);
  EXPECT_GT(R.LadderRetries, 0u);
  EXPECT_GT(R.LadderRescues, 0u);
  // Rescued negations reopen paths the starved run never reached.
  EXPECT_GT(R.Paths.size(), NoLadder.Paths.size());
  EXPECT_LT(R.UnknownNegations, NoLadder.UnknownNegations);
}

TEST_F(BudgetExhaustionTest, LadderLeavesFullyBudgetedRunsAlone) {
  ExplorerOptions Opts; // defaults: generous caps, ladder armed
  ExplorationResult R = explore("bytecodePrim_add", Opts);
  EXPECT_EQ(R.UnknownNegations, 0u);
  EXPECT_EQ(R.LadderRetries, 0u) << "no Unknowns, nothing to retry";
  EXPECT_FALSE(R.BudgetExhausted);
  EXPECT_EQ(R.FinalBudget, BudgetState::Active);
}

} // namespace
