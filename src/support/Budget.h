//===- support/Budget.h - Work budgets and harness faults ---------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative budgets for the long-running campaign stages. A Budget
/// is a work-unit allowance (solver search nodes, replayed paths); the
/// stage under budget charges it at its loop heads instead of running
/// open-loop, so a pathological instruction degrades into a partial
/// result rather than stalling the whole campaign. Budgets count work,
/// never time: a budgeted run stops at the same point on every machine
/// and at every Jobs value, so its records stay pure functions of their
/// configuration.
///
/// HarnessFault is the exception class thrown by harness-fault injection
/// sites (and by genuine harness malfunctions such as a poisoned heap):
/// it marks a failure of the *testing machinery*, which the campaign
/// layer contains and quarantines, as opposed to a differential defect
/// in the system under test.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SUPPORT_BUDGET_H
#define IGDT_SUPPORT_BUDGET_H

#include <cstdint>
#include <stdexcept>
#include <string>

namespace igdt {

/// A harness malfunction: solver blow-up, runaway simulator, compiler
/// front-end crash, heap corruption. Carries the stage that failed.
class HarnessFault : public std::runtime_error {
public:
  HarnessFault(std::string StageName, const std::string &What)
      : std::runtime_error(What), Stage(std::move(StageName)) {}

  /// The harness stage that malfunctioned ("solve", "materialize",
  /// "compile", "simulate", ...).
  const std::string &stage() const { return Stage; }

private:
  std::string Stage;
};

/// Whether a budget has run out.
enum class BudgetState : std::uint8_t {
  Active,
  WorkExpired,
};

const char *budgetStateName(BudgetState State);

/// A running budget. Not thread-safe; one budget per campaign stage.
class Budget {
public:
  /// A budget of \p WorkUnits units; 0 is unlimited. The meaning of one
  /// unit is the charging stage's (solver search nodes, replayed paths).
  explicit Budget(std::uint64_t WorkUnits = 0) : Limit(WorkUnits) {}

  /// Charges \p Units of work. Returns true while the budget is still
  /// active; callers stop (cooperatively) on false.
  bool charge(std::uint64_t Units = 1);

  /// True once a charge overran the allowance.
  bool expired() const { return State != BudgetState::Active; }

  BudgetState state() const { return State; }
  std::uint64_t spentUnits() const { return Spent; }

  /// One-line state description for incident reports, e.g.
  /// "state=work-expired units=1201/1200".
  std::string describe() const;

private:
  std::uint64_t Limit;
  std::uint64_t Spent = 0;
  BudgetState State = BudgetState::Active;
};

} // namespace igdt

#endif // IGDT_SUPPORT_BUDGET_H
