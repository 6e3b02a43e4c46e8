//===- support/Budget.cpp - Work budgets and harness faults -------------------===//

#include "support/Budget.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"

using namespace igdt;

const char *igdt::budgetStateName(BudgetState State) {
  switch (State) {
  case BudgetState::Active:
    return "active";
  case BudgetState::WorkExpired:
    return "work-expired";
  }
  igdt_unreachable("unknown budget state");
}

bool Budget::charge(std::uint64_t Units) {
  Spent += Units;
  if (State == BudgetState::Active && Limit && Spent > Limit)
    State = BudgetState::WorkExpired;
  return State == BudgetState::Active;
}

std::string Budget::describe() const {
  std::string Units =
      Limit ? formatString("%llu/%llu", (unsigned long long)Spent,
                           (unsigned long long)Limit)
            : formatString("%llu/unlimited", (unsigned long long)Spent);
  return formatString("state=%s units=%s", budgetStateName(State),
                      Units.c_str());
}
