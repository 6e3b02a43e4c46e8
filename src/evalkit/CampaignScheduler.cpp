//===- evalkit/CampaignScheduler.cpp - Adaptive campaign scheduling -----------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//

#include "evalkit/CampaignScheduler.h"

#include "support/Json.h"

#include <algorithm>
#include <limits>
#include <map>

using namespace igdt;

CampaignScheduler::CampaignScheduler(ScheduleOptions Options,
                                     std::uint64_t BaseExploreUnits)
    : Opts(std::move(Options)), BaseUnits(BaseExploreUnits) {}

bool CampaignScheduler::poolActive() const {
  return Opts.BudgetPool && BaseUnits > 0;
}

void CampaignScheduler::addItem(std::size_t Index, std::string Name) {
  Item It;
  It.Index = Index;
  It.Name = std::move(Name);
  // No history: explore first, optimistically. Ties resolve to catalog
  // order, so a cold start reproduces the fixed processing order.
  It.Score = std::numeric_limits<double>::infinity();
  It.TierDistance = Opts.SolverTiers;
  Items.push_back(std::move(It));
}

std::size_t CampaignScheduler::loadWarmStart(const std::string &Path) {
  std::map<std::string, std::size_t> ByName;
  for (std::size_t I = 0; I < Items.size(); ++I)
    ByName[Items[I].Name] = I;
  std::size_t Matched = 0;
  forEachJsonlLine(Path, [&](std::string &Line) {
    std::optional<JsonValue> V = JsonValue::parse(Line);
    if (!V)
      return;
    const JsonValue *Yield = V->find("yield");
    if (!Yield)
      return; // pre-scheduler checkpoint schema: no yield, no score
    auto It = ByName.find(V->stringOr("instruction", ""));
    if (It == ByName.end())
      return;
    // Deterministic score only: paths per kilo-unit boosted by the
    // divergence rate. PathsPerSec is for humans (and zero whenever
    // the source campaign ran untimed), never for ordering.
    Items[It->second].Score =
        Yield->numberOr("paths_per_kunit", 0) *
        (1.0 + Yield->numberOr("divergence_rate", 0));
    ++Matched;
  });
  Stats.WarmStartEntries += Matched;
  return Matched;
}

void CampaignScheduler::finalize() {
  Planned.clear();
  Planned.reserve(Items.size());
  std::vector<std::size_t> Order(Items.size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](std::size_t A, std::size_t B) {
                     if (Items[A].Score != Items[B].Score)
                       return Items[A].Score > Items[B].Score;
                     return Items[A].Index < Items[B].Index;
                   });
  for (std::size_t I : Order)
    Planned.push_back(Items[I].Index);
  // Inversion count: pairs the priority order runs in reverse catalog
  // order. Quadratic, but the worklist is catalog-sized.
  for (std::size_t I = 0; I < Planned.size(); ++I)
    for (std::size_t J = I + 1; J < Planned.size(); ++J)
      if (Planned[I] > Planned[J])
        Stats.PriorityInversions++;
  Finalized_ = true;
}

bool CampaignScheduler::done() const {
  for (const Item &It : Items)
    if (It.State != ItemState::Accepted)
      return false;
  return true;
}

std::vector<ScheduleAssignment> CampaignScheduler::nextWave() {
  auto Collect = [&] {
    std::vector<std::size_t> Pending;
    for (std::size_t I = 0; I < Items.size(); ++I)
      if (Items[I].State == ItemState::Pending)
        Pending.push_back(I);
    std::stable_sort(Pending.begin(), Pending.end(),
                     [&](std::size_t A, std::size_t B) {
                       if (Items[A].Score != Items[B].Score)
                         return Items[A].Score > Items[B].Score;
                       return Items[A].Index < Items[B].Index;
                     });
    return Pending;
  };

  std::vector<std::size_t> Pending = Collect();
  if (Pending.empty()) {
    bool AnyStarved = false;
    for (const Item &It : Items)
      AnyStarved |= It.State == ItemState::Starved;
    if (AnyStarved) {
      runGrantRound();
      Pending = Collect();
    }
  }
  std::vector<ScheduleAssignment> Wave;
  Wave.reserve(Pending.size());
  for (std::size_t I : Pending) {
    Items[I].State = ItemState::InFlight;
    ScheduleAssignment A;
    A.Index = Items[I].Index;
    A.TierDistance = Items[I].TierDistance;
    A.ExploreUnits = Items[I].GrantUnits;
    Wave.push_back(A);
  }
  if (!Wave.empty())
    Stats.Waves++;
  return Wave;
}

std::vector<std::size_t> CampaignScheduler::takeFinalized() {
  std::vector<std::size_t> Out;
  Out.swap(Finalized);
  return Out;
}

ScheduleVerdict CampaignScheduler::report(const ScheduleAssignment &Assignment,
                                          const ScheduleFeedback &F) {
  Item *It = nullptr;
  for (Item &Candidate : Items)
    if (Candidate.Index == Assignment.Index) {
      It = &Candidate;
      break;
    }
  if (!It || It->State != ItemState::InFlight)
    return ScheduleVerdict::Accept; // defensive: unknown report is final

  // The cheap-tier acceptance proof: a run is bit-identical to full
  // strength iff nothing below gave up or went wrong. CapHits covers
  // the subtle case of a structural cap pruning a search that still
  // answered Sat (with a possibly different model than full strength).
  const bool Dirty = F.Quarantined || F.HadIncidents || F.BudgetExhausted ||
                     F.UnknownNegations > 0 || F.LadderRetries > 0 ||
                     F.CapHits > 0;
  if (It->TierDistance > 0 && Dirty) {
    It->TierDistance--;
    It->State = ItemState::Pending;
    Stats.TierEscalations++;
    Stats.DiscardedRuns++;
    Stats.DiscardedUnits += F.SpentUnits;
    return ScheduleVerdict::Retry;
  }

  if (poolActive() && !GrantRoundDone && !It->Regranted &&
      F.BudgetExhausted && !F.Quarantined) {
    It->State = ItemState::Starved;
    It->StarvedPaths = F.Paths;
    It->StarvedSpent = F.SpentUnits;
    return ScheduleVerdict::Hold;
  }

  It->State = ItemState::Accepted;
  if (F.FrontierExhausted && BaseUnits > 0 && F.SpentUnits < BaseUnits) {
    Stats.EarlyExits++;
    if (poolActive() && !GrantRoundDone && !It->Regranted) {
      std::uint64_t Refund = BaseUnits - F.SpentUnits;
      PoolUnits += Refund;
      Stats.PoolRefunds++;
      Stats.PoolRefundUnits += Refund;
    }
  }
  return ScheduleVerdict::Accept;
}

void CampaignScheduler::runGrantRound() {
  // Single deterministic round: by now every item is Accepted or
  // Starved, so the pool balance is a pure function of the record set
  // (refunds commute) and the grant order below is total.
  GrantRoundDone = true;
  std::vector<std::size_t> Starved;
  for (std::size_t I = 0; I < Items.size(); ++I)
    if (Items[I].State == ItemState::Starved)
      Starved.push_back(I);
  std::stable_sort(
      Starved.begin(), Starved.end(), [&](std::size_t A, std::size_t B) {
        // Observed yield (paths per spent unit) descending, compared
        // by cross-multiplication so ranking is exact.
        unsigned __int128 YA = (unsigned __int128)Items[A].StarvedPaths *
                               (Items[B].StarvedSpent ? Items[B].StarvedSpent : 1);
        unsigned __int128 YB = (unsigned __int128)Items[B].StarvedPaths *
                               (Items[A].StarvedSpent ? Items[A].StarvedSpent : 1);
        if (YA != YB)
          return YA > YB;
        return Items[A].Index < Items[B].Index;
      });
  std::uint64_t CapTotal =
      std::uint64_t(Opts.BudgetPoolCapFactor * double(BaseUnits));
  std::uint64_t MaxExtra = CapTotal > BaseUnits ? CapTotal - BaseUnits : 0;
  for (std::size_t I : Starved) {
    std::uint64_t Extra = std::min(PoolUnits, MaxExtra);
    if (Extra == 0) {
      // Pool drained (or capped out): the held base-budget result is
      // the final record.
      Items[I].State = ItemState::Accepted;
      Finalized.push_back(Items[I].Index);
      continue;
    }
    PoolUnits -= Extra;
    Stats.PoolGrants++;
    Stats.PoolGrantUnits += Extra;
    // The held run is superseded by the granted re-run.
    Stats.DiscardedRuns++;
    Stats.DiscardedUnits += Items[I].StarvedSpent;
    Items[I].State = ItemState::Pending;
    Items[I].Regranted = true;
    Items[I].TierDistance = 0;
    Items[I].GrantUnits = BaseUnits + Extra;
  }
}
