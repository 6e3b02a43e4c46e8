//===- evalkit/CampaignScheduler.h - Adaptive campaign scheduling -------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign scheduling policy object: every campaign's source of
/// "next instruction". Fixed order is its degenerate configuration
/// (SolverTiers 0, no budget pool, no warm start): one wave in catalog
/// order at full strength, every report() accepted, every instruction
/// on the same budget. The adaptive policy adds three cooperating
/// policies:
///
///  1. **Priority ordering** — instructions run in descending
///     historical yield (paths per budget unit, boosted by divergence
///     rate), warm-started from the per-instruction yield stats a
///     previous campaign persisted into its checkpoint JSONL.
///     Instructions without history run first (optimistically), in
///     catalog order.
///  2. **Tiered solver escalation** — every instruction first runs
///     under reduced solver caps (solverTierCaps), and is re-run at
///     escalating strength only when the cheap pass provably diverged
///     from full strength: any Unknown negation, ladder retry, budget
///     stop, contained incident, or SolverStats::CapHits > 0. A
///     cheap-tier run clean on all of those is *bit-identical* to the
///     full-strength run (caps are pure give-up thresholds), so
///     accepting it preserves the fixed-order record bytes.
///  3. **Provable early exit + budget pool** — a run whose explorer
///     reports FrontierExhausted (frontier drained, no Unknowns, no
///     budget expiry) provably owns its complete path set; its unspent
///     work units are refunded to a campaign-level pool. Once every
///     instruction has either been accepted or starved (top-strength
///     run ended budget-exhausted), the pool is redistributed in one
///     deterministic round to the highest-yield starved instructions,
///     which re-run with their base budget plus the grant.
///
/// The scheduler is deliberately execution-agnostic: it emits *waves*
/// of assignments (instruction index + tier distance + budget
/// override) and consumes per-run feedback, while CampaignRunner owns
/// threads, processes and the catalog-order merge. Determinism
/// contract: with unlimited budgets the accepted record set is
/// byte-identical to fixed order at any Jobs/WorkerProcesses topology
/// (escalated runs restart from attempt 1, so fault arming and attempt
/// counts replay exactly); with a constrained budget the grant round
/// is a deterministic function of the record set, so records are still
/// topology-independent, and path coverage is >= fixed order by budget
/// monotonicity (a larger work-unit budget explores a superset).
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_EVALKIT_CAMPAIGNSCHEDULER_H
#define IGDT_EVALKIT_CAMPAIGNSCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace igdt {

/// Scheduling policy configuration (CampaignOptions::Schedule).
struct ScheduleOptions {
  /// "fixed" (default): the byte-identical-reproduction mode — the
  /// runner schedules one catalog-order wave with uniform budgets and
  /// ignores the knobs below except PersistYield. "adaptive": the three
  /// policies above.
  std::string Policy = "fixed";
  /// Cheap solver tiers below full strength (adaptive mode only): each
  /// rung divides the structural caps by 4x (see solverTierCaps). 0
  /// runs everything at full strength; 1 is the classic
  /// cheap-pass-then-escalate split.
  unsigned SolverTiers = 1;
  /// Redistribute provably unspent budget to starved instructions
  /// (adaptive mode with a work-unit explore budget only).
  bool BudgetPool = false;
  /// Ceiling on one instruction's total budget after a grant, as a
  /// multiple of the base per-instruction budget.
  double BudgetPoolCapFactor = 8.0;
  /// Checkpoint JSONL from a previous campaign whose per-record yield
  /// stats seed the priority order. Empty starts cold.
  std::string WarmStartPath;
  /// Write per-record yield stats ("yield" object) into this
  /// campaign's checkpoint records so later campaigns can warm-start.
  bool PersistYield = false;

  bool adaptive() const { return Policy == "adaptive"; }
};

/// Per-instruction yield statistics, persisted as the optional "yield"
/// object of a checkpoint record and consumed by the warm-start
/// loader. Everything except PathsPerSec is derived from deterministic
/// counters; PathsPerSec is 0 whenever the campaign ran untimed
/// (RecordTimings off), and the scheduler deliberately scores with the
/// deterministic PathsPerKiloUnit so priority order never depends on
/// wall clocks.
struct YieldStats {
  double PathsPerKiloUnit = 0;
  double PathsPerSec = 0;
  double DivergenceRate = 0;
  double UnknownRate = 0;
};

/// schedule.* counters (surfaced in MetricsRegistry and the --profile
/// "Scheduling" table).
struct ScheduleStats {
  std::uint64_t Waves = 0;
  std::uint64_t TierEscalations = 0;
  std::uint64_t EarlyExits = 0;
  std::uint64_t PoolRefunds = 0;
  std::uint64_t PoolRefundUnits = 0;
  std::uint64_t PoolGrants = 0;
  std::uint64_t PoolGrantUnits = 0;
  /// Pairs of instructions the priority order runs in reverse catalog
  /// order — a measure of how far the schedule deviates from fixed.
  std::uint64_t PriorityInversions = 0;
  std::uint64_t WarmStartEntries = 0;
  /// Runs discarded by escalation or a regrant (their records never
  /// merge), and the work units those runs consumed. The honest
  /// overhead figure of the tiering policy.
  std::uint64_t DiscardedRuns = 0;
  std::uint64_t DiscardedUnits = 0;
};

/// One scheduled run: worklist index, caps distance below full
/// strength (0 = full), and the per-run explore work-unit budget (0 =
/// the configured base budget).
struct ScheduleAssignment {
  std::size_t Index = 0;
  unsigned TierDistance = 0;
  std::uint64_t ExploreUnits = 0;
};

/// What the runner observed about one finished run; everything here is
/// deterministic for a fixed configuration (the scheduler's decisions
/// must be topology-independent).
struct ScheduleFeedback {
  bool Quarantined = false;
  bool BudgetExhausted = false;
  bool FrontierExhausted = false;
  /// Any contained incident during the run, including worker-level
  /// failures. Incidents mean a fault was armed for some attempt; the
  /// cheap tier cannot prove the faulted attempts matched full
  /// strength, so it escalates.
  bool HadIncidents = false;
  unsigned UnknownNegations = 0;
  unsigned LadderRetries = 0;
  unsigned Paths = 0;
  std::uint64_t CapHits = 0;
  /// Explore work units the run actually spent (Budget::spentUnits of
  /// the successful attempt).
  std::uint64_t SpentUnits = 0;
};

/// The scheduler's disposition of a reported run.
enum class ScheduleVerdict {
  /// Final: merge the record in catalog order.
  Accept,
  /// Discard everything (record, incidents, buffered trace events);
  /// the instruction reappears in a later wave at higher strength or
  /// with a grant.
  Retry,
  /// Keep the result aside: the instruction starved at full strength
  /// and may be re-run with a pool grant. If the grant round leaves it
  /// empty-handed the held result is finalised via takeFinalized().
  Hold,
};

/// Wave-emitting campaign scheduler. Single-threaded by design: the
/// runner calls nextWave()/report() from its coordinating thread only
/// (workers never touch the scheduler), which keeps every decision a
/// deterministic function of the deterministic feedback.
class CampaignScheduler {
public:
  /// \p BaseExploreUnits is the per-instruction explore work-unit
  /// budget (BudgetOptions::WorkUnits; 0 = unlimited, which disables
  /// starvation and the pool).
  CampaignScheduler(ScheduleOptions Opts, std::uint64_t BaseExploreUnits);

  /// Registers a worklist entry (catalog order == registration order).
  void addItem(std::size_t Index, std::string Name);

  /// Loads yield stats from a previous campaign's checkpoint JSONL;
  /// returns the number of entries matched against registered items.
  /// Malformed lines and records without yield data are skipped, so
  /// old-schema checkpoints warm-start as far as they can.
  std::size_t loadWarmStart(const std::string &Path);

  /// Freezes the priority order (call after addItem/loadWarmStart).
  void finalize();

  bool done() const;

  /// The next wave of assignments, highest priority first. An empty
  /// wave with done() == false never happens (the grant round either
  /// re-queues or finalises every starved item). Every assignment must
  /// be report()ed before the next nextWave() call.
  std::vector<ScheduleAssignment> nextWave();

  /// Items finalised without a fresh run since the last call (starved
  /// items the grant round left empty-handed): the runner publishes
  /// their held results. Call after every nextWave().
  std::vector<std::size_t> takeFinalized();

  ScheduleVerdict report(const ScheduleAssignment &Assignment,
                         const ScheduleFeedback &Feedback);

  const ScheduleStats &stats() const { return Stats; }
  /// The frozen priority order (worklist indices; tests).
  const std::vector<std::size_t> &plannedOrder() const { return Planned; }
  /// Current pool balance in work units (tests).
  std::uint64_t poolUnits() const { return PoolUnits; }

private:
  enum class ItemState : std::uint8_t {
    Pending,
    InFlight,
    Starved,
    Accepted,
  };

  struct Item {
    std::size_t Index = 0;
    std::string Name;
    /// Warm-start priority score; +infinity when unknown.
    double Score = 0;
    ItemState State = ItemState::Pending;
    unsigned TierDistance = 0;
    /// Nonzero after a grant: base + granted units.
    std::uint64_t GrantUnits = 0;
    bool Regranted = false;
    /// Observed yield of the starved full-strength run, for the grant
    /// order (exact integers so ranking needs no float ties).
    unsigned StarvedPaths = 0;
    std::uint64_t StarvedSpent = 0;
  };

  bool poolActive() const;
  void runGrantRound();

  ScheduleOptions Opts;
  std::uint64_t BaseUnits;
  std::vector<Item> Items;
  /// Worklist index -> Items position.
  std::vector<std::size_t> Planned;
  std::vector<std::size_t> Finalized;
  ScheduleStats Stats;
  std::uint64_t PoolUnits = 0;
  bool Finalized_ = false;
  bool GrantRoundDone = false;
};

} // namespace igdt

#endif // IGDT_EVALKIT_CAMPAIGNSCHEDULER_H
