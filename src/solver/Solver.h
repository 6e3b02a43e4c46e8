//===- solver/Solver.h - Constraint solver over VM semantics ----------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint solver behind the concolic explorer. The paper used an
/// off-the-shelf solver (with 56-bit integer precision and no bit-wise
/// operations, §4.3); none is available offline, so IGDT ships its own:
///
///  - path conditions are expanded to a bounded set of conjunctive cases
///    (negations of compound checks such as overflow ranges produce
///    disjunctions, see paper Fig. 2);
///  - object variables get class-table assignments from the type
///    predicates (isInteger / isFloat / format constraints / identity);
///  - integer leaves are narrowed by HC4-style interval propagation
///    through the arithmetic terms, then searched over interval bounds
///    plus random samples;
///  - float leaves are solved by candidate/sampling search (sufficient
///    because VM float paths only compare against constants or test
///    equality, and transcendental outputs are never constrained).
///
/// The IntegerBits option reproduces the paper's solver-precision
/// limitation: with fewer than 61 bits, paths requiring larger literals
/// become Unknown and are curated out, exactly as in the paper's Table 2.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SOLVER_SOLVER_H
#define IGDT_SOLVER_SOLVER_H

#include "solver/Model.h"
#include "solver/SolverCache.h"
#include "support/Budget.h"
#include "vm/ClassTable.h"

#include <cstdint>
#include <vector>

namespace igdt {

class TraceSink;
class MetricsRegistry;

/// Outcome of a solver query.
enum class SolveStatus : std::uint8_t {
  Sat,     ///< A model was found.
  Unsat,   ///< Proven unsatisfiable (class conflict or empty interval).
  Unknown, ///< Search budget exhausted or beyond the solver's theory.
};

const char *solveStatusName(SolveStatus Status);

/// Result of a query: a status plus the model when Sat.
struct SolveResult {
  SolveStatus Status = SolveStatus::Unknown;
  Model M;
};

/// Tunables.
struct SolverOptions {
  /// Usable signed integer precision. 61 covers the full SmallInteger
  /// range; smaller values reproduce the paper's 56-bit limitation.
  int IntegerBits = 61;
  /// Cap on conjunctive cases expanded from disjunctions.
  unsigned MaxCases = 64;
  /// Cap on class-assignment combinations per case.
  unsigned MaxClassCombos = 256;
  /// Cap on numeric search nodes per query.
  unsigned MaxSearchNodes = 50000;
  /// Random samples per integer/float leaf.
  unsigned RandomSamples = 12;
  /// Upper bound of the operand-stack-size variable.
  std::int64_t MaxStackSize = 12;
  /// Upper bound of object slot-count variables.
  std::int64_t MaxSlotCount = 32;
  /// RNG seed material (solving is fully deterministic). Seeded once
  /// per exploration: each expanded case's generator mixes this value
  /// with the *structural hash of the case's own literals* — not with
  /// any per-query signature — so the identical case samples the
  /// identical candidates no matter which query posed it, when, or on
  /// which worker. The explorer further mixes in a stable hash of the
  /// instruction name, making every instruction's exploration
  /// independent of catalog order and shard assignment.
  std::uint64_t Seed = 0x5EED;
  /// Cooperative budget shared across queries (non-owning, may be
  /// null). The numeric search charges one work unit per node; an
  /// exhausted budget turns the running and all later queries Unknown
  /// instead of letting a pathological instruction stall the campaign.
  Budget *SharedBudget = nullptr;
  /// Campaign-scope index of proven-Unsat cases (non-owning, may be
  /// null), shared across explorations and threads: Unsat proofs are
  /// pointer-free and seed-independent, so a hit is byte-identical to
  /// re-proving (see SolverCache.h). Entries are
  /// segregated by a fingerprint of the caps that influence Unsat
  /// provability, so ladder rungs never serve full-strength queries.
  SharedUnsatIndex *Shared = nullptr;
  /// Harness-fault injection (campaign self-tests): throw HarnessFault
  /// at query entry, simulating a solver blow-up no search cap contains.
  bool InjectSolverHang = false;
  /// Observability sink (non-owning, may be null). When set, every
  /// query emits one SolverQuery event (status + nodes/cases deltas,
  /// cost-compensated on shared-index hits so they are deterministic)
  /// and shared-index lookups emit CacheLookup diagnostics.
  /// Disabled-path cost is this one null check.
  TraceSink *Trace = nullptr;
};

/// Running counters, reported by the evaluation harness.
struct SolverStats {
  std::uint64_t Queries = 0;
  std::uint64_t SatCount = 0;
  std::uint64_t UnsatCount = 0;
  std::uint64_t UnknownCount = 0;
  std::uint64_t CasesExplored = 0;
  std::uint64_t NodesExplored = 0;
  /// Queries cut short (turned Unknown) by an exhausted shared budget.
  std::uint64_t BudgetStops = 0;
  /// Case lookups answered by a proof in the shared Unsat index.
  /// Unlike every other counter, the two cache counters depend on
  /// worker scheduling (which exploration populated the shared index
  /// first), so they are diagnostics only: excluded from campaign
  /// checkpoints and from byte-identity guarantees.
  std::uint64_t CacheHits = 0;
  /// Case lookups that consulted the shared index and had to search.
  std::uint64_t CacheMisses = 0;
  /// Always 0: the solver keeps no prefix expansion to reuse. The field
  /// stays because the repository benchmark (perfbench/cpp/Workloads.cpp)
  /// reports it as solver.prefix_reuse_solves.
  std::uint64_t PrefixReuseSolves = 0;
  /// Queries that case-expanded their conjunct vector: every query not
  /// cut short by an exhausted budget. In-process only (not carried in
  /// worker payloads, profiles or metrics, which can derive it from
  /// Queries and BudgetStops); kept because the repository benchmark
  /// (perfbench/cpp/Workloads.cpp) reports it as solver.full_solves.
  std::uint64_t FullSolves = 0;

  /// Accumulates \p Other into this (deterministic reduction used when
  /// merging per-worker statistics).
  void add(const SolverStats &Other);
};

/// Folds \p Stats into \p Registry under "solver.*" counter names
/// (queries, sat, unsat, unknown, cases, nodes, budget_stops) and
/// "solver.cache.*" for the scheduling-dependent diagnostics (hits,
/// misses). This is how SolverStats surfaces in the metrics layer:
/// per-shard stats fold per-record, and the campaign's catalog-order
/// merge makes the combined numbers deterministic.
void foldSolverStats(MetricsRegistry &Registry, const SolverStats &Stats);

/// The solver. Stateless between queries except for statistics.
class ConstraintSolver {
public:
  explicit ConstraintSolver(const ClassTable &Classes,
                            SolverOptions Options = SolverOptions());

  /// Solves the conjunction of \p Conjuncts.
  SolveResult solve(const std::vector<const BoolTerm *> &Conjuncts);

  const SolverStats &stats() const { return Stats; }
  const SolverOptions &options() const { return Opts; }

private:
  /// The actual solve; solve() wraps it with trace emission.
  SolveResult solveImpl(const std::vector<const BoolTerm *> &Conjuncts);

  const ClassTable &Classes;
  SolverOptions Opts;
  SolverStats Stats;
};

} // namespace igdt

#endif // IGDT_SOLVER_SOLVER_H
