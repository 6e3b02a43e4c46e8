//===- concolic/ConcolicExplorer.h - Interpreter path exploration ------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concolic exploration loop of the paper (§2.3, Figure 2): execute
/// the instruction on concrete inputs while recording symbolic path
/// conditions, then repeatedly negate the last not-already-negated
/// condition, solve, and re-execute with the new model — until every
/// reachable path has been visited.
///
/// Unlike classic concolic testing, exploration does *not* stop at
/// concrete errors: every exit condition (success, failure, message send,
/// method return, invalid frame, invalid memory access) is a first-class
/// outcome attached to its path.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_CONCOLIC_CONCOLICEXPLORER_H
#define IGDT_CONCOLIC_CONCOLICEXPLORER_H

#include "concolic/PathSolution.h"
#include "solver/Solver.h"
#include "vm/InstructionCatalog.h"
#include "vm/ObjectMemory.h"
#include "vm/VMConfig.h"

#include <memory>

namespace igdt {

/// Exploration tunables.
struct ExplorerOptions {
  /// Maximum distinct paths retained per instruction.
  unsigned MaxPaths = 160;
  /// Maximum concolic executions per instruction.
  unsigned MaxIterations = 600;
  /// Operand-stack depth the differential harness supports; deeper paths
  /// are curated out (paper §5.2).
  std::int64_t MaxReplayStackDepth = 8;
  SolverOptions Solver;
  /// Per-instruction exploration budget (non-owning; null is
  /// unlimited). One work unit is one concolic execution or solver
  /// search node; the explorer and solver charge it cooperatively and
  /// stop with a partial result on expiry. The caller owns it so it can
  /// read the budget state after a fault unwound the exploration.
  Budget *ExternalBudget = nullptr;
  /// Degradation-ladder depth: how many progressively cheaper solver
  /// configurations to retry an Unknown negation with before recording
  /// an UnknownNegation. 0 disables the ladder.
  unsigned LadderRungs = 2;
  /// Optional campaign-scope index of proven-Unsat cases, shared
  /// across explorations and worker threads (non-owning; see
  /// SolverCache.h for why sharing Unsat — and only Unsat — is sound
  /// and scheduling-transparent). Null solves every case from scratch.
  SharedUnsatIndex *SharedUnsat = nullptr;
  /// Harness-fault injection (campaign self-tests): poison the
  /// exploration heap so the first materialisation trips the integrity
  /// check.
  bool InjectHeapCorruption = false;
  /// Observability sink (non-owning, may be null). Propagated into the
  /// primary solver and every ladder rung; the explorer itself emits
  /// PathExplored per retained path, LadderRung per retry, and one
  /// ExploreDone span when the frontier empties.
  TraceSink *Trace = nullptr;
};

/// Everything produced by exploring one instruction. Owns the term arena,
/// heap and method the path solutions reference.
struct ExplorationResult {
  const InstructionSpec *Spec = nullptr;
  /// Synthetic spec for sequence explorations (Spec points into it).
  std::unique_ptr<InstructionSpec> OwnedSpec;
  /// True when the whole method was executed as one fragment (the
  /// sequence-testing extension) rather than a single instruction.
  bool IsSequence = false;
  std::unique_ptr<CompiledMethod> Method;
  std::unique_ptr<TermBuilder> Builder;
  std::unique_ptr<ObjectMemory> Memory;
  std::vector<PathSolution> Paths;

  unsigned Iterations = 0;
  unsigned UnknownNegations = 0; // solver gave up on a negated prefix
  unsigned UnsatNegations = 0;
  SolverStats Solver;

  /// The instruction budget expired before the frontier emptied; the
  /// retained paths are still valid (just incomplete coverage).
  bool BudgetExhausted = false;
  /// Degradation-ladder activity: cheaper-rung retries attempted, and
  /// how many turned an Unknown negation into a definite answer.
  unsigned LadderRetries = 0;
  unsigned LadderRescues = 0;
  /// The frontier emptied with every negation settled definitively: no
  /// budget expiry and no residual Unknown negations, so the retained
  /// path set is *provably* the instruction's complete path set (under
  /// the iteration/path caps that were in force).
  bool FrontierExhausted = false;

  /// Paths the differential harness can replay.
  unsigned curatedCount() const {
    unsigned N = 0;
    for (const PathSolution &P : Paths)
      N += P.Curated ? 1 : 0;
    return N;
  }
};

/// Drives concolic exploration of catalog instructions.
///
/// Ownership rule for parallel campaigns: *everything mutable is
/// worker-local*. Each exploration constructs its own TermBuilder
/// (arena + leaf/const/negation consing caches), ObjectMemory (heap +
/// class table), solvers, RNGs and Budget; nothing of that is ever
/// shared across explorations, let alone threads, so the hot path takes
/// no locks. The only state a campaign may share between
/// concurrently-running explorations is immutable or pure: the
/// VMConfig, the InstructionSpec catalog (const magic statics), and the
/// fault plan (const queries), plus the thread-safe SharedUnsatIndex,
/// whose hits are transparent. Determinism across thread counts then
/// follows from seeding: the solver RNG is derived from each case's
/// structural hash mixed with a stable hash of the instruction name, so
/// an instruction explores the same paths no matter which worker runs
/// it, in what order, or alongside what else.
class ConcolicExplorer {
public:
  ConcolicExplorer(const VMConfig &Config,
                   ExplorerOptions Options = ExplorerOptions())
      : Cfg(Config), Opts(Options) {}

  /// Explores every execution path of \p Spec.
  ExplorationResult explore(const InstructionSpec &Spec);

  /// Explores a whole byte-code *sequence* (the paper's future-work
  /// extension): \p Method runs as one fragment from PC 0 until it falls
  /// off the end or leaves through a non-Success exit.
  ExplorationResult exploreMethod(const CompiledMethod &Method,
                                  const std::string &Name);

  const ExplorerOptions &options() const { return Opts; }

private:
  ExplorationResult run(ExplorationResult Seed);

  const VMConfig &Cfg;
  ExplorerOptions Opts;
};

} // namespace igdt

#endif // IGDT_CONCOLIC_CONCOLICEXPLORER_H
