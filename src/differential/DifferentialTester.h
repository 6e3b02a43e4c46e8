//===- differential/DifferentialTester.h - Interpreter vs JIT oracle -----------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential tester (paper §2.4 and Fig. 1, steps 2-4): for every
/// concolic path of an instruction it
///
///   1. re-creates a concrete VM frame from the path's input constraints
///      (the frame shape is adapted to the compiler's convention:
///      registers for native methods, a frame image + operand stack for
///      byte-code fragments);
///   2. compiles the instruction with the compiler under test;
///   3. executes the machine code in the simulator;
///   4. validates the machine state against the path's output
///      constraints and exit condition, classifying any difference into
///      the paper's six defect families.
///
/// Invalid-frame and (for byte-codes) invalid-memory-access paths are
/// expected failures and are not replayed (paper §3.4).
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_DIFFERENTIAL_DIFFERENTIALTESTER_H
#define IGDT_DIFFERENTIAL_DIFFERENTIALTESTER_H

#include "concolic/ConcolicExplorer.h"
#include "differential/DefectFamily.h"
#include "differential/ReplayArena.h"
#include "jit/CodeCache.h"
#include "jit/CogitOptions.h"
#include "jit/MachineSim.h"

#include <memory>
#include <string>

namespace igdt {

/// Configuration of one differential run.
struct DiffTestConfig {
  CompilerKind Kind = CompilerKind::StackToRegister;
  /// Target back-end: arm-like when true, x64-like otherwise.
  bool UseArmBackend = false;
  CogitOptions Cogit;
  SimOptions Sim;
  /// Cooperative replay budget (non-owning, may be null): one work unit
  /// is charged per tested path, and once the budget expires remaining
  /// paths come back BudgetSkipped instead of running.
  Budget *ReplayBudget = nullptr;
  /// Cross-engine oracle: before the authoritative simulator run, each
  /// path is executed once through the native x86-64 tier on a marked
  /// heap, the heap is rolled back, and every observable (exit record,
  /// registers, operand stack of a byte-code frame, stack bytes, heap
  /// contents) is compared against the simulator's. A disagreement is
  /// reported as the CrossEngineDivergence defect family — it indicts
  /// the native code generator, not the VM under test. On hosts without
  /// the native tier no probe runs, so none can diverge.
  bool CrossEngineCheck = false;
  /// Campaign mode: report simulator fuel exhaustion as a harness fault
  /// (a thrown HarnessFault) rather than as a compiled-code defect.
  /// When fuel is deliberately scarce, exhaustion says nothing about
  /// the compiler under test.
  bool FuelExhaustionIsHarnessFault = false;
  /// Observability sink (non-owning, may be null). The tester emits one
  /// PathVerdict event per tested path and propagates the sink into the
  /// nested Cogit and Sim options, so one assignment wires the whole
  /// replay stage.
  TraceSink *Trace = nullptr;
  /// Compile-once code cache (non-owning, may be null). Compilation is
  /// a pure function of the cached key (see jit/CodeCache.h), so a hit
  /// replays the stored CompiledCode — and the cogit's Compile trace
  /// event — instead of re-running the front end. Bypassed while
  /// InjectFrontEndThrow is armed so the injected crash fires on every
  /// path. Not thread-safe; owners keep it worker-local.
  JitCodeCache *CodeCache = nullptr;
  /// Compile counters (non-owning, may be null): Compiles is charged on
  /// every front-end run — with or without a cache — and CodeCacheHits
  /// on cache-served replays, so "issued vs avoided" reads directly off
  /// one struct.
  JitCacheStats *JitStats = nullptr;
  /// Pooled replay state (non-owning, may be null): every path's heap
  /// and simulator stack come from the arena, whose reset contract
  /// makes each acquire observably fresh. A tester built without one
  /// owns one. Not thread-safe; owners keep it worker-local like the
  /// code cache.
  ReplayArena *Arena = nullptr;
  /// Arena/reset counters (non-owning, may be null).
  ReplayStats *Replay = nullptr;
  /// Dispatch-engine counters (non-owning, may be null); the
  /// constructor propagates them into Sim.Stats the way Trace is
  /// propagated into the nested options.
  SimStats *SimCounters = nullptr;
};

/// Per-path verdict.
enum class PathTestStatus : std::uint8_t {
  Match,           ///< interpreter and compiled code agree
  Difference,      ///< a defect was detected and classified
  ExpectedFailure, ///< invalid-frame / unsafe-access path, not replayed
  NotReplayable,   ///< curated out (prototype limitation)
  BudgetSkipped,   ///< replay budget expired before this path ran
};

const char *pathTestStatusName(PathTestStatus Status);

/// The outcome of testing one path.
struct PathTestOutcome {
  PathTestStatus Status = PathTestStatus::Match;
  DefectFamily Family = DefectFamily::BehaviouralDifference;
  /// Deduplication key for Table 3 ("we count a defect only once
  /// regardless of how many execution paths it led to a failure").
  std::string CauseKey;
  std::string Details;
  ExitKind InterpreterExit = ExitKind::Success;
  MachExitKind MachineExit = MachExitKind::Breakpoint;
};

/// Replays paths against one compiler/back-end pair.
class DifferentialTester {
public:
  explicit DifferentialTester(DiffTestConfig Config) : Cfg(Config) {
    if (Cfg.Trace) {
      Cfg.Cogit.Trace = Cfg.Trace;
      Cfg.Sim.Trace = Cfg.Trace;
    }
    if (Cfg.SimCounters)
      Cfg.Sim.Stats = Cfg.SimCounters;
    if (!Cfg.Arena) {
      OwnArena = std::make_unique<ReplayArena>();
      Cfg.Arena = OwnArena.get();
    }
    Cfg.Sim.StackPool = &Cfg.Arena->stackPool();
  }

  /// Tests path \p PathIdx of \p Exploration.
  PathTestOutcome testPath(const ExplorationResult &Exploration,
                           std::size_t PathIdx);

  const DiffTestConfig &config() const { return Cfg; }
  const MachineDesc &desc() const {
    return Cfg.UseArmBackend ? armDesc() : x64Desc();
  }

private:
  /// The actual replay; testPath wraps it with PathVerdict emission.
  PathTestOutcome testPathImpl(const ExplorationResult &Exploration,
                               std::size_t PathIdx);

  DiffTestConfig Cfg;
  /// The arena of a tester configured without one.
  std::unique_ptr<ReplayArena> OwnArena;
};

} // namespace igdt

#endif // IGDT_DIFFERENTIAL_DIFFERENTIALTESTER_H
