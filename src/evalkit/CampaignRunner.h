//===- evalkit/CampaignRunner.h - Resilient evaluation campaigns ---------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resilient campaign runner: the one per-instruction pipeline
/// (explore -> compile -> simulate -> validate) behind every table and
/// figure of the evaluation, wrapped in fault containment so a
/// full-catalog run survives harness malfunctions.
///
///  - Every stage runs under a cooperative work Budget (solver nodes,
///    replayed paths), so a pathological instruction degrades into a
///    partial result instead of stalling the campaign.
///  - A HarnessFault (or any std::exception) thrown while processing an
///    instruction is contained: the instruction is retried once with a
///    fresh heap, and quarantined — never fatal — if it fails again.
///  - Every containment event is appended to a JSONL incident report
///    (instruction, stage, error class, budget state).
///  - The campaign checkpoints each finished instruction to a JSONL
///    file and can resume from it, reproducing the same Table 2 counts
///    as an uninterrupted run (exploration is deterministic).
///  - The exit code reports genuine differential defects only; harness
///    faults never fail the run.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_EVALKIT_CAMPAIGNRUNNER_H
#define IGDT_EVALKIT_CAMPAIGNRUNNER_H

#include "differential/DifferentialTester.h"
#include "faults/HarnessFaults.h"
#include "observe/MetricsRegistry.h"
#include "observe/Profile.h"
#include "support/Budget.h"

#include <map>
#include <string>
#include <vector>

namespace igdt {

class VerdictStore;

/// Table 2 row.
struct CompilerEvaluation {
  CompilerKind Kind = CompilerKind::NativeMethod;
  unsigned TestedInstructions = 0;
  unsigned InterpreterPaths = 0;
  unsigned CuratedPaths = 0;
  unsigned DifferingPaths = 0; // union over both back-ends
  /// Cause key -> family (Table 3 deduplication).
  std::map<std::string, DefectFamily> Causes;
  /// Per-instruction differential test time (both back-ends), ms.
  std::vector<double> TestMillisPerInstruction;
  double totalTestMillis() const {
    double T = 0;
    for (double V : TestMillisPerInstruction)
      T += V;
    return T;
  }
};

/// Exploration and compiler configuration of every instruction a
/// campaign tests.
struct HarnessOptions {
  VMConfig VM;
  ExplorerOptions Explorer;
  CogitOptions Cogit;
  /// Base simulator knobs for every replay (diffConfigFor copies them);
  /// the per-arm F5 seeding layers on top.
  SimOptions Sim;
  /// Run every path through the native x86-64 tier as well and report
  /// any disagreement with the simulator as a CrossEngineDivergence
  /// defect (see DiffTestConfig::CrossEngineCheck).
  bool CrossEngineCheck = false;
  /// Arm the two simulation-error seeds (missing F5 accessor).
  bool SeedSimulationErrors = true;
  /// Compile each distinct compilation unit once per instruction and
  /// replay the cached code for the remaining paths (jit/CodeCache.h).
  /// Purely an optimisation: compilation is a pure function of the
  /// cache key, and a hit replays the Compile trace event, so every
  /// output is byte-identical with the cache on or off.
  bool EnableCodeCache = true;
  /// Limit instructions per kind (0 = all); used by quick tests.
  unsigned MaxBytecodes = 0;
  unsigned MaxNativeMethods = 0;
};

/// The differential configuration for one compiler/back-end: kind,
/// back-end, compiler and simulator options, the cross-engine check,
/// and the arm-only F5 simulation-error seed. The campaign and
/// Session::diffConfig both start from it; per-run wiring (trace,
/// budgets, caches, counters) is the caller's.
DiffTestConfig diffConfigFor(const HarnessOptions &Harness, CompilerKind Kind,
                             bool Arm);

/// Campaign configuration.
struct CampaignOptions {
  /// Exploration / compiler configuration of every instruction.
  HarnessOptions Harness;
  /// Per-instruction exploration budget in work units (concolic
  /// executions + solver search nodes); 0 is unlimited.
  std::uint64_t ExploreWorkUnits = 0;
  /// Per-instruction replay budget in tested paths; 0 is unlimited.
  std::uint64_t ReplayWorkUnits = 0;
  /// Attempts per instruction: 1 initial + (MaxAttempts-1) fresh-heap
  /// retries before quarantine.
  unsigned MaxAttempts = 2;
  /// Restrict the campaign to these catalog instructions (empty = all,
  /// subject to the harness Max* limits). Unknown names are ignored.
  std::vector<std::string> OnlyInstructions;
  /// JSONL checkpoint file: one keyed record line (VerdictStore.h) per
  /// finished instruction, appended as the campaign progresses and
  /// loaded on start to resume. A record is reused only under the key
  /// this configuration derives; one left by another configuration is
  /// re-run ("campaign.resume_stale"). Empty disables checkpointing.
  std::string CheckpointPath;
  /// JSONL incident report. Empty keeps incidents in memory only.
  std::string IncidentLogPath;
  /// Harness faults to inject (self-tests).
  HarnessFaultPlan Faults;
  /// Stop (checkpointing as usual) after processing this many NEW
  /// instructions; 0 runs to completion. Simulates a killed campaign
  /// for resume tests.
  unsigned StopAfter = 0;
  /// Worker threads exploring instructions concurrently. The campaign
  /// runs on min(Jobs, unserved items) threads, so 1 runs everything
  /// inline on the calling thread; 0 asks the hardware
  /// (std::thread::hardware_concurrency). Any value produces the same
  /// Table 2 rows, checkpoint bytes, incident records and exit code:
  /// work is sharded, but results are merged in catalog order and each
  /// instruction's exploration is independent of its worker (see the
  /// ownership comment in ConcolicExplorer.h).
  unsigned Jobs = 1;
  /// Record per-compiler wall-clock timings in checkpoint records.
  /// Disable to make checkpoint files byte-comparable across runs
  /// (timings are the one nondeterministic field; with it off, trace
  /// files are byte-comparable too because TraceScope zeroes Millis).
  bool RecordTimings = true;
  /// JSONL trace file, truncated at campaign start and written by the
  /// merge thread in catalog order (checkpoint discipline), so the file
  /// is byte-identical at any Jobs value when RecordTimings is off.
  /// Scheduling-dependent events (CacheLookup) are filtered out; their
  /// counts are the SolverStats and JitCacheStats cache counters.
  /// Empty disables.
  std::string TracePath;
  /// Extra in-process sink receiving the merged event stream in the
  /// same deterministic order (non-owning; tests and Session use it).
  TraceSink *ExtraTraceSink = nullptr;
  /// Fold trace events into CampaignSummary::Metrics even without a
  /// trace file or extra sink (what --profile turns on).
  bool CollectMetrics = false;
  /// Content-addressed verdict store (non-owning, may be null; see
  /// VerdictStore.h). Instructions whose (body, config) key hits are
  /// served by appending the stored checkpoint line *verbatim* — byte-
  /// identical to a fresh run — and never explored; clean fresh records
  /// are stored on merge. Records with incidents and quarantines are
  /// never stored, so faulted instructions re-run — and reproduce their
  /// incidents — on every campaign.
  VerdictStore *Store = nullptr;
};

/// One contained failure.
struct CampaignIncident {
  std::string Instruction;
  /// Harness stage that failed ("solve", "compile", "simulate", "heap",
  /// or "explore" for faults without a finer stage).
  std::string Stage;
  /// "harness-fault" for HarnessFault, "exception" otherwise.
  std::string ErrorClass;
  std::string Error;
  /// Budget state of the failing attempt, from Budget::describe().
  std::string ExploreBudget;
  std::string ReplayBudget;
  /// 1-based attempt the failure happened on.
  unsigned Attempt = 1;
  /// Final disposition of the instruction after all attempts.
  bool Quarantined = false;

  std::string toJson() const;
};

/// Per-compiler outcome of one instruction (both back-ends unioned per
/// path).
struct CompilerOutcome {
  CompilerKind Kind = CompilerKind::NativeMethod;
  unsigned DifferingPaths = 0;
  /// Paths skipped because the replay budget expired.
  unsigned BudgetSkipped = 0;
  double TestMillis = 0;
  std::map<std::string, DefectFamily> Causes;
};

/// Checkpoint unit: everything the campaign keeps about one instruction.
struct InstructionRecord {
  std::string Instruction;
  InstructionKind Kind = InstructionKind::Bytecode;
  bool Quarantined = false;
  unsigned Attempts = 1;
  unsigned Paths = 0;
  unsigned CuratedPaths = 0;
  unsigned UnknownNegations = 0;
  unsigned LadderRetries = 0;
  unsigned LadderRescues = 0;
  bool BudgetExhausted = false;
  /// The explorer drained its frontier with every negation settled —
  /// the path set is provably complete (ExplorationResult docs).
  bool FrontierExhausted = false;
  /// Explore work units the successful attempt spent
  /// (Budget::spentUnits) — the deterministic cost figure of the run.
  std::uint64_t ExploreUnits = 0;
  /// Exploration wall time of the successful attempt; 0 when
  /// CampaignOptions::RecordTimings is off (the same contract as
  /// CompilerOutcome::TestMillis). Feeds the --profile per-stage table.
  double ExploreMillis = 0;
  /// Solver activity of the successful attempt. Its deterministic
  /// counters are the record's "solver" object; the rest stay in memory.
  SolverStats Solver;
  /// Compile, dispatch-engine and arena counters of the successful
  /// attempt. In memory only: they say how the harness ran (and a
  /// resumed campaign skips the work a fresh one performs). Each
  /// counter's class is declared in its struct's table.
  JitCacheStats Jit;
  SimStats Sim;
  ReplayStats Replay;
  std::vector<CompilerOutcome> Compilers;
  std::string toJson() const;
  static bool fromJson(const std::string &Line, InstructionRecord &Out);
};

/// The campaign result.
struct CampaignSummary {
  /// Table 2 rows aggregated over all non-quarantined instructions
  /// (aggregateCampaignRows), in compiler order.
  std::vector<CompilerEvaluation> Rows;
  std::vector<InstructionRecord> Records;
  std::vector<CampaignIncident> Incidents;
  /// Instructions quarantined after exhausting their attempts.
  std::vector<std::string> Quarantined;
  /// Instructions processed by this run (quarantined ones included).
  unsigned CompletedInstructions = 0;
  /// Instructions restored from the checkpoint under their current key
  /// instead of re-run.
  unsigned ResumedInstructions = 0;
  /// Instructions served verbatim from the content-addressed store
  /// (counted inside CompletedInstructions, like fresh ones).
  unsigned StoreServed = 0;
  /// Store activity of this run: planning lookups that hit / missed,
  /// and fresh clean records written back.
  std::uint64_t StoreHits = 0;
  std::uint64_t StoreMisses = 0;
  std::uint64_t StoreStores = 0;
  /// Solver work this run actually performed: aggregated over freshly
  /// computed records only (store-served and resumed ones excluded).
  /// Equals Solver on a cold run; Queries == 0 on a fully warm one —
  /// the acceptance gate for incremental re-exploration.
  SolverStats LiveSolver;
  /// True when StopAfter ended the run before the worklist emptied.
  bool Stopped = false;
  /// The records' stats summed in catalog order. Each counter reads the
  /// same at any Jobs value unless its table classes it
  /// scheduling-dependent.
  SolverStats Solver;
  JitCacheStats Jit;
  SimStats Sim;
  ReplayStats Replay;
  /// Merged campaign metrics: the four stats structs above folded under
  /// their declared names and classes, "campaign.*" always, "store.*"
  /// with a store, and MetricsSink's event-derived counts when tracing
  /// or CollectMetrics is on.
  MetricsRegistry Metrics;
  /// Nonzero only for genuine differential defects — never for harness
  /// faults, quarantines, or the structural optimisation differences
  /// that exist even in a fully fixed configuration.
  int exitCode() const;
};

/// Runs resilient evaluation campaigns.
class CampaignRunner {
public:
  explicit CampaignRunner(CampaignOptions Options);

  CampaignSummary run();

  const CampaignOptions &options() const { return Opts; }

private:
  /// Processes one instruction with retry + containment. Collects any
  /// incidents into \p Incidents and returns the (possibly quarantined)
  /// record. Const and worker-local by construction: safe to call from
  /// several worker threads at once. \p Trace (may be null) receives
  /// the attempt's events through a stamping TraceScope; workers pass a
  /// worker-local TraceBuffer the merge thread later drains in catalog
  /// order. \p Arena is the caller's worker-local replay arena; its
  /// reset contract keeps faulted attempts from leaking state into the
  /// retry, as a fresh heap per path would.
  InstructionRecord testInstruction(const InstructionSpec &Spec,
                                    std::vector<CampaignIncident> &Incidents,
                                    TraceSink *Trace,
                                    ReplayArena &Arena) const;

  /// One attempt of the full pipeline; throws on harness faults.
  InstructionRecord attemptInstruction(const InstructionSpec &Spec,
                                       unsigned Attempt, Budget &ExploreBud,
                                       Budget &ReplayBud, TraceSink *Trace,
                                       ReplayArena &Arena) const;

  CampaignOptions Opts;
  /// Campaign-scope solver index of proven-Unsat cases, shared by every
  /// worker's explorations (thread-safe; see SolverCache.h). Catalog
  /// instructions of one family pose structurally identical type-check
  /// cases, so Unsat proofs recur campaign-wide. Valid for the lifetime
  /// of this runner because the harness configuration — which the
  /// entries' caps fingerprint covers — is fixed at construction.
  mutable SharedUnsatIndex SolverIndex;
};

/// Aggregates per-instruction records into Table 2 rows (exposed for
/// tests that compare checkpointed and uninterrupted campaigns).
std::vector<CompilerEvaluation>
aggregateCampaignRows(const std::vector<InstructionRecord> &Records);

/// Builds the --profile report from a finished campaign: per-stage wall
/// time (explore + one test stage per compiler), the \p TopN most
/// expensive instructions and the merged metrics. Stage times are all
/// zero when the campaign ran with RecordTimings off.
ProfileReport buildCampaignProfile(const CampaignSummary &Summary,
                                   unsigned TopN = 10);

} // namespace igdt

#endif // IGDT_EVALKIT_CAMPAIGNRUNNER_H
