//===- evalkit/CampaignRunner.cpp - Resilient evaluation campaigns -------------===//

#include "evalkit/CampaignRunner.h"

#include "evalkit/ProcessPool.h"
#include "evalkit/VerdictStore.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>

using namespace igdt;

namespace {

double millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

const char *instructionKindLabel(InstructionKind Kind) {
  return Kind == InstructionKind::Bytecode ? "bytecode" : "native-method";
}

constexpr CompilerKind AllCompilers[] = {
    CompilerKind::NativeMethod, CompilerKind::SimpleStack,
    CompilerKind::StackToRegister, CompilerKind::RegisterAllocating};

constexpr DefectFamily AllFamilies[] = {
    DefectFamily::MissingInterpreterTypeCheck,
    DefectFamily::MissingCompiledTypeCheck,
    DefectFamily::OptimisationDifference,
    DefectFamily::BehaviouralDifference,
    DefectFamily::MissingFunctionality,
    DefectFamily::SimulationError};

bool parseCompilerKind(const std::string &Name, CompilerKind &Out) {
  for (CompilerKind Kind : AllCompilers)
    if (Name == compilerKindName(Kind)) {
      Out = Kind;
      return true;
    }
  return false;
}

bool parseDefectFamily(const std::string &Name, DefectFamily &Out) {
  for (DefectFamily Family : AllFamilies)
    if (Name == defectFamilyName(Family)) {
      Out = Family;
      return true;
    }
  return false;
}

} // namespace

std::string CampaignIncident::toJson() const {
  JsonValue V = JsonValue::object();
  V.set("instruction", JsonValue::string(Instruction))
      .set("stage", JsonValue::string(Stage))
      .set("error_class", JsonValue::string(ErrorClass))
      .set("error", JsonValue::string(Error))
      .set("attempt", JsonValue::number(Attempt))
      .set("explore_budget", JsonValue::string(ExploreBudget))
      .set("replay_budget", JsonValue::string(ReplayBudget))
      .set("quarantined", JsonValue::boolean(Quarantined));
  // Worker/Pid are deliberately absent: they are in-memory diagnostics
  // the merge loop blanks before any incident is recorded, so the
  // JSONL schema stays identical across topologies.
  return V.dump();
}

bool CampaignIncident::fromJson(const std::string &Line,
                                CampaignIncident &Out) {
  auto V = JsonValue::parse(Line);
  if (!V || V->K != JsonValue::Kind::Object)
    return false;
  Out = CampaignIncident();
  Out.Instruction = V->stringOr("instruction", "");
  if (Out.Instruction.empty())
    return false;
  Out.Stage = V->stringOr("stage", "");
  Out.ErrorClass = V->stringOr("error_class", "");
  Out.Error = V->stringOr("error", "");
  Out.Attempt = static_cast<unsigned>(V->numberOr("attempt", 1));
  Out.ExploreBudget = V->stringOr("explore_budget", "");
  Out.ReplayBudget = V->stringOr("replay_budget", "");
  Out.Quarantined = V->boolOr("quarantined", false);
  return true;
}

namespace {

/// Replaces the spent-milliseconds number in a Budget::describe()
/// string ("wall=12.3ms/unlimited" -> "wall=0.0ms/unlimited") so
/// incident files are byte-comparable when timings are off. The limit
/// side is configuration, hence deterministic, and is kept.
std::string scrubBudgetWall(std::string Text) {
  std::size_t Pos = Text.find("wall=");
  if (Pos == std::string::npos)
    return Text;
  std::size_t Start = Pos + 5;
  std::size_t End = Start;
  while (End < Text.size() &&
         (std::isdigit(static_cast<unsigned char>(Text[End])) ||
          Text[End] == '.'))
    ++End;
  if (End > Start)
    Text.replace(Start, End - Start, "0.0");
  return Text;
}

/// \name Worker result payload
/// What one worker process ships back per instruction: the checkpoint
/// record (as its canonical JSONL line, so coordinator-side re-emission
/// is byte-exact), the in-memory-only stats that never enter toJson()
/// (solver cache diagnostics, jit/sim/replay counters), the attempt's
/// incidents and its buffered trace events.
/// @{
JsonValue countersToJson(std::initializer_list<
                         std::pair<const char *, std::uint64_t>>
                             Fields) {
  JsonValue V = JsonValue::object();
  for (const auto &[Name, Value] : Fields)
    V.set(Name, JsonValue::number(static_cast<double>(Value)));
  return V;
}

std::uint64_t counterOr(const JsonValue *V, const char *Name) {
  return V ? static_cast<std::uint64_t>(V->numberOr(Name, 0)) : 0;
}

std::string encodeWorkerPayload(const InstructionRecord &Rec,
                                const std::vector<CampaignIncident> &Incidents,
                                const std::vector<TraceEvent> &Events) {
  JsonValue V = JsonValue::object();
  V.set("record", JsonValue::string(Rec.toJson()));
  V.set("solver_diag",
        countersToJson({{"cache_hits", Rec.Solver.CacheHits},
                        {"cache_misses", Rec.Solver.CacheMisses},
                        {"cap_hits", Rec.Solver.CapHits}}));
  V.set("jit", countersToJson({{"compiles", Rec.Jit.Compiles},
                               {"code_cache_hits", Rec.Jit.CodeCacheHits}}));
  V.set("sim", countersToJson({{"runs", Rec.Sim.Runs},
                               {"predecoded", Rec.Sim.PredecodedRuns},
                               {"reference", Rec.Sim.ReferenceRuns},
                               {"builds", Rec.Sim.PredecodeBuilds},
                               {"hits", Rec.Sim.PredecodeHits}}));
  V.set("replay",
        countersToJson({{"acquires", Rec.Replay.HeapAcquires},
                        {"resets", Rec.Replay.HeapResets},
                        {"bytes_reset", Rec.Replay.HeapBytesReset},
                        {"fresh", Rec.Replay.HeapFreshBuilds},
                        {"bytes_rebuilt", Rec.Replay.HeapBytesRebuilt},
                        {"undo", Rec.Replay.UndoStoresReplayed},
                        {"stack_bytes", Rec.Replay.StackBytesReset}}));
  JsonValue Inc = JsonValue::array();
  for (const CampaignIncident &I : Incidents)
    Inc.push(JsonValue::string(I.toJson()));
  V.set("incidents", std::move(Inc));
  JsonValue Ev = JsonValue::array();
  for (const TraceEvent &E : Events)
    Ev.push(JsonValue::string(E.toJson()));
  V.set("events", std::move(Ev));
  return V.dump();
}

bool decodeWorkerPayload(const std::string &Payload, InstructionRecord &Rec,
                         std::vector<CampaignIncident> &Incidents,
                         std::vector<TraceEvent> &Events) {
  auto V = JsonValue::parse(Payload);
  if (!V || V->K != JsonValue::Kind::Object)
    return false;
  if (!InstructionRecord::fromJson(V->stringOr("record", ""), Rec))
    return false;
  const JsonValue *Diag = V->find("solver_diag");
  Rec.Solver.CacheHits = counterOr(Diag, "cache_hits");
  Rec.Solver.CacheMisses = counterOr(Diag, "cache_misses");
  Rec.Solver.CapHits = counterOr(Diag, "cap_hits");
  const JsonValue *Jit = V->find("jit");
  Rec.Jit.Compiles = counterOr(Jit, "compiles");
  Rec.Jit.CodeCacheHits = counterOr(Jit, "code_cache_hits");
  const JsonValue *Sim = V->find("sim");
  Rec.Sim.Runs = counterOr(Sim, "runs");
  Rec.Sim.PredecodedRuns = counterOr(Sim, "predecoded");
  Rec.Sim.ReferenceRuns = counterOr(Sim, "reference");
  Rec.Sim.PredecodeBuilds = counterOr(Sim, "builds");
  Rec.Sim.PredecodeHits = counterOr(Sim, "hits");
  const JsonValue *Replay = V->find("replay");
  Rec.Replay.HeapAcquires = counterOr(Replay, "acquires");
  Rec.Replay.HeapResets = counterOr(Replay, "resets");
  Rec.Replay.HeapBytesReset = counterOr(Replay, "bytes_reset");
  Rec.Replay.HeapFreshBuilds = counterOr(Replay, "fresh");
  Rec.Replay.HeapBytesRebuilt = counterOr(Replay, "bytes_rebuilt");
  Rec.Replay.UndoStoresReplayed = counterOr(Replay, "undo");
  Rec.Replay.StackBytesReset = counterOr(Replay, "stack_bytes");
  if (const JsonValue *Inc = V->find("incidents"))
    for (const JsonValue &Line : Inc->Arr) {
      CampaignIncident I;
      if (!CampaignIncident::fromJson(Line.Str, I))
        return false;
      Incidents.push_back(std::move(I));
    }
  if (const JsonValue *Ev = V->find("events"))
    for (const JsonValue &Line : Ev->Arr) {
      TraceEvent E;
      if (!TraceEvent::fromJson(Line.Str, E))
        return false;
      Events.push_back(std::move(E));
    }
  return true;
}
/// @}

/// Derives the persisted yield statistics from a finished record's
/// deterministic counters (ScheduleOptions::PersistYield). Everything
/// except PathsPerSec is a pure function of checkpoint-stable fields,
/// so stamping never perturbs byte-identity across topologies — and
/// PathsPerSec is exactly zero whenever timings are off.
void stampYield(InstructionRecord &Rec) {
  Rec.HasYield = true;
  Rec.Yield.PathsPerKiloUnit =
      1000.0 * Rec.Paths /
      double(std::max<std::uint64_t>(1, Rec.ExploreUnits));
  Rec.Yield.PathsPerSec =
      Rec.ExploreMillis > 0 ? Rec.Paths * 1000.0 / Rec.ExploreMillis : 0;
  unsigned Differing = 0;
  for (const CompilerOutcome &C : Rec.Compilers)
    Differing += C.DifferingPaths;
  Rec.Yield.DivergenceRate = double(Differing) / std::max(1u, Rec.Paths);
  Rec.Yield.UnknownRate =
      Rec.Solver.Queries
          ? double(Rec.Solver.UnknownCount) / double(Rec.Solver.Queries)
          : 0;
}

} // namespace

std::string InstructionRecord::toJson() const {
  JsonValue V = JsonValue::object();
  V.set("instruction", JsonValue::string(Instruction))
      .set("kind", JsonValue::string(instructionKindLabel(Kind)))
      .set("quarantined", JsonValue::boolean(Quarantined))
      .set("attempts", JsonValue::number(Attempts))
      .set("paths", JsonValue::number(Paths))
      .set("curated", JsonValue::number(CuratedPaths))
      .set("unknown_negations", JsonValue::number(UnknownNegations))
      .set("ladder_retries", JsonValue::number(LadderRetries))
      .set("ladder_rescues", JsonValue::number(LadderRescues))
      .set("budget_exhausted", JsonValue::boolean(BudgetExhausted))
      .set("frontier_exhausted", JsonValue::boolean(FrontierExhausted))
      .set("explore_units", JsonValue::number(double(ExploreUnits)))
      .set("explore_millis", JsonValue::number(ExploreMillis));
  JsonValue Sol = JsonValue::object();
  // Cache hit/miss counters are deliberately absent: they depend on
  // worker scheduling, and checkpoint files must be byte-identical at
  // any Jobs value.
  Sol.set("queries", JsonValue::number(Solver.Queries))
      .set("sat", JsonValue::number(Solver.SatCount))
      .set("unsat", JsonValue::number(Solver.UnsatCount))
      .set("unknown", JsonValue::number(Solver.UnknownCount))
      .set("cases", JsonValue::number(Solver.CasesExplored))
      .set("nodes", JsonValue::number(Solver.NodesExplored))
      .set("budget_stops", JsonValue::number(Solver.BudgetStops));
  V.set("solver", std::move(Sol));
  if (HasYield) {
    JsonValue Y = JsonValue::object();
    Y.set("paths_per_kunit", JsonValue::number(Yield.PathsPerKiloUnit))
        .set("paths_per_sec", JsonValue::number(Yield.PathsPerSec))
        .set("divergence_rate", JsonValue::number(Yield.DivergenceRate))
        .set("unknown_rate", JsonValue::number(Yield.UnknownRate));
    V.set("yield", std::move(Y));
  }
  JsonValue Comps = JsonValue::array();
  for (const CompilerOutcome &C : Compilers) {
    JsonValue O = JsonValue::object();
    O.set("kind", JsonValue::string(compilerKindName(C.Kind)))
        .set("differing", JsonValue::number(C.DifferingPaths))
        .set("budget_skipped", JsonValue::number(C.BudgetSkipped))
        .set("millis", JsonValue::number(C.TestMillis));
    JsonValue Causes = JsonValue::array();
    for (const auto &[Key, Family] : C.Causes) {
      JsonValue Cause = JsonValue::object();
      Cause.set("key", JsonValue::string(Key))
          .set("family", JsonValue::string(defectFamilyName(Family)));
      Causes.push(std::move(Cause));
    }
    O.set("causes", std::move(Causes));
    Comps.push(std::move(O));
  }
  V.set("compilers", std::move(Comps));
  return V.dump();
}

bool InstructionRecord::fromJson(const std::string &Line,
                                 InstructionRecord &Out) {
  auto V = JsonValue::parse(Line);
  if (!V || V->K != JsonValue::Kind::Object)
    return false;
  Out = InstructionRecord();
  Out.Instruction = V->stringOr("instruction", "");
  if (Out.Instruction.empty())
    return false;
  Out.Kind = V->stringOr("kind", "bytecode") == "native-method"
                 ? InstructionKind::NativeMethod
                 : InstructionKind::Bytecode;
  Out.Quarantined = V->boolOr("quarantined", false);
  Out.Attempts = static_cast<unsigned>(V->numberOr("attempts", 1));
  Out.Paths = static_cast<unsigned>(V->numberOr("paths", 0));
  Out.CuratedPaths = static_cast<unsigned>(V->numberOr("curated", 0));
  Out.UnknownNegations =
      static_cast<unsigned>(V->numberOr("unknown_negations", 0));
  Out.LadderRetries = static_cast<unsigned>(V->numberOr("ladder_retries", 0));
  Out.LadderRescues = static_cast<unsigned>(V->numberOr("ladder_rescues", 0));
  Out.BudgetExhausted = V->boolOr("budget_exhausted", false);
  // Absent in pre-scheduler checkpoints; the defaults below keep those
  // loading (satellite contract: old schemas resume fine).
  Out.FrontierExhausted = V->boolOr("frontier_exhausted", false);
  Out.ExploreUnits =
      static_cast<std::uint64_t>(V->numberOr("explore_units", 0));
  Out.ExploreMillis = V->numberOr("explore_millis", 0);
  if (const JsonValue *Sol = V->find("solver")) {
    Out.Solver.Queries = static_cast<std::uint64_t>(Sol->numberOr("queries", 0));
    Out.Solver.SatCount = static_cast<std::uint64_t>(Sol->numberOr("sat", 0));
    Out.Solver.UnsatCount =
        static_cast<std::uint64_t>(Sol->numberOr("unsat", 0));
    Out.Solver.UnknownCount =
        static_cast<std::uint64_t>(Sol->numberOr("unknown", 0));
    Out.Solver.CasesExplored =
        static_cast<std::uint64_t>(Sol->numberOr("cases", 0));
    Out.Solver.NodesExplored =
        static_cast<std::uint64_t>(Sol->numberOr("nodes", 0));
    Out.Solver.BudgetStops =
        static_cast<std::uint64_t>(Sol->numberOr("budget_stops", 0));
  }
  if (const JsonValue *Y = V->find("yield")) {
    Out.HasYield = true;
    Out.Yield.PathsPerKiloUnit = Y->numberOr("paths_per_kunit", 0);
    Out.Yield.PathsPerSec = Y->numberOr("paths_per_sec", 0);
    Out.Yield.DivergenceRate = Y->numberOr("divergence_rate", 0);
    Out.Yield.UnknownRate = Y->numberOr("unknown_rate", 0);
  }
  if (const JsonValue *Comps = V->find("compilers")) {
    for (const JsonValue &O : Comps->Arr) {
      CompilerOutcome C;
      if (!parseCompilerKind(O.stringOr("kind", ""), C.Kind))
        return false;
      C.DifferingPaths = static_cast<unsigned>(O.numberOr("differing", 0));
      C.BudgetSkipped = static_cast<unsigned>(O.numberOr("budget_skipped", 0));
      C.TestMillis = O.numberOr("millis", 0);
      if (const JsonValue *Causes = O.find("causes")) {
        for (const JsonValue &Cause : Causes->Arr) {
          DefectFamily Family;
          if (!parseDefectFamily(Cause.stringOr("family", ""), Family))
            return false;
          C.Causes.emplace(Cause.stringOr("key", ""), Family);
        }
      }
      Out.Compilers.push_back(std::move(C));
    }
  }
  return true;
}

int CampaignSummary::exitCode() const {
  // Optimisation differences are the one family the paper classifies
  // as "arguably correct in both" — they are structural (the simple
  // compiler never inlines) and present even with every defect seed
  // disabled, so they must not fail a campaign.
  for (const CompilerEvaluation &Row : Rows)
    for (const auto &[Key, Family] : Row.Causes) {
      (void)Key;
      if (Family != DefectFamily::OptimisationDifference)
        return 1;
    }
  return 0;
}

std::vector<CompilerEvaluation>
igdt::aggregateCampaignRows(const std::vector<InstructionRecord> &Records) {
  std::vector<CompilerEvaluation> Rows;
  for (CompilerKind Kind : AllCompilers) {
    CompilerEvaluation Row;
    Row.Kind = Kind;
    InstructionKind Wanted = Kind == CompilerKind::NativeMethod
                                 ? InstructionKind::NativeMethod
                                 : InstructionKind::Bytecode;
    for (const InstructionRecord &Rec : Records) {
      if (Rec.Quarantined || Rec.Kind != Wanted)
        continue;
      ++Row.TestedInstructions;
      Row.InterpreterPaths += Rec.Paths;
      Row.CuratedPaths += Rec.CuratedPaths;
      for (const CompilerOutcome &C : Rec.Compilers) {
        if (C.Kind != Kind)
          continue;
        Row.DifferingPaths += C.DifferingPaths;
        for (const auto &[Key, Family] : C.Causes)
          Row.Causes.emplace(Key, Family);
        Row.TestMillisPerInstruction.push_back(C.TestMillis);
      }
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

CampaignRunner::CampaignRunner(CampaignOptions Options)
    : Opts(std::move(Options)) {}

void CampaignRunner::appendLine(const std::string &Path,
                                const std::string &Line) const {
  if (Path.empty())
    return;
  std::lock_guard<std::mutex> Lock(IoMutex);
  std::ofstream Out(Path, std::ios::app);
  Out << Line << '\n';
}

InstructionRecord
CampaignRunner::attemptInstruction(const InstructionSpec &Spec,
                                   unsigned Attempt, Budget &ExploreBud,
                                   Budget &ReplayBud, TraceSink *Trace,
                                   ReplayArena &Arena,
                                   unsigned TierDistance) const {
  InstructionRecord Rec;
  Rec.Instruction = Spec.Name;
  Rec.Kind = Spec.Kind;
  Rec.Attempts = Attempt;

  ExplorerOptions EOpts = Opts.Harness.Explorer;
  // Cheap scheduler tier: structural caps only (solverTierCaps), so a
  // run that never trips one (CapHits == 0) is bit-identical to full
  // strength. Applied before fault arming so injected solver faults
  // fire identically at every tier.
  if (TierDistance > 0)
    EOpts.Solver = solverTierCaps(EOpts.Solver, TierDistance);
  EOpts.ExternalBudget = &ExploreBud;
  EOpts.SharedUnsat = &SolverIndex;
  EOpts.Trace = Trace;
  if (Opts.Faults.armedFor(HarnessFaultKind::SolverHang, Spec.Name, Attempt))
    EOpts.Solver.InjectSolverHang = true;
  if (Opts.Faults.armedFor(HarnessFaultKind::HeapCorruption, Spec.Name,
                           Attempt))
    EOpts.InjectHeapCorruption = true;

  auto ExploreStart = std::chrono::steady_clock::now();
  ConcolicExplorer Explorer(Opts.Harness.VM, EOpts);
  ExplorationResult R = Explorer.explore(Spec);
  Rec.ExploreMillis = Opts.RecordTimings ? millisSince(ExploreStart) : 0;
  Rec.Paths = static_cast<unsigned>(R.Paths.size());
  Rec.CuratedPaths = R.curatedCount();
  Rec.UnknownNegations = R.UnknownNegations;
  Rec.LadderRetries = R.LadderRetries;
  Rec.LadderRescues = R.LadderRescues;
  Rec.BudgetExhausted = R.BudgetExhausted;
  Rec.FrontierExhausted = R.FrontierExhausted;
  Rec.ExploreUnits = ExploreBud.spentUnits();
  Rec.Solver = R.Solver;

  // One compile-once cache per attempt, shared by every compiler kind
  // and both back-ends (keys carry both); worker-local by construction.
  JitCodeCache CodeCache;
  for (CompilerKind Kind : AllCompilers) {
    InstructionKind Wanted = Kind == CompilerKind::NativeMethod
                                 ? InstructionKind::NativeMethod
                                 : InstructionKind::Bytecode;
    if (Spec.Kind != Wanted)
      continue;

    // Worker-class faults fire as replay of the instruction's first
    // compiler begins: a real signal/hang inside a forked worker, a
    // synchronous WorkerFault in-process (see HarnessFaults.h).
    if (Opts.Faults.armedFor(HarnessFaultKind::WorkerSegfault, Spec.Name,
                             Attempt))
      triggerWorkerSegfault();
    if (Opts.Faults.armedFor(HarnessFaultKind::WorkerHang, Spec.Name, Attempt))
      triggerWorkerHang();

    auto MakeConfig = [&](bool Arm) {
      DiffTestConfig Cfg;
      Cfg.Kind = Kind;
      Cfg.UseArmBackend = Arm;
      Cfg.Cogit = Opts.Harness.Cogit;
      Cfg.Sim = Opts.Harness.Sim;
      Cfg.CrossEngineCheck = Opts.Harness.CrossEngineCheck;
      Cfg.Trace = Trace;
      if (Opts.Harness.SeedSimulationErrors && Arm)
        Cfg.Sim.MissingFPAccessors.insert(std::uint8_t(FReg::F5));
      Cfg.ReplayBudget = &ReplayBud;
      Cfg.JitStats = &Rec.Jit;
      Cfg.SimCounters = &Rec.Sim;
      Cfg.Replay = &Rec.Replay;
      if (Opts.Harness.EnableCodeCache)
        Cfg.CodeCache = &CodeCache;
      if (Opts.Harness.EnableReplayArena)
        Cfg.Arena = &Arena;
      if (Opts.Faults.armedFor(HarnessFaultKind::FrontEndThrow, Spec.Name,
                               Attempt))
        Cfg.Cogit.InjectFrontEndThrow = true;
      if (Opts.Faults.armedFor(HarnessFaultKind::SimFuelExhaustion, Spec.Name,
                               Attempt)) {
        Cfg.Sim.Fuel = 1;
        Cfg.FuelExhaustionIsHarnessFault = true;
      }
      return Cfg;
    };

    CompilerOutcome Outcome;
    Outcome.Kind = Kind;
    DifferentialTester X64(MakeConfig(/*Arm=*/false));
    DifferentialTester Arm(MakeConfig(/*Arm=*/true));

    auto Start = std::chrono::steady_clock::now();
    for (std::size_t I = 0; I < R.Paths.size(); ++I) {
      PathTestOutcome A = X64.testPath(R, I);
      PathTestOutcome B = Arm.testPath(R, I);
      if (A.Status == PathTestStatus::BudgetSkipped ||
          B.Status == PathTestStatus::BudgetSkipped)
        ++Outcome.BudgetSkipped;
      bool Differs = A.Status == PathTestStatus::Difference ||
                     B.Status == PathTestStatus::Difference;
      if (!Differs)
        continue;
      ++Outcome.DifferingPaths;
      if (A.Status == PathTestStatus::Difference)
        Outcome.Causes.emplace(A.CauseKey, A.Family);
      if (B.Status == PathTestStatus::Difference)
        Outcome.Causes.emplace(B.CauseKey, B.Family);
    }
    Outcome.TestMillis = Opts.RecordTimings ? millisSince(Start) : 0;
    Rec.Compilers.push_back(std::move(Outcome));
  }
  return Rec;
}

InstructionRecord CampaignRunner::testInstruction(
    const InstructionSpec &Spec, std::vector<CampaignIncident> &Incidents,
    TraceSink *Trace, ReplayArena &Arena, unsigned StartAttempt,
    unsigned TierDistance, std::uint64_t ExploreUnitsOverride) const {
  unsigned MaxAttempts = std::max(1u, Opts.MaxAttempts);
  std::vector<CampaignIncident> Local;
  InstructionRecord Rec;
  bool Succeeded = false;

  for (unsigned Attempt = std::max(1u, StartAttempt);
       Attempt <= MaxAttempts && !Succeeded; ++Attempt) {
    // Fresh budgets AND a fresh exploration heap per attempt: a fault
    // must not leak state into the retry. The replay arena is reused,
    // but its reset contract makes the next acquire observably fresh
    // (poison included), so the guarantee carries over.
    BudgetOptions ExploreCfg = Opts.ExploreBudget;
    // A budget-pool grant raises this run's work-unit allowance; the
    // wall/memory sides stay configuration.
    if (ExploreUnitsOverride)
      ExploreCfg.WorkUnits = ExploreUnitsOverride;
    Budget ExploreBud(ExploreCfg);
    Budget ReplayBud(Opts.ReplayBudget);
    // Events of a failed attempt stay in the stream: fault injection
    // is deterministic, so the partial prefix is too, and the attempt
    // stamp tells it apart from the retry. The exception is a
    // worker-class fault: its attempt's events can never be delivered
    // out-of-process (they died with the worker, or travelled in a
    // frame the coordinator refused), so the attempt is staged into
    // its own buffer and dropped on WorkerFault — in-process
    // topologies lose exactly the same events.
    TraceBuffer AttemptEvents;
    TraceScope Scope(Trace ? &AttemptEvents : nullptr, Spec.Name, Attempt,
                     Opts.RecordTimings);
    bool WorkerFaulted = false;
    try {
      Rec = attemptInstruction(Spec, Attempt, ExploreBud, ReplayBud,
                               Trace ? &Scope : nullptr, Arena, TierDistance);
      // The in-process equivalent of a damaged response frame: the
      // result was computed but cannot be trusted/delivered. Worker
      // processes damage the real encoded frame instead (the send path
      // in run() checks the same arming), so the fault exercises the
      // actual CRC machinery there.
      if (!inWorkerProcess() &&
          Opts.Faults.armedFor(HarnessFaultKind::PipeMessageCorruption,
                               Spec.Name, Attempt))
        triggerPipeCorruption();
      Succeeded = true;
    } catch (const WorkerFault &F) {
      CampaignIncident I;
      I.Instruction = Spec.Name;
      I.Stage = F.stage();
      I.ErrorClass = F.errorClass();
      I.Error = F.what();
      // The out-of-process coordinator never sees the failing
      // attempt's budgets (they died with the worker); the in-process
      // equivalent uses the same fixed marker so incidents match.
      I.ExploreBudget = workerOutOfBandBudgetNote();
      I.ReplayBudget = workerOutOfBandBudgetNote();
      I.Attempt = Attempt;
      Local.push_back(std::move(I));
      WorkerFaulted = true;
    } catch (const HarnessFault &F) {
      CampaignIncident I;
      I.Instruction = Spec.Name;
      I.Stage = F.stage();
      I.ErrorClass = "harness-fault";
      I.Error = F.what();
      I.ExploreBudget = ExploreBud.describe();
      I.ReplayBudget = ReplayBud.describe();
      I.Attempt = Attempt;
      Local.push_back(std::move(I));
    } catch (const std::exception &E) {
      CampaignIncident I;
      I.Instruction = Spec.Name;
      I.Stage = "explore";
      I.ErrorClass = "exception";
      I.Error = E.what();
      I.ExploreBudget = ExploreBud.describe();
      I.ReplayBudget = ReplayBud.describe();
      I.Attempt = Attempt;
      Local.push_back(std::move(I));
    }
    if (Trace && !WorkerFaulted)
      for (TraceEvent &Event : AttemptEvents.take())
        Trace->emit(std::move(Event));
  }

  if (!Succeeded) {
    Rec = InstructionRecord();
    Rec.Instruction = Spec.Name;
    Rec.Kind = Spec.Kind;
    Rec.Attempts = MaxAttempts;
    Rec.Quarantined = true;
  }

  if (Opts.Schedule.PersistYield)
    stampYield(Rec);

  for (CampaignIncident &I : Local) {
    I.Quarantined = Rec.Quarantined;
    Incidents.push_back(std::move(I));
  }
  return Rec;
}

CampaignSummary CampaignRunner::run() {
  CampaignSummary Summary;

  // Resume: later checkpoint lines win, so a record rewritten after a
  // retry supersedes the earlier one.
  std::map<std::string, InstructionRecord> Done;
  if (!Opts.CheckpointPath.empty()) {
    std::ifstream In(Opts.CheckpointPath);
    // Seal a torn final line (a coordinator SIGKILLed mid-append) with
    // a newline before any fresh append, so the first new record
    // starts its own line instead of gluing onto the fragment and
    // being lost with it.
    bool SealTornTail = false;
    if (In.seekg(0, std::ios::end) && In.tellg() > 0) {
      In.seekg(-1, std::ios::end);
      SealTornTail = In.get() != '\n';
    }
    In.clear();
    In.seekg(0);
    std::string Line;
    while (std::getline(In, Line)) {
      InstructionRecord Rec;
      if (InstructionRecord::fromJson(Line, Rec))
        Done[Rec.Instruction] = std::move(Rec);
    }
    In.close();
    if (SealTornTail)
      appendLine(Opts.CheckpointPath, "");
  }

  // Content-addressed store: consulted during planning so sharding and
  // scheduling see served items exactly like resumed ones (they count
  // toward quotas and StopAfter, and never reach a worker). The
  // eligibility gate refuses configurations whose records are not pure
  // functions of the key (VerdictStore.h).
  VerdictStore *Store =
      Opts.Store && storeEligible(Opts) ? Opts.Store : nullptr;
  if (Opts.Store)
    Summary.Metrics.add(Store ? "store.enabled" : "store.ineligible_config");
  Summary.StoreActive = Store != nullptr;
  const std::uint64_t ConfigFp = Store ? campaignConfigFingerprint(Opts) : 0;

  // Phase 1: plan the whole worklist up-front, in catalog order,
  // reproducing the serial loop's quota counting (Max* limits count
  // resumed instructions too) and StopAfter truncation (which drops
  // everything after the limit, resumed records included). Sharding
  // then cannot change *what* runs, only *where*.
  struct WorkItem {
    const InstructionSpec *Spec = nullptr;
    const InstructionRecord *Resumed = nullptr;
    /// The exact stored checkpoint line when the store key hit; the
    /// merge cursor appends it verbatim instead of dispatching.
    std::string StoreLine;
    bool FromStore = false;
  };
  std::vector<WorkItem> Work;
  unsigned Bytecodes = 0;
  unsigned Natives = 0;
  unsigned NewPlanned = 0;
  for (const InstructionSpec &Spec : allInstructions()) {
    if (!Opts.OnlyInstructions.empty() &&
        std::find(Opts.OnlyInstructions.begin(), Opts.OnlyInstructions.end(),
                  Spec.Name) == Opts.OnlyInstructions.end())
      continue;
    if (Spec.Kind == InstructionKind::Bytecode) {
      if (Opts.Harness.MaxBytecodes && Bytecodes >= Opts.Harness.MaxBytecodes)
        continue;
      ++Bytecodes;
    } else {
      if (Opts.Harness.MaxNativeMethods &&
          Natives >= Opts.Harness.MaxNativeMethods)
        continue;
      ++Natives;
    }

    auto It = Done.find(Spec.Name);
    if (It != Done.end()) {
      WorkItem Resumed;
      Resumed.Spec = &Spec;
      Resumed.Resumed = &It->second;
      Work.push_back(std::move(Resumed));
      continue;
    }
    if (Opts.StopAfter && NewPlanned >= Opts.StopAfter) {
      Summary.Stopped = true;
      break;
    }
    WorkItem Item;
    Item.Spec = &Spec;
    if (Store) {
      // A hit must parse back to this instruction's record before it is
      // trusted; anything else (corruption, a colliding key) is a miss
      // and the instruction runs fresh.
      std::string Line;
      InstructionRecord Cached;
      if (Store->lookup(resultStoreKey(Spec, ConfigFp), Line) &&
          InstructionRecord::fromJson(Line, Cached) &&
          Cached.Instruction == Spec.Name) {
        ++Summary.StoreHits;
        Item.StoreLine = std::move(Line);
        Item.FromStore = true;
      } else {
        ++Summary.StoreMisses;
      }
    }
    Work.push_back(std::move(Item));
    // Served items still count as NEW work: a warm --stop-after N run
    // covers exactly the N instructions the cold run covered.
    ++NewPlanned;
  }

  // Adaptive scheduling: the policy object replaces the atomic cursor /
  // pull queue as the source of "next instruction" (CampaignScheduler.h
  // has the determinism contract). Built over the planned worklist so
  // quota/StopAfter truncation is identical to fixed order.
  const bool Adaptive = Opts.Schedule.adaptive();
  std::unique_ptr<CampaignScheduler> Sched;
  if (Adaptive) {
    Sched = std::make_unique<CampaignScheduler>(Opts.Schedule,
                                                Opts.ExploreBudget.WorkUnits);
    for (std::size_t I = 0; I < Work.size(); ++I)
      if (!Work[I].Resumed && !Work[I].FromStore)
        Sched->addItem(I, Work[I].Spec->Name);
    if (!Opts.Schedule.WarmStartPath.empty())
      Sched->loadWarmStart(Opts.Schedule.WarmStartPath);
    Sched->finalize();
  }

  // Phase 2: execute. Workers claim unprocessed items from an atomic
  // cursor and fill per-item slots; every exploration runs on a
  // worker-local heap/arena/solver (see ConcolicExplorer.h), so
  // workers share nothing mutable but the slot handoff below.
  struct Slot {
    InstructionRecord Rec;
    std::vector<CampaignIncident> Incidents;
    std::vector<TraceEvent> Events;
    bool Skipped = false; // wall clock expired before this item ran
    bool Ready = false;
  };
  std::vector<Slot> Slots(Work.size());

  const bool Observing = !Opts.TracePath.empty() || Opts.ExtraTraceSink ||
                         Opts.CollectMetrics;

  unsigned Jobs = Opts.Jobs ? Opts.Jobs : std::thread::hardware_concurrency();
  if (Jobs == 0)
    Jobs = 1;

  std::size_t NewItems = 0;
  for (const WorkItem &W : Work)
    if (!W.Resumed && !W.FromStore)
      ++NewItems;

  // Topology: out-of-process workers when requested and fork works.
  // The pool forks here, while this process is still single-threaded —
  // the coordinator stays single-threaded for its whole life (its poll
  // loop shares the merge thread), so workers never inherit locks,
  // threads or partially-written state. A campaign-level budget forces
  // in-process execution: the pool's pull queue claims items before
  // the ledger can price them, so draws could not follow completion
  // order; the degradation below swaps in worker threads instead.
  bool UseProcs = Opts.WorkerProcesses > 0 && NewItems > 0 &&
                  Opts.TotalExploreUnits == 0 && ProcessPool::available();
  std::unique_ptr<ProcessPool> Forked;
  if (UseProcs) {
    ProcessPoolOptions POpts;
    POpts.Workers =
        unsigned(std::min<std::size_t>(Opts.WorkerProcesses, NewItems));
    POpts.DeadlineMillis = Opts.WorkerDeadlineMillis;
    POpts.BackoffMillis = Opts.WorkerBackoffMillis;
    POpts.MaxAttempts = std::max(1u, Opts.MaxAttempts);
    // One arena per worker process: constructed pre-fork, copied into
    // each child, reused across that child's items — the same reuse
    // the in-process pool gets from its per-thread arenas.
    auto WorkerArena = std::make_shared<ReplayArena>();
    Forked = std::make_unique<ProcessPool>(
        POpts, [this, &Work, Observing, WorkerArena](const PoolWorkItem &It) {
          PoolItemResult R;
          std::vector<CampaignIncident> Incidents;
          TraceBuffer Buffer;
          InstructionRecord Rec = testInstruction(
              *Work[It.Index].Spec, Incidents, Observing ? &Buffer : nullptr,
              *WorkerArena, It.StartAttempt, It.Tier, It.GrantUnits);
          // The armed pipe-corruption fault damages the real encoded
          // frame (post-CRC), exercising the coordinator's protocol
          // validation rather than simulating it.
          R.CorruptFrame =
              !Rec.Quarantined &&
              Opts.Faults.armedFor(HarnessFaultKind::PipeMessageCorruption,
                                   Work[It.Index].Spec->Name, Rec.Attempts);
          R.Payload = encodeWorkerPayload(Rec, Incidents, Buffer.take());
          return R;
        });
    if (Forked->start()) {
      Summary.Metrics.add("worker.processes", POpts.Workers);
    } else {
      Forked.reset();
      UseProcs = false;
    }
  }
  if (Opts.WorkerProcesses > 0 && NewItems > 0 && !UseProcs) {
    // Graceful degradation: fork unavailable (or refused) — match the
    // requested parallelism with in-process worker threads instead.
    Jobs = std::max(Jobs, Opts.WorkerProcesses);
    Summary.Metrics.add("worker.fallback_inprocess");
  }
  // Worker-level failure context the coordinator accumulates until the
  // item completes; merged ahead of the slot's own incidents/events.
  std::vector<std::vector<CampaignIncident>> PendingWorkerIncidents(
      UseProcs ? Work.size() : 0);
  std::vector<std::vector<TraceEvent>> PendingWorkerEvents(
      UseProcs ? Work.size() : 0);

  const bool HasDeadline = Opts.CampaignWallMillis > 0;
  const auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              HasDeadline ? Opts.CampaignWallMillis : 0));
  // Stateless check on purpose: Budget mutates state in expired() and
  // is not safe to share across threads.
  auto WallExpired = [&] {
    return HasDeadline && std::chrono::steady_clock::now() >= Deadline;
  };

  std::atomic<std::size_t> Next{0};
  std::atomic<bool> Cancelled{false};
  std::mutex SlotMutex;
  std::condition_variable SlotReady;

  // Campaign-level explore ledger (TotalExploreUnits): every dispatch
  // draws its per-instruction allowance here and refunds what the run
  // left unspent, so later dispatches see exactly the units earlier
  // ones proved they did not need. Draw 0 means the ledger is dry.
  // The ledger has the same reservation semantics as every other
  // cooperative budget (charge-then-check): a run granted N units may
  // spend N+1, and that final batch is outside the ledger — exactly as
  // a WorkUnits=1200 exploration may report 1201 spent. Billing the
  // overshoot back would tax many-small-runs schedules by one unit per
  // dispatch and skew fixed-vs-adaptive comparisons under equal
  // grants.
  const bool TotalBudget = Opts.TotalExploreUnits > 0;
  std::atomic<std::uint64_t> UnitsLeft{Opts.TotalExploreUnits};
  auto ReserveUnits = [&](std::uint64_t Want) -> std::uint64_t {
    std::uint64_t Cur = UnitsLeft.load(std::memory_order_relaxed);
    for (;;) {
      std::uint64_t Draw = Want ? std::min(Want, Cur) : Cur;
      if (Draw == 0)
        return 0;
      if (UnitsLeft.compare_exchange_weak(Cur, Cur - Draw,
                                          std::memory_order_relaxed))
        return Draw;
    }
  };
  auto RefundUnits = [&](std::uint64_t Draw, std::uint64_t Spent) {
    if (Draw > Spent)
      UnitsLeft.fetch_add(Draw - Spent, std::memory_order_relaxed);
  };

  auto RunOne = [&](std::size_t I, ReplayArena &Arena,
                    unsigned StartAttempt = 1, unsigned Tier = 0,
                    std::uint64_t GrantUnits = 0) {
    Slot S;
    if (Cancelled.load(std::memory_order_relaxed) || WallExpired()) {
      S.Skipped = true;
    } else {
      std::uint64_t Draw = 0;
      if (TotalBudget)
        Draw = ReserveUnits(GrantUnits ? GrantUnits
                                       : Opts.ExploreBudget.WorkUnits);
      if (TotalBudget && Draw == 0) {
        // Ledger dry: an honest zero-path record instead of a run. The
        // scheduler sees BudgetExhausted and can re-grant refunds; in
        // fixed order the instruction simply went unfunded.
        S.Rec.Instruction = Work[I].Spec->Name;
        S.Rec.Kind = Work[I].Spec->Kind;
        S.Rec.Attempts = 0;
        S.Rec.BudgetExhausted = true;
        if (Opts.Schedule.PersistYield)
          stampYield(S.Rec);
      } else {
        // Per-worker buffering: events never cross threads until the
        // merge loop drains the slot in catalog order.
        TraceBuffer Buffer;
        S.Rec = testInstruction(*Work[I].Spec, S.Incidents,
                                Observing ? &Buffer : nullptr, Arena,
                                StartAttempt, Tier,
                                TotalBudget ? Draw : GrantUnits);
        S.Events = Buffer.take();
        if (TotalBudget)
          RefundUnits(Draw, S.Rec.ExploreUnits);
      }
    }
    {
      std::lock_guard<std::mutex> Lock(SlotMutex);
      Slots[I] = std::move(S);
      Slots[I].Ready = true;
    }
    SlotReady.notify_all();
  };

  auto NextUnresumed = [&]() -> std::size_t {
    for (;;) {
      std::size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Work.size())
        return Work.size();
      if (!Work[I].Resumed && !Work[I].FromStore)
        return I;
    }
  };

  std::vector<std::thread> Pool;
  // Adaptive campaigns drive their own per-wave execution below; the
  // free-running fixed-order pool would race the scheduler's waves.
  if (!UseProcs && !Adaptive && Jobs > 1) {
    std::size_t Workers = std::min<std::size_t>(Jobs, Work.size());
    Pool.reserve(Workers);
    for (std::size_t W = 0; W < Workers; ++W)
      Pool.emplace_back([&] {
        // One replay arena per worker thread, like the per-attempt code
        // cache: strictly worker-local mutable state.
        ReplayArena Arena;
        for (std::size_t I = NextUnresumed(); I < Work.size();
             I = NextUnresumed())
          RunOne(I, Arena);
      });
  }

  // Phase 3: merge in catalog order on this thread. All file appends
  // happen here, in exactly the serial order; workers only hand over
  // finished slots. The trace follows the checkpoint discipline: one
  // writer, catalog order, so the JSONL bytes are Jobs-independent.
  std::ofstream TraceOut;
  std::unique_ptr<JsonlTraceSink> TraceWriter;
  if (!Opts.TracePath.empty()) {
    TraceOut.open(Opts.TracePath, std::ios::trunc);
    TraceWriter = std::make_unique<JsonlTraceSink>(TraceOut);
  }
  MetricsSink EventMetrics(Summary.Metrics);
  auto Publish = [&](TraceEvent Event) {
    // SimRun diagnostics (Aux = dispatch engine, Extra = predecode
    // cache hit) describe how the harness replayed, not what the code
    // under test did, and they change with the predecode/arena toggles.
    // Blank them here so campaign trace files and metrics stay
    // byte-identical across configurations; Session-level traces keep
    // the fields.
    if (Event.Kind == TraceEventKind::SimRun) {
      Event.Aux.clear();
      Event.Extra = 0;
    }
    // Worker lifecycle events carry which worker index / pid failed
    // (Value / Extra): pure scheduling facts. Blank them so metrics
    // and diagnostic sinks see identical streams across topologies;
    // the deterministic trace file filters the kind out entirely.
    if (Event.Kind == TraceEventKind::WorkerEvent) {
      Event.Value = 0;
      Event.Extra = 0;
    }
    if (Opts.ExtraTraceSink)
      Opts.ExtraTraceSink->emit(Event);
    if (Observing)
      EventMetrics.emit(Event);
    if (TraceWriter)
      TraceWriter->emit(std::move(Event));
  };

  auto MergeResumed = [&](const InstructionRecord &Resumed) {
    if (Resumed.Quarantined)
      Summary.Quarantined.push_back(Resumed.Instruction);
    Summary.Records.push_back(Resumed);
    ++Summary.ResumedInstructions;
  };

  // Serves one store hit: the stored line is appended to the checkpoint
  // *verbatim* (the byte-identity contract — never re-serialised), and
  // the parsed record joins the summary like a fresh one. Served items
  // emit no trace events: nothing ran, and only clean incident-free
  // records are ever stored.
  auto MergeStored = [&](WorkItem &W) {
    InstructionRecord Rec;
    InstructionRecord::fromJson(W.StoreLine, Rec); // validated at planning
    ++Summary.CompletedInstructions;
    ++Summary.StoreServed;
    if (Rec.Quarantined) // defensive: put() refuses quarantined records
      Summary.Quarantined.push_back(Rec.Instruction);
    appendLine(Opts.CheckpointPath, W.StoreLine);
    Summary.Records.push_back(std::move(Rec));
  };

  // Merges one finished slot; false when the shared wall clock marked
  // it skipped — stop merging, drop the tail (mirroring the serial
  // StopAfter break) and let the workers wind down.
  auto MergeSlot = [&](std::size_t I) -> bool {
    Slot &S = Slots[I];
    if (S.Skipped) {
      Summary.Stopped = true;
      Cancelled.store(true, std::memory_order_relaxed);
      return false;
    }
    if (UseProcs) {
      // Worker-level failures happened before the slot's own events:
      // merge them in front, stamped with the item's final disposition.
      auto &PendInc = PendingWorkerIncidents[I];
      for (CampaignIncident &Inc : PendInc)
        Inc.Quarantined = S.Rec.Quarantined;
      S.Incidents.insert(S.Incidents.begin(),
                         std::make_move_iterator(PendInc.begin()),
                         std::make_move_iterator(PendInc.end()));
      PendInc.clear();
      auto &PendEv = PendingWorkerEvents[I];
      S.Events.insert(S.Events.begin(),
                      std::make_move_iterator(PendEv.begin()),
                      std::make_move_iterator(PendEv.end()));
      PendEv.clear();
    }
    // Publish the slot's event stream before its containment summary
    // events so a reader sees attempt events, then incidents, then the
    // quarantine verdict — the order the serial run experienced them.
    for (TraceEvent &Event : S.Events)
      Publish(std::move(Event));
    for (CampaignIncident &Inc : S.Incidents) {
      // Blank the nondeterministic provenance before anything records
      // the incident: worker index and pid are scheduling/OS facts, and
      // the spent-wall figure in the budget strings is clock noise.
      // With timings off this keeps incident files (and in-memory
      // incidents) byte-comparable across topologies, mirroring the
      // SimRun Aux/Extra blanking above.
      Inc.Worker = -1;
      Inc.Pid = 0;
      if (!Opts.RecordTimings) {
        Inc.ExploreBudget = scrubBudgetWall(std::move(Inc.ExploreBudget));
        Inc.ReplayBudget = scrubBudgetWall(std::move(Inc.ReplayBudget));
      }
      if (Observing) {
        TraceEvent Event;
        Event.Kind = TraceEventKind::Containment;
        Event.Instruction = Inc.Instruction;
        Event.Attempt = Inc.Attempt;
        Event.Detail = Inc.Stage;
        Event.Aux = Inc.ErrorClass;
        Event.Value = Inc.Attempt;
        Publish(std::move(Event));
      }
      appendLine(Opts.IncidentLogPath, Inc.toJson());
      Summary.Incidents.push_back(std::move(Inc));
    }
    if (S.Rec.Quarantined && Observing) {
      TraceEvent Event;
      Event.Kind = TraceEventKind::Quarantine;
      Event.Instruction = S.Rec.Instruction;
      Event.Attempt = S.Rec.Attempts;
      Event.Value = S.Rec.Attempts;
      Publish(std::move(Event));
    }
    ++Summary.CompletedInstructions;
    if (S.Rec.Quarantined)
      Summary.Quarantined.push_back(S.Rec.Instruction);
    Summary.LiveSolver.add(S.Rec.Solver);
    std::string Line = S.Rec.toJson();
    // Only clean records enter the store: a record that needed
    // containment (or was quarantined) must re-run on the next campaign
    // so its incidents are reproduced alongside it — serving the record
    // without the incidents would break incident-file identity.
    if (Store && !S.Rec.Quarantined && S.Incidents.empty()) {
      Store->put(resultStoreKey(*Work[I].Spec, ConfigFp), S.Rec.Instruction,
                 Line);
      ++Summary.StoreStores;
    }
    appendLine(Opts.CheckpointPath, std::move(Line));
    Summary.Records.push_back(std::move(S.Rec));
    return true;
  };

  // Worker-level failure accounting shared by the fixed and adaptive
  // out-of-process coordinators: stash the incident/event so the merge
  // loop emits them ahead of the item's own stream.
  auto OnWorkerFailure = [&](std::size_t I, unsigned Attempt,
                             WorkerFailureKind Kind, const std::string &Error,
                             unsigned WorkerIdx, long Pid) {
    CampaignIncident Inc;
    Inc.Instruction = Work[I].Spec->Name;
    Inc.Stage = "worker";
    Inc.ErrorClass = workerFailureKindName(Kind);
    Inc.Error = Error;
    Inc.ExploreBudget = workerOutOfBandBudgetNote();
    Inc.ReplayBudget = workerOutOfBandBudgetNote();
    Inc.Attempt = Attempt;
    Inc.Worker = int(WorkerIdx);
    Inc.Pid = Pid;
    PendingWorkerIncidents[I].push_back(std::move(Inc));
    if (Observing) {
      TraceEvent Event;
      Event.Kind = TraceEventKind::WorkerEvent;
      Event.Instruction = Work[I].Spec->Name;
      Event.Attempt = Attempt;
      Event.Detail = workerFailureKindName(Kind);
      Event.Aux = Error;
      Event.Value = WorkerIdx;
      Event.Extra = std::uint64_t(Pid > 0 ? Pid : 0);
      PendingWorkerEvents[I].push_back(std::move(Event));
    }
  };

  // Synthesise the quarantine record the in-process retry loop would
  // have produced after the same number of failed attempts.
  auto SynthesiseQuarantine = [&](std::size_t I, unsigned Attempts) {
    Slot S;
    S.Rec.Instruction = Work[I].Spec->Name;
    S.Rec.Kind = Work[I].Spec->Kind;
    S.Rec.Attempts = Attempts;
    S.Rec.Quarantined = true;
    if (Opts.Schedule.PersistYield)
      stampYield(S.Rec);
    S.Ready = true;
    Slots[I] = std::move(S);
  };

  // Serial path: the merge thread doubles as the single worker and
  // keeps one arena for the whole campaign.
  ReplayArena SerialArena;
  if (Adaptive) {
    // Adaptive wave loop. The catalog-order merge cursor is the same
    // one the fixed coordinator uses — scheduling changes *when* an
    // instruction runs, never where its record lands, so checkpoint,
    // incident and trace bytes keep their catalog order and land
    // incrementally as the cursor reaches them.
    std::size_t Cursor = 0;
    bool Halted = false;
    auto Advance = [&] {
      while (!Halted && Cursor < Work.size()) {
        if (const InstructionRecord *Resumed = Work[Cursor].Resumed) {
          MergeResumed(*Resumed);
          ++Cursor;
          continue;
        }
        if (Work[Cursor].FromStore) {
          MergeStored(Work[Cursor]);
          ++Cursor;
          continue;
        }
        if (!Slots[Cursor].Ready)
          break;
        if (!MergeSlot(Cursor)) {
          Halted = true;
          break;
        }
        ++Cursor;
      }
    };

    // A superseded run (escalation or regrant) vanishes entirely:
    // record, incidents and buffered events are all regenerated by the
    // re-run, which restarts attempt counting so deterministic fault
    // arming and the event stream replay exactly as fixed order saw
    // them.
    auto DiscardRun = [&](std::size_t I) {
      Slots[I] = Slot();
      if (UseProcs) {
        PendingWorkerIncidents[I].clear();
        PendingWorkerEvents[I].clear();
      }
    };

    auto FeedbackOf = [&](std::size_t I) {
      const Slot &S = Slots[I];
      ScheduleFeedback F;
      F.Quarantined = S.Rec.Quarantined;
      F.BudgetExhausted = S.Rec.BudgetExhausted;
      F.FrontierExhausted = S.Rec.FrontierExhausted;
      F.HadIncidents = !S.Incidents.empty() ||
                       (UseProcs && !PendingWorkerIncidents[I].empty());
      F.UnknownNegations = S.Rec.UnknownNegations;
      F.LadderRetries = S.Rec.LadderRetries;
      F.Paths = S.Rec.Paths;
      F.CapHits = S.Rec.Solver.CapHits;
      F.SpentUnits = S.Rec.ExploreUnits;
      return F;
    };

    // Verdicts run on this (coordinating) thread only. Accept exposes
    // the slot to the merge cursor; Retry/Hold keep it invisible.
    auto ApplyVerdict = [&](const ScheduleAssignment &A) {
      std::size_t I = A.Index;
      if (Slots[I].Skipped)
        return; // wall expired: the merge will see it and halt
      switch (Sched->report(A, FeedbackOf(I))) {
      case ScheduleVerdict::Accept:
        Slots[I].Ready = true;
        break;
      case ScheduleVerdict::Retry:
        DiscardRun(I);
        break;
      case ScheduleVerdict::Hold:
        Slots[I].Ready = false;
        break;
      }
    };

    // Starved items the grant round left empty-handed: their held
    // base-budget results become final without a re-run.
    auto PublishFinalized = [&] {
      for (std::size_t I : Sched->takeFinalized())
        Slots[I].Ready = true;
    };

    while (!Halted && !Sched->done()) {
      std::vector<ScheduleAssignment> Wave = Sched->nextWave();
      PublishFinalized();
      if (Wave.empty())
        break;
      for (const ScheduleAssignment &A : Wave)
        DiscardRun(A.Index); // drop any held run this re-run supersedes

      if (UseProcs) {
        std::map<std::size_t, ScheduleAssignment> ByIndex;
        std::deque<PoolWorkItem> Items;
        for (const ScheduleAssignment &A : Wave) {
          ByIndex[A.Index] = A;
          Items.push_back({A.Index, 1, A.TierDistance, A.ExploreUnits});
        }
        ProcessPoolHooks Hooks;
        Hooks.OnResult = [&](std::size_t I, unsigned Attempt,
                             const std::string &Payload) {
          (void)Attempt;
          Slot S;
          if (!decodeWorkerPayload(Payload, S.Rec, S.Incidents, S.Events))
            return false; // undecodable == corrupt: recycle, retry
          S.Ready = true;
          Slots[I] = std::move(S);
          // The coordinator is single-threaded, so verdict + merge run
          // inline: accepted records checkpoint incrementally exactly
          // like the fixed-order coordinator's.
          ApplyVerdict(ByIndex[I]);
          Advance();
          return true;
        };
        Hooks.OnFailure = OnWorkerFailure;
        Hooks.OnExhausted = [&](std::size_t I, unsigned Attempts) {
          SynthesiseQuarantine(I, Attempts);
          ApplyVerdict(ByIndex[I]);
          Advance();
        };
        Hooks.ShouldStop = [&] { return Halted || WallExpired(); };
        Hooks.OnCounter = [&](const char *Name) { Summary.Metrics.add(Name); };

        std::vector<PoolWorkItem> Leftover =
            Forked->run(std::move(Items), Hooks);
        if (!Leftover.empty())
          Summary.Metrics.add("worker.leftover_inprocess", Leftover.size());
        for (const PoolWorkItem &It : Leftover) {
          if (Halted)
            break;
          RunOne(It.Index, SerialArena, It.StartAttempt, It.Tier,
                 It.GrantUnits);
          ApplyVerdict(ByIndex[It.Index]);
          Advance();
        }
      } else if (std::min<std::size_t>(Jobs, Wave.size()) > 1) {
        // Per-wave thread pool over an atomic wave cursor; verdicts
        // stay on this thread, consumed in wave order as slots land.
        std::atomic<std::size_t> WaveNext{0};
        std::size_t Threads = std::min<std::size_t>(Jobs, Wave.size());
        std::vector<std::thread> WavePool;
        WavePool.reserve(Threads);
        for (std::size_t W = 0; W < Threads; ++W)
          WavePool.emplace_back([&] {
            ReplayArena Arena;
            for (;;) {
              std::size_t K = WaveNext.fetch_add(1, std::memory_order_relaxed);
              if (K >= Wave.size())
                break;
              RunOne(Wave[K].Index, Arena, 1, Wave[K].TierDistance,
                     Wave[K].ExploreUnits);
            }
          });
        for (const ScheduleAssignment &A : Wave) {
          {
            std::unique_lock<std::mutex> Lock(SlotMutex);
            SlotReady.wait(Lock, [&] { return Slots[A.Index].Ready; });
          }
          ApplyVerdict(A);
          Advance();
        }
        for (std::thread &T : WavePool)
          T.join();
      } else {
        for (const ScheduleAssignment &A : Wave) {
          if (Halted)
            break;
          RunOne(A.Index, SerialArena, 1, A.TierDistance, A.ExploreUnits);
          ApplyVerdict(A);
          Advance();
        }
      }
    }
    if (Forked) {
      Forked->shutdown();
      Forked.reset();
    }
    PublishFinalized();
    Advance();
    if (WallExpired() && Cursor < Work.size())
      Summary.Stopped = true;
  } else if (!UseProcs) {
    for (std::size_t I = 0; I < Work.size(); ++I) {
      if (const InstructionRecord *Resumed = Work[I].Resumed) {
        MergeResumed(*Resumed);
        continue;
      }
      if (Work[I].FromStore) {
        MergeStored(Work[I]);
        continue;
      }
      if (Pool.empty()) {
        RunOne(I, SerialArena);
      } else {
        std::unique_lock<std::mutex> Lock(SlotMutex);
        SlotReady.wait(Lock, [&] { return Slots[I].Ready; });
      }
      if (!MergeSlot(I))
        break;
    }
  } else {
    // Out-of-process path: the coordinator poll loop and the merge
    // cursor share this thread. Results merge (and checkpoint lines
    // land) as soon as the catalog-order cursor reaches them — not
    // when the campaign ends — so a killed coordinator resumes from
    // everything already merged.
    std::size_t Cursor = 0;
    bool Halted = false;
    auto Advance = [&] {
      while (!Halted && Cursor < Work.size()) {
        if (const InstructionRecord *Resumed = Work[Cursor].Resumed) {
          MergeResumed(*Resumed);
          ++Cursor;
          continue;
        }
        if (Work[Cursor].FromStore) {
          MergeStored(Work[Cursor]);
          ++Cursor;
          continue;
        }
        if (!Slots[Cursor].Ready)
          break;
        if (!MergeSlot(Cursor)) {
          Halted = true;
          break;
        }
        ++Cursor;
      }
    };

    std::deque<PoolWorkItem> Items;
    for (std::size_t I = 0; I < Work.size(); ++I)
      if (!Work[I].Resumed && !Work[I].FromStore)
        Items.push_back({I, 1});

    ProcessPoolHooks Hooks;
    Hooks.OnResult = [&](std::size_t I, unsigned Attempt,
                         const std::string &Payload) {
      (void)Attempt;
      Slot S;
      if (!decodeWorkerPayload(Payload, S.Rec, S.Incidents, S.Events))
        return false; // undecodable == corrupt: recycle worker, retry
      S.Ready = true;
      Slots[I] = std::move(S);
      Advance();
      return true;
    };
    Hooks.OnFailure = OnWorkerFailure;
    Hooks.OnExhausted = [&](std::size_t I, unsigned Attempts) {
      SynthesiseQuarantine(I, Attempts);
      Advance();
    };
    Hooks.ShouldStop = [&] { return Halted || WallExpired(); };
    Hooks.OnCounter = [&](const char *Name) { Summary.Metrics.add(Name); };

    std::vector<PoolWorkItem> Leftover = Forked->run(std::move(Items), Hooks);
    Forked->shutdown();
    // Graceful degradation: whatever the pool could not finish (early
    // stop, or every worker dead with respawns failing) runs in this
    // process; StartAttempt carries over the attempts workers consumed.
    if (!Leftover.empty())
      Summary.Metrics.add("worker.leftover_inprocess", Leftover.size());
    for (const PoolWorkItem &It : Leftover)
      RunOne(It.Index, SerialArena, It.StartAttempt);
    Advance();
    if (WallExpired() && Cursor < Work.size())
      Summary.Stopped = true;
  }

  Cancelled.store(true, std::memory_order_relaxed);
  for (std::thread &T : Pool)
    T.join();

  // Deterministic reduction: catalog order, independent of which
  // worker produced which record.
  for (const InstructionRecord &Rec : Summary.Records) {
    Summary.Solver.add(Rec.Solver);
    Summary.Jit.add(Rec.Jit);
    Summary.Sim.add(Rec.Sim);
    Summary.Replay.add(Rec.Replay);
  }
  Summary.Rows = aggregateCampaignRows(Summary.Records);
  foldSolverStats(Summary.Metrics, Summary.Solver);
  foldJitStats(Summary.Metrics, Summary.Jit);
  foldSimStats(Summary.Metrics, Summary.Sim);
  foldReplayStats(Summary.Metrics, Summary.Replay);
  Summary.Metrics.add("campaign.instructions", Summary.CompletedInstructions);
  Summary.Metrics.add("campaign.resumed", Summary.ResumedInstructions);
  if (Opts.Store) {
    Summary.Metrics.add("store.hits", Summary.StoreHits);
    Summary.Metrics.add("store.misses", Summary.StoreMisses);
    Summary.Metrics.add("store.served", Summary.StoreServed);
    Summary.Metrics.add("store.stores", Summary.StoreStores);
    Summary.Metrics.add("store.live_solver_queries",
                        Summary.LiveSolver.Queries);
  }
  Summary.Metrics.add("campaign.quarantined", Summary.Quarantined.size());
  Summary.Metrics.add("campaign.incidents", Summary.Incidents.size());
  if (Sched) {
    Summary.ScheduleActive = true;
    Summary.Schedule = Sched->stats();
    const ScheduleStats &S = Summary.Schedule;
    Summary.Metrics.add("schedule.waves", S.Waves);
    Summary.Metrics.add("schedule.tier_escalations", S.TierEscalations);
    Summary.Metrics.add("schedule.early_exits", S.EarlyExits);
    Summary.Metrics.add("schedule.budget_pool.refunds", S.PoolRefunds);
    Summary.Metrics.add("schedule.budget_pool.refund_units",
                        S.PoolRefundUnits);
    Summary.Metrics.add("schedule.budget_pool.transfers", S.PoolGrants);
    Summary.Metrics.add("schedule.budget_pool.grant_units", S.PoolGrantUnits);
    Summary.Metrics.add("schedule.priority_inversions", S.PriorityInversions);
    Summary.Metrics.add("schedule.warm_start_entries", S.WarmStartEntries);
    Summary.Metrics.add("schedule.discarded_runs", S.DiscardedRuns);
    Summary.Metrics.add("schedule.discarded_units", S.DiscardedUnits);
  }
  return Summary;
}

ProfileReport igdt::buildCampaignProfile(const CampaignSummary &Summary,
                                         unsigned TopN) {
  ProfileReport Report;

  // Stage wall times come straight from the records (not the metrics
  // histograms, which only fill when tracing is on): explore, then one
  // replay stage per compiler in the fixed AllCompilers order.
  ProfileReport::Stage Explore;
  Explore.Name = "explore";
  std::map<std::string, double> PerInstruction;
  for (const InstructionRecord &Rec : Summary.Records) {
    if (Rec.Quarantined)
      continue;
    Explore.TotalMillis += Rec.ExploreMillis;
    Explore.Count += 1;
    PerInstruction[Rec.Instruction] += Rec.ExploreMillis;
  }
  Report.Stages.push_back(Explore);
  for (CompilerKind Kind : AllCompilers) {
    ProfileReport::Stage Test;
    Test.Name = formatString("test.%s", compilerKindName(Kind));
    for (const InstructionRecord &Rec : Summary.Records)
      for (const CompilerOutcome &Out : Rec.Compilers)
        if (Out.Kind == Kind) {
          Test.TotalMillis += Out.TestMillis;
          Test.Count += 1;
          PerInstruction[Rec.Instruction] += Out.TestMillis;
        }
    Report.Stages.push_back(Test);
  }

  // Top-N most expensive instructions, name-tie-broken so the report is
  // stable when timings are off (everything ties at zero).
  std::vector<ProfileReport::Item> Costs;
  Costs.reserve(PerInstruction.size());
  for (const auto &Entry : PerInstruction)
    Costs.push_back({Entry.first, Entry.second});
  std::sort(Costs.begin(), Costs.end(),
            [](const ProfileReport::Item &A, const ProfileReport::Item &B) {
              if (A.Millis != B.Millis)
                return A.Millis > B.Millis;
              return A.Name < B.Name;
            });
  if (Costs.size() > TopN)
    Costs.resize(TopN);
  Report.TopInstructions = std::move(Costs);

  Report.SolverQueries = Summary.Solver.Queries;
  Report.CacheHits = Summary.Solver.CacheHits;
  Report.CacheMisses = Summary.Solver.CacheMisses;
  Report.JitCompiles = Summary.Jit.Compiles;
  Report.JitCodeCacheHits = Summary.Jit.CodeCacheHits;
  if (Summary.StoreActive) {
    // Store-served (zero-work) runs keep full profiles: stage times and
    // solver totals come from the served records — the cold run's cost
    // figures — while LiveSolverQueries says what THIS run paid.
    Report.HasStore = true;
    Report.StoreServed = Summary.StoreServed;
    Report.StoreHits = Summary.StoreHits;
    Report.StoreMisses = Summary.StoreMisses;
    Report.StoreStores = Summary.StoreStores;
    Report.LiveSolverQueries = Summary.LiveSolver.Queries;
  }
  if (Summary.ScheduleActive) {
    Report.HasSchedule = true;
    Report.ScheduleWaves = Summary.Schedule.Waves;
    Report.ScheduleTierEscalations = Summary.Schedule.TierEscalations;
    Report.ScheduleEarlyExits = Summary.Schedule.EarlyExits;
    Report.SchedulePoolRefunds = Summary.Schedule.PoolRefunds;
    Report.SchedulePoolRefundUnits = Summary.Schedule.PoolRefundUnits;
    Report.SchedulePoolGrants = Summary.Schedule.PoolGrants;
    Report.SchedulePoolGrantUnits = Summary.Schedule.PoolGrantUnits;
    Report.SchedulePriorityInversions = Summary.Schedule.PriorityInversions;
    Report.ScheduleWarmStartEntries = Summary.Schedule.WarmStartEntries;
    Report.ScheduleDiscardedRuns = Summary.Schedule.DiscardedRuns;
    Report.ScheduleDiscardedUnits = Summary.Schedule.DiscardedUnits;
  }
  Report.Metrics = Summary.Metrics;
  return Report;
}
