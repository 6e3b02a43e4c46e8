//===- evalkit/CampaignRunner.cpp - Resilient evaluation campaigns -------------===//

#include "evalkit/CampaignRunner.h"

#include "evalkit/VerdictStore.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

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
  return V.dump();
}

namespace {

/// The record key of counter \p C: its name after the struct prefix
/// ("solver.queries" -> "queries").
template <typename Stats> const char *recordKey(const Counter<Stats> &C) {
  return std::strchr(C.Name, '.') + 1;
}

/// The deterministic counters of \p S, in table order. Scheduling- and
/// config-dependent ones stay out: checkpoint files must be
/// byte-identical at any Jobs value and under every harness toggle.
template <typename Stats> JsonValue countersToJson(const Stats &S) {
  JsonValue V = JsonValue::object();
  for (const Counter<Stats> &C : Stats::Counters)
    if (C.Name && C.Class == MetricClass::Deterministic)
      V.set(recordKey(C), JsonValue::number(double(S.*C.Member)));
  return V;
}

/// Reads what countersToJson wrote; false on a negative, fractional or
/// out-of-range count.
template <typename Stats> bool countersFromJson(const JsonValue &V, Stats &S) {
  for (const Counter<Stats> &C : Stats::Counters)
    if (C.Name && C.Class == MetricClass::Deterministic &&
        !V.readUnsigned(recordKey(C), S.*C.Member))
      return false;
  return true;
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
  V.set("solver", countersToJson(Solver));
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
  // Integer fields go through the checked read: a line whose count is
  // negative, fractional or out of range is corrupt, and a corrupt line
  // is a miss that re-runs.
  if (!V->readUnsigned("attempts", Out.Attempts) ||
      !V->readUnsigned("paths", Out.Paths) ||
      !V->readUnsigned("curated", Out.CuratedPaths) ||
      !V->readUnsigned("unknown_negations", Out.UnknownNegations) ||
      !V->readUnsigned("ladder_retries", Out.LadderRetries) ||
      !V->readUnsigned("ladder_rescues", Out.LadderRescues) ||
      !V->readUnsigned("explore_units", Out.ExploreUnits))
    return false;
  Out.BudgetExhausted = V->boolOr("budget_exhausted", false);
  Out.FrontierExhausted = V->boolOr("frontier_exhausted", false);
  Out.ExploreMillis = V->numberOr("explore_millis", 0);
  if (const JsonValue *Sol = V->find("solver"))
    if (!countersFromJson(*Sol, Out.Solver))
      return false;
  if (const JsonValue *Comps = V->find("compilers")) {
    for (const JsonValue &O : Comps->Arr) {
      CompilerOutcome C;
      if (!parseCompilerKind(O.stringOr("kind", ""), C.Kind))
        return false;
      if (!O.readUnsigned("differing", C.DifferingPaths) ||
          !O.readUnsigned("budget_skipped", C.BudgetSkipped))
        return false;
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

DiffTestConfig igdt::diffConfigFor(const HarnessOptions &Harness,
                                   CompilerKind Kind, bool Arm) {
  DiffTestConfig Cfg;
  Cfg.Kind = Kind;
  Cfg.UseArmBackend = Arm;
  Cfg.Cogit = Harness.Cogit;
  Cfg.Sim = Harness.Sim;
  Cfg.CrossEngineCheck = Harness.CrossEngineCheck;
  if (Harness.SeedSimulationErrors && Arm)
    Cfg.Sim.MissingFPAccessors.insert(std::uint8_t(FReg::F5));
  return Cfg;
}

CampaignRunner::CampaignRunner(CampaignOptions Options)
    : Opts(std::move(Options)) {}

InstructionRecord
CampaignRunner::attemptInstruction(const InstructionSpec &Spec,
                                   unsigned Attempt, Budget &ExploreBud,
                                   Budget &ReplayBud, TraceSink *Trace,
                                   ReplayArena &Arena) const {
  InstructionRecord Rec;
  Rec.Instruction = Spec.Name;
  Rec.Kind = Spec.Kind;
  Rec.Attempts = Attempt;

  ExplorerOptions EOpts = Opts.Harness.Explorer;
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

    auto MakeConfig = [&](bool Arm) {
      DiffTestConfig Cfg = diffConfigFor(Opts.Harness, Kind, Arm);
      Cfg.Trace = Trace;
      Cfg.ReplayBudget = &ReplayBud;
      Cfg.JitStats = &Rec.Jit;
      Cfg.SimCounters = &Rec.Sim;
      Cfg.Replay = &Rec.Replay;
      if (Opts.Harness.EnableCodeCache)
        Cfg.CodeCache = &CodeCache;
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
    TraceSink *Trace, ReplayArena &Arena) const {
  unsigned MaxAttempts = std::max(1u, Opts.MaxAttempts);
  std::vector<CampaignIncident> Local;
  InstructionRecord Rec;
  bool Succeeded = false;

  for (unsigned Attempt = 1; Attempt <= MaxAttempts && !Succeeded;
       ++Attempt) {
    // Fresh budgets AND a fresh exploration heap per attempt: a fault
    // must not leak state into the retry. The replay arena is reused,
    // but its reset contract makes the next acquire observably fresh
    // (poison included), so the guarantee carries over.
    Budget ExploreBud(Opts.ExploreWorkUnits);
    Budget ReplayBud(Opts.ReplayWorkUnits);
    // Events of a failed attempt stay in the stream: fault injection
    // is deterministic, so the partial prefix is too, and the attempt
    // stamp tells it apart from the retry.
    TraceScope Scope(Trace, Spec.Name, Attempt, Opts.RecordTimings);
    try {
      Rec = attemptInstruction(Spec, Attempt, ExploreBud, ReplayBud,
                               Trace ? &Scope : nullptr, Arena);
      Succeeded = true;
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
  }

  if (!Succeeded) {
    Rec = InstructionRecord();
    Rec.Instruction = Spec.Name;
    Rec.Kind = Spec.Kind;
    Rec.Attempts = MaxAttempts;
    Rec.Quarantined = true;
  }

  for (CampaignIncident &I : Local) {
    I.Quarantined = Rec.Quarantined;
    Incidents.push_back(std::move(I));
  }
  return Rec;
}

CampaignSummary CampaignRunner::run() {
  CampaignSummary Summary;

  JsonlAppender Checkpoint(Opts.CheckpointPath);
  JsonlAppender IncidentLog(Opts.IncidentLogPath);

  // Every reuse, resume and store hit alike, is a lookup under the
  // store's content address, so keys are derived whenever either is set.
  const bool Keyed = Opts.Store || Checkpoint.active();
  const std::uint64_t ConfigFp = Keyed ? campaignConfigFingerprint(Opts) : 0;

  // Resume: the checkpoint's records by key, later lines winning (a
  // record rewritten after a retry or a stale re-run supersedes the
  // earlier one), and the names it holds under any key or none, so a
  // record left by another configuration is re-run and counted stale.
  std::unordered_map<std::uint64_t, InstructionRecord> Resumable;
  std::unordered_set<std::string> CheckpointNames;
  forEachJsonlLine(Opts.CheckpointPath, [&](std::string &Line) {
    InstructionRecord Rec;
    std::uint64_t Key;
    if (!InstructionRecord::fromJson(Line, Rec))
      return;
    CheckpointNames.insert(Rec.Instruction);
    if (keyedLineKey(Line, Key))
      Resumable[Key] = std::move(Rec);
  });

  // Phase 1: plan the whole worklist up-front, in catalog order, with
  // quota counting (Max* limits count resumed instructions too) and
  // StopAfter truncation (which drops everything after the limit,
  // resumed records included). Jobs then cannot change *what*
  // runs, only *where*. Reuse is decided here too, checkpoint first,
  // then store: a served item never reaches a worker.
  enum class Served : std::uint8_t { No, FromCheckpoint, FromStore };
  struct WorkItem {
    const InstructionSpec *Spec = nullptr;
    /// The content address; set only when a checkpoint or store is.
    std::uint64_t Key = 0;
    Served Source = Served::No;
    /// A served item's record, parsed once at planning; the merge
    /// cursor moves it into the summary.
    InstructionRecord Record;
    /// A store hit's keyed line, which the merge cursor appends to the
    /// checkpoint verbatim.
    std::string StoreLine;
  };
  std::vector<WorkItem> Work;
  // One allocation up front: a served item carries its parsed record,
  // and growing a vector of them by doubling re-faulted fresh pages on
  // every warm daemon campaign (minor faults measured ~40x higher).
  Work.reserve(allInstructions().size());
  unsigned Bytecodes = 0;
  unsigned Natives = 0;
  unsigned NewPlanned = 0;
  std::uint64_t ResumeStale = 0;
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

    WorkItem Item;
    Item.Spec = &Spec;
    Item.Key = Keyed ? resultStoreKey(Spec, ConfigFp) : 0;
    // A reused record is trusted only under its own key and name;
    // anything else (corruption, an unkeyed line, a colliding key) is
    // a miss and the instruction runs fresh.
    auto Resumed = Resumable.find(Item.Key);
    if (Resumed != Resumable.end() &&
        Resumed->second.Instruction == Spec.Name) {
      Item.Source = Served::FromCheckpoint;
      Item.Record = std::move(Resumed->second);
      Work.push_back(std::move(Item));
      continue;
    }
    if (Opts.StopAfter && NewPlanned >= Opts.StopAfter) {
      Summary.Stopped = true;
      break;
    }
    ResumeStale += CheckpointNames.count(Spec.Name);
    std::uint64_t Stamp;
    if (Opts.Store && Opts.Store->lookup(Item.Key, Item.StoreLine) &&
        keyedLineKey(Item.StoreLine, Stamp) && Stamp == Item.Key &&
        InstructionRecord::fromJson(Item.StoreLine, Item.Record) &&
        Item.Record.Instruction == Spec.Name) {
      ++Summary.StoreHits;
      Item.Source = Served::FromStore;
    } else if (Opts.Store) {
      ++Summary.StoreMisses;
    }
    Work.push_back(std::move(Item));
    // Served items still count as NEW work: a warm --stop-after N run
    // covers exactly the N instructions the cold run covered.
    ++NewPlanned;
  }

  // The unserved items, in catalog order.
  std::vector<std::size_t> Items;
  Items.reserve(Work.size());
  for (std::size_t I = 0; I < Work.size(); ++I)
    if (Work[I].Source == Served::No)
      Items.push_back(I);

  // Phase 2: run the unserved items in catalog order. Each run fills
  // its item's slot; every exploration runs on a worker-local
  // heap/arena/solver (see ConcolicExplorer.h), so workers share
  // nothing mutable but the slot handoff below.
  struct Slot {
    InstructionRecord Rec;
    std::vector<CampaignIncident> Incidents;
    std::vector<TraceEvent> Events;
    bool Finished = false; // set by the thread that ran it, under SlotMutex
  };
  std::vector<Slot> Slots(Work.size());

  const bool Observing = !Opts.TracePath.empty() || Opts.ExtraTraceSink ||
                         Opts.CollectMetrics;

  unsigned Jobs = Opts.Jobs ? Opts.Jobs : std::thread::hardware_concurrency();
  if (Jobs == 0)
    Jobs = 1;

  std::mutex SlotMutex;
  std::condition_variable SlotFinished;

  // Runs one item (on a worker thread or on this one) and marks its
  // slot Finished.
  auto RunOne = [&](std::size_t I, ReplayArena &Arena) {
    Slot S;
    // Per-worker buffering: events never cross threads until the merge
    // loop drains the slot in catalog order.
    TraceBuffer Buffer;
    S.Rec = testInstruction(*Work[I].Spec, S.Incidents,
                            Observing ? &Buffer : nullptr, Arena);
    S.Events = Buffer.take();
    S.Finished = true;
    {
      std::lock_guard<std::mutex> Lock(SlotMutex);
      Slots[I] = std::move(S);
    }
    SlotFinished.notify_all();
  };

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
    if (Opts.ExtraTraceSink)
      Opts.ExtraTraceSink->emit(Event);
    if (Observing)
      EventMetrics.emit(Event);
    if (TraceWriter)
      TraceWriter->emit(std::move(Event));
  };

  // Serves one reused record. Only its source decides the bookkeeping:
  // a resumed record is already in the checkpoint and counts as
  // resumed; a store hit is new work, and its keyed line is appended
  // verbatim (the byte-identity contract: never re-serialised). Served
  // items emit no trace events: nothing ran.
  auto MergeServed = [&](WorkItem &W) {
    if (W.Source == Served::FromStore) {
      ++Summary.CompletedInstructions;
      ++Summary.StoreServed;
      Checkpoint.append(W.StoreLine);
    } else {
      ++Summary.ResumedInstructions;
    }
    if (W.Record.Quarantined)
      Summary.Quarantined.push_back(W.Record.Instruction);
    Summary.Records.push_back(std::move(W.Record));
  };

  // Merges one finished slot.
  auto MergeSlot = [&](std::size_t I) {
    Slot &S = Slots[I];
    // Publish the slot's event stream before its containment summary
    // events so a reader sees attempt events, then incidents, then the
    // quarantine verdict — the order the serial run experienced them.
    for (TraceEvent &Event : S.Events)
      Publish(std::move(Event));
    for (CampaignIncident &Inc : S.Incidents) {
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
      if (IncidentLog.active())
        IncidentLog.append(Inc.toJson());
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
    // Only clean records enter the store: a record that needed
    // containment (or was quarantined) must re-run on the next campaign
    // so its incidents are reproduced alongside it — serving the record
    // without the incidents would break incident-file identity.
    const bool Storable =
        Opts.Store && !S.Rec.Quarantined && S.Incidents.empty();
    // Serialised only when a store or checkpoint takes the line.
    if (Storable || Checkpoint.active()) {
      std::string Line = keyedRecordLine(Work[I].Key, S.Rec.toJson());
      if (Storable) {
        Opts.Store->put(Work[I].Key, S.Rec.Instruction, Line);
        ++Summary.StoreStores;
      }
      Checkpoint.append(Line);
    }
    Summary.Records.push_back(std::move(S.Rec));
  };

  // The catalog-order merge cursor: merges every item before End and
  // the served items that follow them. Jobs changes *when* an
  // instruction finishes, never where its record lands, so checkpoint,
  // incident and trace bytes keep their catalog order and land
  // incrementally as the cursor reaches them — a killed campaign
  // resumes from everything already merged. This thread only.
  std::size_t Cursor = 0;
  auto MergeUpTo = [&](std::size_t End) {
    for (; Cursor < Work.size() &&
           (Cursor < End || Work[Cursor].Source != Served::No);
         ++Cursor) {
      if (Work[Cursor].Source != Served::No)
        MergeServed(Work[Cursor]);
      else
        MergeSlot(Cursor);
    }
  };

  // The one pass. The unserved items run on min(Jobs, items) threads,
  // or inline on this thread (which keeps Jobs 1 campaigns thread-free).
  const std::size_t Threads = std::min<std::size_t>(Jobs, Items.size());
  if (Threads > 1) {
    // Worker threads pull from an atomic cursor; the merge stays on
    // this thread, consuming slots in catalog order as they finish.
    std::atomic<std::size_t> Next{0};
    // jthreads join when destroyed, so an exception out of the merge
    // cannot leave a worker thread running.
    std::vector<std::jthread> Workers;
    Workers.reserve(Threads);
    for (std::size_t W = 0; W < Threads; ++W)
      Workers.emplace_back([&] {
        // One replay arena per worker thread, like the per-attempt
        // code cache: strictly worker-local mutable state.
        ReplayArena Arena;
        for (std::size_t K = Next.fetch_add(1, std::memory_order_relaxed);
             K < Items.size(); K = Next.fetch_add(1, std::memory_order_relaxed))
          RunOne(Items[K], Arena);
      });
    for (std::size_t I : Items) {
      {
        std::unique_lock<std::mutex> Lock(SlotMutex);
        SlotFinished.wait(Lock, [&] { return Slots[I].Finished; });
      }
      MergeUpTo(I + 1);
    }
  } else {
    // Inline runs share one arena.
    ReplayArena Arena;
    for (std::size_t I : Items) {
      RunOne(I, Arena);
      MergeUpTo(I + 1);
    }
  }
  MergeUpTo(Work.size());

  // Deterministic reduction: catalog order, independent of which
  // worker produced which record.
  for (const InstructionRecord &Rec : Summary.Records) {
    Summary.Solver.add(Rec.Solver);
    Summary.Jit.add(Rec.Jit);
    Summary.Sim.add(Rec.Sim);
    Summary.Replay.add(Rec.Replay);
  }
  Summary.Rows = aggregateCampaignRows(Summary.Records);
  Summary.Metrics.fold(Summary.Solver);
  Summary.Metrics.fold(Summary.Jit);
  Summary.Metrics.fold(Summary.Sim);
  Summary.Metrics.fold(Summary.Replay);
  Summary.Metrics.add("campaign.instructions", Summary.CompletedInstructions);
  Summary.Metrics.add("campaign.resumed", Summary.ResumedInstructions);
  if (Checkpoint.active())
    Summary.Metrics.add("campaign.resume_stale", ResumeStale);
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
  return Summary;
}

ProfileReport igdt::buildCampaignProfile(const CampaignSummary &Summary,
                                         unsigned TopN) {
  ProfileReport Report;

  // Stage wall times come straight from the records: explore, then one
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
  Report.Metrics = Summary.Metrics;
  return Report;
}
