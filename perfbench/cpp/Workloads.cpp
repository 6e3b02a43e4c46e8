//===- perfbench/cpp/Workloads.cpp - The benchmark's three workloads -------===//

#include "Workloads.h"

#include "api/Requests.h"
#include "api/Session.h"
#include "jit/BytecodeCogit.h"
#include "jit/NativeMethodCogit.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/ResultStore.h"
#include "support/Json.h"
#include "symbolic/FrameMaterializer.h"
#include "vm/PrimitiveTable.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

using namespace igdt;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

constexpr std::array<CompilerKind, 4> Compilers = {
    CompilerKind::NativeMethod, CompilerKind::SimpleStack,
    CompilerKind::StackToRegister, CompilerKind::RegisterAllocating};

bool compiles(CompilerKind Kind, const InstructionSpec &Spec) {
  return (Kind == CompilerKind::NativeMethod) ==
         (Spec.Kind == InstructionKind::NativeMethod);
}

/// The shipped configuration: seeded defects, fixed schedule, Jobs 1,
/// --deterministic.
CampaignRequest shippedRequest() {
  CampaignRequest R;
  R.Jobs = 1;
  R.Deterministic = true;
  return R;
}

/// Counts the pipeline's trace events. Attached only where a run needs
/// counts the stats structs do not carry (fuel, code bytes, verdicts).
class CountingSink final : public TraceSink {
public:
  void emit(TraceEvent E) override {
    ++Events;
    switch (E.Kind) {
    case TraceEventKind::PathExplored:
      ++PathsExplored;
      break;
    case TraceEventKind::Compile:
      CodeBytes += E.Value;
      break;
    case TraceEventKind::SimRun:
      Fuel += E.Value;
      break;
    case TraceEventKind::PathVerdict:
      ++Verdicts[E.Detail];
      break;
    default:
      break;
    }
  }
  std::uint64_t Events = 0;
  std::uint64_t PathsExplored = 0;
  std::uint64_t CodeBytes = 0;
  std::uint64_t Fuel = 0;
  std::map<std::string, std::uint64_t> Verdicts;
};

/// The pinned reference: catalog_records.txt plus expected.json.
struct Reference {
  std::string Records;
  unsigned RecordCount = 0;
  unsigned Verdicts = 0;
  unsigned Differences = 0;
  /// Per-compiler differing paths and cause keys, as canonical JSON.
  std::string Table2;
  std::map<std::string, WorkCounts> Work;
};

bool loadReference(const std::string &Dir, Reference &Ref, std::string &Err) {
  Ref.Records = slurp(Dir + "/catalog_records.txt");
  std::optional<JsonValue> V = JsonValue::parse(slurp(Dir + "/expected.json"));
  if (Ref.Records.empty() || !V) {
    Err = "cannot read the pinned reference in " + Dir;
    return false;
  }
  Ref.RecordCount = unsigned(V->numberOr("records", 0));
  Ref.Verdicts = unsigned(V->numberOr("verdicts", 0));
  Ref.Differences = unsigned(V->numberOr("differences", 0));
  if (const JsonValue *T = V->find("table2"))
    Ref.Table2 = T->dump();
  if (const JsonValue *W = V->find("work"))
    for (const auto &[Name, Counts] : W->Obj)
      for (const auto &[Key, N] : Counts.Obj)
        Ref.Work[Name][Key] = std::uint64_t(N.Num);
  return true;
}

/// Canonical JSON of per-compiler differing paths and cause keys.
JsonValue table2Json(const std::vector<unsigned> &Differing,
                     const std::vector<std::set<std::string>> &Causes) {
  JsonValue Rows = JsonValue::array();
  for (std::size_t K = 0; K < Compilers.size(); ++K) {
    JsonValue Keys = JsonValue::array();
    for (const std::string &Key : Causes[K])
      Keys.push(JsonValue::string(Key));
    JsonValue Row = JsonValue::object();
    Row.set("compiler", JsonValue::string(compilerKindName(Compilers[K])))
        .set("differing_paths", JsonValue::number(Differing[K]))
        .set("causes", std::move(Keys));
    Rows.push(std::move(Row));
  }
  return Rows;
}

JsonValue table2Json(const std::vector<CompilerEvaluation> &Rows) {
  std::vector<unsigned> Differing(Compilers.size());
  std::vector<std::set<std::string>> Causes(Compilers.size());
  for (const CompilerEvaluation &Row : Rows)
    for (std::size_t K = 0; K < Compilers.size(); ++K)
      if (Row.Kind == Compilers[K]) {
        Differing[K] = Row.DifferingPaths;
        for (const auto &[Key, Family] : Row.Causes)
          Causes[K].insert(Key);
      }
  return table2Json(Differing, Causes);
}

/// The records as checkpoint lines, with the wall-clock fields zeroed.
std::string recordsText(std::vector<InstructionRecord> Records) {
  std::string Text;
  for (InstructionRecord &R : Records) {
    R.ExploreMillis = 0;
    for (CompilerOutcome &C : R.Compilers)
      C.TestMillis = 0;
    Text += R.toJson();
    Text += '\n';
  }
  return Text;
}

std::string checkAgainst(const WorkCounts &Expected, const WorkCounts &Actual,
                         const std::string &What) {
  if (Expected.empty())
    return "expected.json pins no work counts for " + What;
  std::string D = diffCounts(Expected, Actual);
  return D.empty() ? "" : What + " work counts differ: " + D;
}

/// Runs \p Unit until \p Seconds have passed and at least \p MinUnits
/// units ran.
template <typename F>
void timeLoop(double Seconds, std::size_t MinUnits, F Unit) {
  auto T0 = Clock::now();
  for (std::size_t N = 0; N < MinUnits || millisSince(T0) < Seconds * 1000; ++N)
    Unit();
}

/// Units per timed phase: enough for a supported p90.
const std::size_t MinUnits = minSamplesFor(0.9);

/// Solver counts of one unit as per-layer metrics.
void addSolverLayer(std::map<std::string, double> &L, const SolverStats &S) {
  L["solver.queries"] = double(S.Queries);
  L["solver.nodes"] = double(S.NodesExplored);
  L["solver.full_solves"] = double(S.FullSolves);
  L["solver.prefix_reuse_solves"] = double(S.PrefixReuseSolves);
  L["solver.cache_hits"] = double(S.CacheHits);
  L["solver.unknown"] = double(S.UnknownCount);
  L["solver.sat_ratio"] = S.Queries ? double(S.SatCount) / S.Queries : 0;
}

/// Compile, simulator and replay counts of one unit as per-layer
/// metrics; \p Sink saw that unit's events.
void addReplayLayer(std::map<std::string, double> &L, const JitCacheStats &Jit,
                    const SimStats &Sim, const ReplayStats &Replay,
                    const CountingSink &Sink) {
  L["jit.compile_calls"] = double(Jit.Compiles);
  L["jit.code_cache_hits"] = double(Jit.CodeCacheHits);
  L["jit.code_bytes"] = double(Sink.CodeBytes);
  L["sim.runs"] = double(Sim.Runs);
  L["sim.predecode_builds"] = double(Sim.PredecodeBuilds);
  L["sim.predecode_hits"] = double(Sim.PredecodeHits);
  L["sim.fuel"] = double(Sink.Fuel);
  L["differential.heap_resets"] = double(Replay.HeapResets);
  L["differential.stack_bytes_reset"] = double(Replay.StackBytesReset);
  std::uint64_t Calls = 0;
  for (const auto &[Status, Count] : Sink.Verdicts) {
    Calls += Count;
    std::string Key = Status;
    std::replace(Key.begin(), Key.end(), '-', '_');
    L["differential.verdict_" + Key] = double(Count);
  }
  L["differential.testpath_calls"] = double(Calls);
}

//===----------------------------------------------------------------------===//
// catalog: repeated cold full-catalog campaigns
//===----------------------------------------------------------------------===//

struct CatalogUnit {
  CampaignSummary Summary;
  double Millis = 0;
  double CampaignMillis = 0;
};

/// One cold campaign. With \p Spans set (traced runs) the records carry
/// wall-clock timings and the simulator times its runs.
CatalogUnit runCampaignUnit(TraceSink *Sink, SpanRecorder *Spans) {
  SessionConfig Cfg = shippedRequest().toSessionConfig();
  if (Spans) {
    Cfg.Deterministic = false;
    Cfg.Campaign.RecordTimings = true;
    Cfg.sim().TimeRuns = true;
  }
  Cfg.Campaign.ExtraTraceSink = Sink;
  CatalogUnit U;
  auto T0 = Clock::now();
  {
    SpanScope Unit(Spans, "catalog.unit");
    Session S(Cfg);
    auto C0 = Clock::now();
    SpanScope Campaign(Spans, "evalkit.runCampaign");
    U.Summary = S.runCampaign();
    U.CampaignMillis = millisSince(C0);
  }
  U.Millis = millisSince(T0);
  return U;
}

WorkCounts catalogWork(const CampaignSummary &S) {
  std::uint64_t Paths = 0;
  for (const InstructionRecord &R : S.Records)
    Paths += R.Paths;
  return {{"records", S.Records.size()},
          {"paths", Paths},
          {"solver.queries", S.Solver.Queries},
          {"solver.nodes", S.Solver.NodesExplored},
          {"jit.compiles", S.Jit.Compiles},
          {"jit.code_cache_hits", S.Jit.CodeCacheHits},
          {"sim.runs", S.Sim.Runs}};
}

/// Checks one campaign; a traced run passes \p Traced to collect the
/// record serialisation time it measures on the way.
std::string checkCatalog(const CampaignSummary &S, const Reference &Ref,
                         SpanRecorder *Spans, RunResult *Traced) {
  if (!S.Incidents.empty() || !S.Quarantined.empty())
    return "campaign reported incidents or quarantines";
  std::string Text;
  {
    SpanScope Json(Spans, "support.record_json");
    auto T0 = Clock::now();
    Text = recordsText(S.Records);
    if (Traced) {
      Traced->Layer["support.record_json_ms"] += millisSince(T0);
      Traced->Layer["support.record_json_bytes"] += double(Text.size());
    }
  }
  if (Text != Ref.Records)
    return "records differ from reference/catalog_records.txt";
  if (table2Json(S.Rows).dump() != Ref.Table2)
    return "per-compiler differing paths or cause keys differ from the "
           "reference";
  return "";
}

bool runCatalog(const RunOptions &Opts, const Reference &Ref, RunResult &Res) {
  Res.RecordsPerUnit = Ref.RecordCount;
  // Set-up: the first campaign of a process pays for cold caches and
  // lazy initialisation; users pay it once, so it is set-up, not a unit.
  {
    CatalogUnit Warm = runCampaignUnit(nullptr, nullptr);
    Res.unit(checkCatalog(Warm.Summary, Ref, nullptr, nullptr));
  }
  Res.SetupDone = Clock::now();
  if (Opts.SetupOnly)
    return true;

  WorkCounts First;
  auto Phase = [&](double Seconds, bool Traced) {
    SpanRecorder *Spans = Traced ? &Res.Spans : nullptr;
    timeLoop(Seconds, MinUnits, [&] {
      CatalogUnit U = runCampaignUnit(nullptr, Spans);
      (Traced ? Res.TracedUnitMillis : Res.UnitMillis).push_back(U.Millis);
      WorkCounts W = catalogWork(U.Summary);
      if (First.empty())
        First = W;
      std::string Err =
          checkCatalog(U.Summary, Ref, Spans, Traced ? &Res : nullptr);
      if (Err.empty() && W != First)
        Err = "work counts changed between units: " + diffCounts(First, W);
      Res.unit(Err);
      if (!Traced)
        return;
      Res.Spans.endUnit();
      double Explore = 0, Test = 0;
      for (const InstructionRecord &R : U.Summary.Records) {
        Explore += R.ExploreMillis;
        for (const CompilerOutcome &C : R.Compilers)
          Test += C.TestMillis;
      }
      Res.Layer["evalkit.campaign_ms"] += U.CampaignMillis;
      Res.Layer["concolic.explore_ms"] += Explore;
      Res.Layer["differential.testpath_ms"] += Test;
      Res.Layer["evalkit.self_ms"] += U.CampaignMillis - Explore - Test;
      Res.Layer["sim.run_ms"] += double(U.Summary.Sim.RunNanos) / 1e6;
    });
    // Per-unit means of the traced phase.
    if (Traced)
      for (auto &[Name, V] : Res.Layer)
        V /= double(Res.TracedUnitMillis.size());
  };

  if (Opts.Trace) {
    Phase(Opts.Seconds / 2, false);
    Phase(Opts.Seconds / 2, true);
  } else {
    Phase(Opts.Seconds, false);
  }

  // One untimed unit with the event counter attached, for the work
  // counts the stats structs do not carry.
  CountingSink Sink;
  CatalogUnit U = runCampaignUnit(&Sink, nullptr);
  const CampaignSummary &S = U.Summary;
  Res.Work = catalogWork(S);
  Res.Work["sim.fuel"] = Sink.Fuel;
  Res.Work["trace.events"] = Sink.Events;
  std::uint64_t Verdicts = 0;
  for (const auto &[Status, Count] : Sink.Verdicts)
    Verdicts += Count;
  std::uint64_t Differences = Sink.Verdicts["difference"];
  Res.Work["verdicts"] = Verdicts;
  Res.Work["differences"] = Differences;
  std::string Err = checkCatalog(S, Ref, nullptr, nullptr);
  if (Err.empty() &&
      (Verdicts != Ref.Verdicts || Differences != Ref.Differences))
    Err = "verdict totals differ from the reference";
  if (Err.empty())
    Err = checkAgainst(Ref.Work.at("catalog"), Res.Work, "catalog");
  Res.unit(Err);
  if (!Opts.Trace)
    return true;

  unsigned Curated = 0, Paths = 0;
  for (const InstructionRecord &R : S.Records) {
    Curated += R.CuratedPaths;
    Paths += R.Paths;
  }
  auto &L = Res.Layer;
  L["evalkit.store_hits"] = double(S.StoreHits);
  L["evalkit.store_misses"] = double(S.StoreMisses);
  L["evalkit.store_writes"] = double(S.StoreStores);
  L["concolic.explore_calls"] = double(S.Records.size());
  L["concolic.iterations"] = double(Sink.PathsExplored);
  L["concolic.paths"] = Paths;
  L["concolic.curated_ratio"] = Paths ? double(Curated) / Paths : 0;
  addSolverLayer(L, S.Solver);
  addReplayLayer(L, S.Jit, S.Sim, S.Replay, Sink);
  return true;
}

//===----------------------------------------------------------------------===//
// retest: explore once, replay every path many times
//===----------------------------------------------------------------------===//

struct RetestRig {
  std::unique_ptr<Session> Sess;
  std::vector<ExplorationResult> Explored;
  double ExploreMillis = 0;
  /// (instruction, compiler index, arm back-end), in seeded order.
  struct Group {
    std::size_t Inst;
    std::size_t Kind;
    bool Arm;
  };
  std::vector<Group> Groups;
  std::array<std::array<DiffTestConfig, 2>, 4> Base;
};

void setUpRetest(RetestRig &Rig, std::uint64_t Seed) {
  Rig.Sess = std::make_unique<Session>(shippedRequest().toSessionConfig());
  Rig.Explored.clear();
  auto T0 = Clock::now();
  for (const InstructionSpec &Spec : allInstructions())
    Rig.Explored.push_back(Rig.Sess->explore(Spec));
  Rig.ExploreMillis = millisSince(T0);

  std::vector<RetestRig::Group> All;
  for (std::size_t I = 0; I < Rig.Explored.size(); ++I)
    for (std::size_t K = 0; K < Compilers.size(); ++K)
      if (compiles(Compilers[K], *Rig.Explored[I].Spec))
        for (bool Arm : {false, true})
          All.push_back({I, K, Arm});
  Rig.Groups.clear();
  for (std::size_t P : seededPermutation(All.size(), Seed))
    Rig.Groups.push_back(All[P]);
  for (std::size_t K = 0; K < Compilers.size(); ++K)
    for (bool Arm : {false, true})
      Rig.Base[K][Arm] = Rig.Sess->diffConfig(Compilers[K], Arm);
}

struct PassResult {
  JitCacheStats Jit;
  SimStats Sim;
  ReplayStats Replay;
  std::map<std::string, std::uint64_t> Verdicts;
  /// Per compiler: differing paths (either back-end) and cause keys.
  std::vector<unsigned> Differing = std::vector<unsigned>(Compilers.size());
  std::vector<std::set<std::string>> Causes =
      std::vector<std::set<std::string>>(Compilers.size());
  double Millis = 0;
  double MaterializeMillis = 0;
  double CompileMillis = 0;
  std::uint64_t Materializes = 0;
};

/// One re-test pass. With \p Spans set, each testPath is a span, and the
/// materialise and compile steps it performs are timed again on a probe
/// heap right after it, as sibling spans.
PassResult retestPass(RetestRig &Rig, TraceSink *Sink, SpanRecorder *Spans) {
  PassResult P;
  // Per (instruction, compiler): which paths differed on either back-end.
  std::vector<std::vector<std::uint8_t>> Flags(Rig.Explored.size() *
                                               Compilers.size());
  std::unique_ptr<ReplayArena> Probe;
  if (Spans)
    Probe = std::make_unique<ReplayArena>();

  auto T0 = Clock::now();
  {
    SpanScope Unit(Spans, "retest.unit");
    ReplayArena Arena;
    std::vector<JitCodeCache> Caches(Rig.Explored.size());
    for (const RetestRig::Group &G : Rig.Groups) {
      DiffTestConfig Cfg = Rig.Base[G.Kind][G.Arm];
      Cfg.CodeCache = &Caches[G.Inst];
      Cfg.Arena = &Arena;
      Cfg.JitStats = &P.Jit;
      Cfg.SimCounters = &P.Sim;
      Cfg.Replay = &P.Replay;
      Cfg.Trace = Sink;
      Cfg.Sim.TimeRuns = Spans != nullptr;
      DifferentialTester Tester(Cfg);
      const ExplorationResult &R = Rig.Explored[G.Inst];
      std::vector<std::uint8_t> &Differs =
          Flags[G.Inst * Compilers.size() + G.Kind];
      Differs.resize(R.Paths.size());
      for (std::size_t I = 0; I < R.Paths.size(); ++I) {
        std::uint64_t CompilesBefore = P.Jit.Compiles;
        PathTestOutcome O;
        {
          SpanScope Test(Spans, "differential.testPath");
          O = Tester.testPath(R, I);
        }
        ++P.Verdicts[pathTestStatusName(O.Status)];
        if (O.Status == PathTestStatus::Difference) {
          Differs[I] = 1;
          P.Causes[G.Kind].insert(O.CauseKey);
        }
        const PathSolution &Path = R.Paths[I];
        if (!Probe || !Path.Curated || Path.Exit == ExitKind::InvalidFrame ||
            Path.Exit == ExitKind::InvalidMemoryAccess)
          continue;
        ObjectMemory &Mem = Probe->acquireHeap(nullptr);
        auto M0 = Clock::now();
        MaterializedFrame MF;
        {
          SpanScope Mat(Spans, "symbolic.materialize");
          MF = FrameMaterializer(Mem, *R.Builder).materialize(Path.InputModel,
                                                              *R.Method);
        }
        P.MaterializeMillis += millisSince(M0);
        ++P.Materializes;
        if (P.Jit.Compiles == CompilesBefore)
          continue; // served from the code cache: no compile to time
        const MachineDesc &Desc = G.Arm ? armDesc() : x64Desc();
        auto C0 = Clock::now();
        {
          SpanScope Compile(Spans, "jit.compile");
          if (R.Spec->Kind == InstructionKind::NativeMethod) {
            CompiledCode Code = NativeMethodCogit(Mem, Desc, Cfg.Cogit)
                                    .compile(R.Spec->PrimitiveIndex);
            (void)Code;
          } else {
            auto Code = BytecodeCogit(Compilers[G.Kind], Mem, Desc, Cfg.Cogit)
                            .compile(*R.Method, MF.Concrete.Stack);
            (void)Code;
          }
        }
        P.CompileMillis += millisSince(C0);
      }
    }
  }
  P.Millis = millisSince(T0);
  for (std::size_t F = 0; F < Flags.size(); ++F)
    for (std::uint8_t D : Flags[F])
      P.Differing[F % Compilers.size()] += D;
  return P;
}

WorkCounts retestWork(const PassResult &P) {
  WorkCounts W = {{"jit.compiles", P.Jit.Compiles},
                  {"jit.code_cache_hits", P.Jit.CodeCacheHits},
                  {"sim.runs", P.Sim.Runs},
                  {"sim.predecode_builds", P.Sim.PredecodeBuilds},
                  {"replay.heap_resets", P.Replay.HeapResets}};
  for (const auto &[Status, Count] : P.Verdicts)
    W["verdict." + Status] = Count;
  return W;
}

std::string checkPass(const PassResult &P, const Reference &Ref) {
  std::uint64_t Verdicts = 0;
  for (const auto &[Status, Count] : P.Verdicts)
    Verdicts += Count;
  auto Diff = P.Verdicts.find("difference");
  std::uint64_t Differences = Diff == P.Verdicts.end() ? 0 : Diff->second;
  if (Verdicts != Ref.Verdicts || Differences != Ref.Differences)
    return "re-test gave " + std::to_string(Verdicts) + " verdicts and " +
           std::to_string(Differences) + " differences";
  if (table2Json(P.Differing, P.Causes).dump() != Ref.Table2)
    return "re-test per-compiler differing paths or cause keys differ from "
           "the catalog's";
  return "";
}

bool runRetest(const RunOptions &Opts, const Reference &Ref, RunResult &Res) {
  Res.RecordsPerUnit = Ref.RecordCount;
  RetestRig Rig;
  setUpRetest(Rig, Opts.Seed);
  // A warm-up pass fills the allocator and instruction caches.
  Res.unit(checkPass(retestPass(Rig, nullptr, nullptr), Ref));
  Res.SetupDone = Clock::now();
  if (Opts.SetupOnly)
    return true;

  WorkCounts First;
  auto Phase = [&](double Seconds, bool Traced) {
    SpanRecorder *Spans = Traced ? &Res.Spans : nullptr;
    double Materialize = 0, Compile = 0, SimRun = 0;
    timeLoop(Seconds, MinUnits, [&] {
      PassResult P = retestPass(Rig, nullptr, Spans);
      WorkCounts W = retestWork(P);
      if (First.empty())
        First = W;
      std::string Err = checkPass(P, Ref);
      if (Err.empty() && W != First)
        Err = "work counts changed between passes: " + diffCounts(First, W);
      Res.unit(Err);
      if (!Traced) {
        Res.UnitMillis.push_back(P.Millis);
        return;
      }
      // The traced unit time excludes the probe re-runs.
      Res.TracedUnitMillis.push_back(P.Millis - P.MaterializeMillis -
                                     P.CompileMillis);
      Materialize += P.MaterializeMillis;
      Compile += P.CompileMillis;
      SimRun += double(P.Sim.RunNanos) / 1e6;
      Res.Spans.endUnit();
      Res.Layer["symbolic.materialize_calls"] = double(P.Materializes);
    });
    if (!Traced)
      return;
    double N = double(Res.TracedUnitMillis.size());
    double Testpath =
        double(Res.Spans.totals().at("differential.testPath").TotalNanos) / 1e6;
    auto &L = Res.Layer;
    L["differential.testpath_ms"] = Testpath / N;
    L["symbolic.materialize_ms"] = Materialize / N;
    L["jit.compile_ms"] = Compile / N;
    L["sim.run_ms"] = SimRun / N;
    L["differential.self_ms"] = (Testpath - Materialize - Compile - SimRun) / N;
    L["differential.accounted_ratio"] =
        Testpath > 0 ? (Materialize + Compile + SimRun) / Testpath : 0;
  };

  if (Opts.Trace) {
    Phase(Opts.Seconds / 2, false);
    Phase(Opts.Seconds / 2, true);
  } else {
    Phase(Opts.Seconds, false);
  }

  CountingSink Sink;
  PassResult P = retestPass(Rig, &Sink, nullptr);
  Res.Work = retestWork(P);
  Res.Work["sim.fuel"] = Sink.Fuel;
  Res.Work["jit.code_bytes"] = Sink.CodeBytes;
  std::string Err = checkPass(P, Ref);
  if (Err.empty())
    Err = checkAgainst(Ref.Work.at("retest"), Res.Work, "retest");
  Res.unit(Err);

  if (Opts.Trace) {
    auto &L = Res.Layer;
    unsigned Paths = 0, Curated = 0, Iterations = 0;
    SolverStats Solver;
    for (const ExplorationResult &R : Rig.Explored) {
      Paths += unsigned(R.Paths.size());
      Curated += R.curatedCount();
      Iterations += R.Iterations;
      Solver.add(R.Solver);
    }
    // Exploration happens once, in set-up; these describe that set-up.
    L["concolic.explore_calls"] = double(Rig.Explored.size());
    L["concolic.explore_ms"] = Rig.ExploreMillis;
    L["concolic.iterations"] = Iterations;
    L["concolic.paths"] = Paths;
    L["concolic.curated_ratio"] = Paths ? double(Curated) / Paths : 0;
    addSolverLayer(L, Solver);
    addReplayLayer(L, P.Jit, P.Sim, P.Replay, Sink);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// daemon: request round trips through an in-process daemon
//===----------------------------------------------------------------------===//

/// A store populated by one cold campaign, and a daemon serving it on a
/// scratch socket, in a directory of their own that the destructor
/// removes. The daemon can be restarted over the same store.
class DaemonRig {
public:
  explicit DaemonRig(const std::string &Dir) : Dir(Dir) {}
  ~DaemonRig() {
    stopDaemon();
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  DaemonRig(const DaemonRig &) = delete;
  DaemonRig &operator=(const DaemonRig &) = delete;

  /// Fills the store with an in-process cold campaign on the same file
  /// the daemon opens, keeping its checkpoint as the reference bytes.
  bool populate(std::string &Err) {
    std::filesystem::create_directories(Dir);
    CampaignRequest Req = request(ColdCheckpoint);
    {
      ResultStore Store(StorePath);
      Session S(Req.toSessionConfig());
      CampaignSummary Summary = S.runCampaign(Req, &Store);
      for (const InstructionRecord &R : Summary.Records) {
        Names.push_back(R.Instruction);
        Queries.push_back(R.Solver.Queries);
      }
    }
    ColdBytes = slurp(ColdCheckpoint);
    if (ColdBytes.empty())
      Err = "cold campaign wrote no checkpoint";
    return !ColdBytes.empty();
  }

  bool startDaemon(std::string &Err) {
    DaemonOptions DOpts;
    DOpts.SocketPath = Socket;
    DOpts.Service.StorePath = StorePath;
    // Only bounds how long stop() takes to be noticed.
    DOpts.PollMillis = 20;
    Own = std::make_unique<Daemon>(DOpts);
    if (!Own->start(&Err)) {
      Own.reset();
      return false;
    }
    Thread = std::thread([this] { Own->run(); });
    return true;
  }

  /// Stops the daemon and joins every thread it started.
  void stopDaemon() {
    if (!Own)
      return;
    Own->stop();
    Thread.join();
    Own.reset();
    std::remove(Socket.c_str());
  }

  CampaignRequest request(const std::string &Checkpoint) const {
    CampaignRequest Req = shippedRequest();
    Req.StorePath = StorePath;
    Req.CheckpointPath = Checkpoint;
    return Req;
  }

  std::string Dir;
  std::string Socket = Dir + "/d.sock";
  std::string StorePath = Dir + "/store.log";
  std::string ColdCheckpoint = Dir + "/cold.ckpt";
  std::string UnitCheckpoint = Dir + "/unit.ckpt";
  std::string ColdBytes;
  std::vector<std::string> Names;
  std::vector<std::uint64_t> Queries;

private:
  std::unique_ptr<Daemon> Own;
  std::thread Thread;
};

struct RoundTrip {
  double Millis = 0;
  unsigned Calls = 0;
  unsigned Subscribes = 0;
  std::uint64_t Events = 0;
  double SubscribeMillis = 0;
  double InvalidateMillis = 0;
  StatusReply Status;
};

/// One unit: [invalidate,] submit, subscribe until done, status. Then
/// the output check, outside the timed part.
std::string roundTrip(DaemonRig &Rig, const DaemonOp &Op, RoundTrip &T,
                      SpanRecorder *Spans) {
  ServiceClient Client(Rig.Socket);
  std::remove(Rig.UnitCheckpoint.c_str());
  std::string Err, SessionId;
  std::size_t Removed = 0;
  bool Ok = true;
  auto T0 = Clock::now();
  {
    SpanScope Unit(Spans, Op.Write ? "daemon.write" : "daemon.read");
    if (Op.Write) {
      SpanScope S(Spans, "service.invalidate");
      auto I0 = Clock::now();
      Ok = Client.invalidate(Rig.StorePath, Rig.Names[Op.Target], Removed,
                             &Err);
      T.InvalidateMillis = millisSince(I0);
      ++T.Calls;
    }
    if (Ok) {
      SpanScope S(Spans, "service.submit");
      Ok = Client.submit(Rig.request(Rig.UnitCheckpoint), false, SessionId,
                         &Err);
      ++T.Calls;
    }
    std::uint64_t Cursor = 0;
    bool Done = false;
    while (Ok && !Done) {
      SpanScope S(Spans, "service.subscribe");
      auto S0 = Clock::now();
      std::vector<std::string> Events;
      Ok = Client.subscribe(SessionId, Cursor, Events, Done, &Err);
      T.SubscribeMillis += millisSince(S0);
      T.Events += Events.size();
      ++T.Subscribes;
      ++T.Calls;
    }
    if (Ok) {
      SpanScope S(Spans, "service.status");
      Ok = Client.status(SessionId, T.Status, &Err);
      ++T.Calls;
    }
  }
  T.Millis = millisSince(T0);
  if (!Ok)
    return "transport: " + Err;
  const StatusReply &St = T.Status;
  if (St.State != "done" || St.Total != Rig.Names.size())
    return "session ended " + St.State + " " + St.Error;
  if (!Op.Write && (St.StoreServed != St.Total || St.LiveSolverQueries != 0))
    return "warm read was not served from the store";
  if (Op.Write && (Removed != 1 || St.Total - St.StoreServed != 1 ||
                   St.LiveSolverQueries != Rig.Queries[Op.Target]))
    return "write of " + Rig.Names[Op.Target] +
           " did not re-explore exactly that instruction";
  if (slurp(Rig.UnitCheckpoint) != Rig.ColdBytes)
    return "checkpoint differs from the cold one";
  return "";
}

bool runDaemon(const RunOptions &Opts, const Reference &Ref, RunResult &Res) {
  Res.RecordsPerUnit = Ref.RecordCount;
  const unsigned ReadsPerWrite = 3;
  DaemonRig Rig(Opts.ScratchDir + "/daemon");
  // One untimed warm read after every daemon start: the daemon opens
  // and loads the store on its first request.
  auto Start = [&](std::string &Err) {
    if (!Rig.startDaemon(Err))
      return false;
    RoundTrip Warm;
    Res.unit(roundTrip(Rig, DaemonOp{}, Warm, nullptr));
    return true;
  };
  std::string Err;
  if (!Rig.populate(Err) || !Start(Err)) {
    Res.Errors.push_back("daemon set-up: " + Err);
    return false;
  }
  if (Rig.Names.size() != Ref.RecordCount)
    Res.unit("cold campaign produced " + std::to_string(Rig.Names.size()) +
             " records");
  Res.SetupDone = Clock::now();
  if (Opts.SetupOnly)
    return true;

  WorkCounts Reads, Writes;
  // The run is made of whole rounds: every instruction written once, in
  // a seeded order, among three times as many reads. Each round after
  // the first gets a freshly started daemon over the same store, so
  // what the daemon keeps per request cannot pile up across rounds
  // while the store log still grows for the whole run.
  std::uint64_t Round = 0;
  auto Phase = [&](double Seconds, bool Traced) {
    SpanRecorder *Spans = Traced ? &Res.Spans : nullptr;
    std::vector<double> ReadMs, WriteMs, Units;
    double Subscribe = 0, Invalidate = 0, Json = 0, JsonBytes = 0;
    std::uint64_t Calls = 0, Subscribes = 0, Events = 0, Hits = 0, Misses = 0,
                  Live = 0;
    std::vector<DaemonOp> Ops;
    auto T0 = Clock::now();
    for (std::size_t Next = 0;; ++Next) {
      if (Next == Ops.size()) {
        if (!Ops.empty() && millisSince(T0) >= Seconds * 1000)
          break;
        if (Round > 0) {
          Rig.stopDaemon();
          std::string Err;
          if (!Start(Err)) {
            Res.unit("daemon restart: " + Err);
            break;
          }
        }
        Ops = daemonMix(Opts.Seed * 7919 + Round++, Rig.Names.size(),
                        ReadsPerWrite);
        Next = 0;
      }
      const DaemonOp &Op = Ops[Next];
      RoundTrip T;
      std::string Err = roundTrip(Rig, Op, T, Spans);
      Res.unit(Err);
      Units.push_back(T.Millis);
      (Op.Write ? WriteMs : ReadMs).push_back(T.Millis);
      WorkCounts &W = Op.Write ? Writes : Reads;
      W["units"] += 1;
      W["events"] += T.Events;
      W["store_served"] += T.Status.StoreServed;
      W["live_solver_queries"] += T.Status.LiveSolverQueries;
      Calls += T.Calls;
      Subscribes += T.Subscribes;
      Events += T.Events;
      Subscribe += T.SubscribeMillis;
      Invalidate += T.InvalidateMillis;
      Hits += T.Status.StoreServed;
      Misses += T.Status.Total - T.Status.StoreServed;
      Live += T.Status.LiveSolverQueries;
      if (Traced && Err.empty()) {
        // Record serialisation, re-done on this unit's records.
        SpanScope S(Spans, "support.record_json");
        std::vector<InstructionRecord> Records;
        std::istringstream Lines(Rig.ColdBytes);
        for (std::string Line; std::getline(Lines, Line);) {
          Records.emplace_back();
          InstructionRecord::fromJson(Line, Records.back());
        }
        auto J0 = Clock::now();
        for (const InstructionRecord &R : Records)
          JsonBytes += double(R.toJson().size());
        Json += millisSince(J0);
      }
      if (Traced)
        Res.Spans.endUnit();
    }
    (Traced ? Res.TracedUnitMillis : Res.UnitMillis)
        .insert((Traced ? Res.TracedUnitMillis : Res.UnitMillis).end(),
                Units.begin(), Units.end());
    // Drift: reads of the first and last tenth of the run.
    std::size_t Tenth = std::max<std::size_t>(1, ReadMs.size() / 10);
    std::vector<double> Early(ReadMs.begin(), ReadMs.begin() + Tenth);
    std::vector<double> Late(ReadMs.end() - Tenth, ReadMs.end());
    Res.Notes["service.read_drift_ratio"] =
        percentile(Late, 0.5) / percentile(Early, 0.5);
    Res.Notes["service.store_log_bytes"] =
        double(std::filesystem::file_size(Rig.StorePath));
    if (!Traced)
      return;
    double N = double(Units.size());
    auto &L = Res.Layer;
    L["service.connections"] = double(Calls) / N;
    L["service.subscribe_calls"] = double(Subscribes) / N;
    L["service.events_streamed"] = double(Events) / N;
    L["service.subscribe_ms"] = Subscribe / N;
    L["service.read_ms.p50"] = percentile(ReadMs, 0.5);
    L["service.write_ms.p50"] = percentile(WriteMs, 0.5);
    L["service.invalidate_ms"] = Invalidate / double(WriteMs.size());
    L["service.store_log_bytes"] = Res.Notes["service.store_log_bytes"];
    L["service.read_drift_ratio"] = Res.Notes["service.read_drift_ratio"];
    L["evalkit.store_hits"] = double(Hits) / N;
    L["evalkit.store_misses"] = double(Misses) / N;
    L["evalkit.store_writes"] = double(Misses) / N;
    L["solver.queries"] = double(Live) / N;
    L["support.record_json_ms"] = Json / N;
    L["support.record_json_bytes"] = JsonBytes / N;
  };

  if (Opts.Trace) {
    Phase(Opts.Seconds / 2, false);
    Phase(Opts.Seconds / 2, true);
  } else {
    Phase(Opts.Seconds, false);
  }

  // Work per read, and per round of writes (every instruction once).
  std::uint64_t ReadUnits = Reads["units"];
  std::uint64_t WriteRounds = Writes["units"] / Rig.Names.size();
  Res.Work["read.events"] = Reads["events"] / ReadUnits;
  Res.Work["read.store_served"] = Reads["store_served"] / ReadUnits;
  Res.Work["read.live_solver_queries"] = Reads["live_solver_queries"];
  Res.Work["write_round.events"] = Writes["events"] / WriteRounds;
  Res.Work["write_round.store_served"] = Writes["store_served"] / WriteRounds;
  Res.Work["write_round.live_solver_queries"] =
      Writes["live_solver_queries"] / WriteRounds;
  if (Reads["events"] % ReadUnits || Writes["events"] % WriteRounds ||
      Writes["live_solver_queries"] % WriteRounds)
    Err = "daemon work did not repeat exactly across units";
  if (Err.empty())
    Err = checkAgainst(Ref.Work.at("daemon"), Res.Work, "daemon");
  Res.unit(Err);
  return true;
}

} // namespace

void RunResult::unit(const std::string &Error) {
  ++Attempted;
  if (Error.empty())
    return;
  ++Failed;
  if (Errors.size() < 5)
    Errors.push_back(Error);
}

bool perfbench::runWorkload(const RunOptions &Opts, RunResult &Result) {
  Reference Ref;
  std::string Err;
  if (!loadReference(Opts.ReferenceDir, Ref, Err)) {
    Result.Errors.push_back(Err);
    return false;
  }
  for (const char *Name : {"catalog", "retest", "daemon"})
    if (!Ref.Work.count(Name))
      Ref.Work[Name] = {};
  if (Opts.Workload == "catalog")
    return runCatalog(Opts, Ref, Result);
  if (Opts.Workload == "retest")
    return runRetest(Opts, Ref, Result);
  if (Opts.Workload == "daemon")
    return runDaemon(Opts, Ref, Result);
  Result.Errors.push_back("unknown workload: " + Opts.Workload);
  return false;
}

bool perfbench::writeReference(const RunOptions &Opts, std::string &Error) {
  const std::string &Dir = Opts.ReferenceDir;
  CatalogUnit U = runCampaignUnit(nullptr, nullptr);
  if (!U.Summary.Incidents.empty()) {
    Error = "the reference campaign reported incidents";
    return false;
  }
  JsonValue Table2 = table2Json(U.Summary.Rows);

  RetestRig Rig;
  setUpRetest(Rig, 1);
  PassResult P = retestPass(Rig, nullptr, nullptr);
  if (table2Json(P.Differing, P.Causes).dump() != Table2.dump()) {
    Error = "re-test and catalog disagree on differing paths";
    return false;
  }
  std::uint64_t Verdicts = 0;
  for (const auto &[Status, Count] : P.Verdicts)
    Verdicts += Count;

  std::ofstream(Dir + "/catalog_records.txt", std::ios::binary)
      << recordsText(U.Summary.Records);
  JsonValue V = JsonValue::object();
  V.set("records", JsonValue::number(double(U.Summary.Records.size())))
      .set("verdicts", JsonValue::number(double(Verdicts)))
      .set("differences", JsonValue::number(double(P.Verdicts["difference"])))
      .set("table2", std::move(Table2));
  std::ofstream(Dir + "/expected.json") << V.dump() << '\n';

  // Short runs against the new reference; their only failures should be
  // the missing work counts, which they then supply.
  JsonValue Work = JsonValue::object();
  for (const char *Name : {"catalog", "retest", "daemon"}) {
    RunOptions Short = Opts;
    Short.Workload = Name;
    Short.Seconds = 0;
    RunResult Res;
    if (!runWorkload(Short, Res) || Res.Failed != 1) {
      Error = std::string(Name) + ": " +
              (Res.Errors.empty() ? "run failed" : Res.Errors.front());
      return false;
    }
    JsonValue Counts = JsonValue::object();
    for (const auto &[Key, N] : Res.Work)
      Counts.set(Key, JsonValue::number(double(N)));
    Work.set(Name, std::move(Counts));
  }
  V.set("work", std::move(Work));
  std::ofstream(Dir + "/expected.json") << V.dump() << '\n';
  return true;
}
