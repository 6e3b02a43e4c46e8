//===- bench/campaign_parallel.cpp - Parallel campaign timing ------------------===//
//
// Times a full-catalog campaign serially and with a worker pool,
// verifies the two produce identical Table 2 rows (the determinism
// contract of CampaignOptions::Jobs), and reports the solver query
// cache's hit rate. Emits BENCH_campaign.json so the perf trajectory
// is tracked from run to run; CI uploads it as an artifact.
//
// Usage: campaign_parallel [--jobs N] [--reps N] [--max-bytecodes N]
//                          [--max-native-methods N] [--smoke]
//                          [--trace PATH] [--profile] [--out PATH]
//
// --jobs 0 (the default) asks the hardware. --smoke shrinks the
// catalog and arms all four harness faults: a fast TSan target that
// still drives the sharded execution, containment and merge paths.
// --trace runs an extra traced campaign pair (serial vs parallel) and
// fails unless the two JSONL traces are byte-identical; the timed reps
// stay untraced so the timing numbers measure the disabled path.
// --profile runs one timed campaign with metrics on and embeds the
// per-stage report into the JSON output.
//
//===----------------------------------------------------------------------===//

#include "api/Requests.h"
#include "api/Session.h"

#include "faults/DefectCatalog.h"
#include "service/ResultStore.h"
#include "support/Flags.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <stdexcept>

using namespace igdt;

namespace {

double millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

bool rowsEqual(const std::vector<CompilerEvaluation> &A,
               const std::vector<CompilerEvaluation> &B) {
  if (A.size() != B.size())
    return false;
  for (std::size_t I = 0; I < A.size(); ++I) {
    const CompilerEvaluation &X = A[I];
    const CompilerEvaluation &Y = B[I];
    if (X.Kind != Y.Kind || X.TestedInstructions != Y.TestedInstructions ||
        X.InterpreterPaths != Y.InterpreterPaths ||
        X.CuratedPaths != Y.CuratedPaths ||
        X.DifferingPaths != Y.DifferingPaths || X.Causes != Y.Causes)
      return false;
  }
  return true;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 3;
  bool Smoke = false;
  std::string OutPath = "BENCH_campaign.json";

  CampaignRequest Request;
  Request.Jobs = 0; // hardware
  FlagParser Flags("campaign_parallel",
                   "Serial-vs-parallel campaign timing + determinism check.");
  requestFromFlags(Flags, Request);
  Flags.add("reps", &Reps, "timed repetitions per configuration");
  Flags.add("smoke", &Smoke, "small catalog slice with all faults armed");
  Flags.add("out", &OutPath, "JSON report path");
  if (!Flags.parse(Argc, Argv))
    return Flags.helpRequested() ? 0 : 2;

  SessionConfig Base;
  try {
    Base = Request.toSessionConfig();
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "%s\n", E.what());
    return 2;
  }
  std::unique_ptr<ResultStore> Store;
  if (!Request.StorePath.empty()) {
    Store = std::make_unique<ResultStore>(Request.StorePath);
    Base.Campaign.Store = Store.get();
  }

  unsigned Hardware = std::thread::hardware_concurrency();
  unsigned Jobs = Base.Campaign.Jobs;
  if (Jobs == 0)
    Jobs = Hardware ? Hardware : 1;
  if (Reps == 0)
    Reps = 1;

  Base.harness().VM = cleanVMConfig();
  Base.harness().Cogit = cleanCogitOptions();
  Base.harness().SeedSimulationErrors = false;
  Base.Campaign.RecordTimings = false;
  if (Smoke) {
    // Small catalog slice with every fault kind armed: exercises the
    // sharded dispatch, containment, quarantine and in-order merge
    // under ThreadSanitizer in seconds.
    if (!Base.harness().MaxBytecodes)
      Base.harness().MaxBytecodes = 12;
    if (!Base.harness().MaxNativeMethods)
      Base.harness().MaxNativeMethods = 6;
    Base.Campaign.Faults.Faults = {
        {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
        {HarnessFaultKind::FrontEndThrow, "bytecodePrim_sub", false},
        {HarnessFaultKind::HeapCorruption, "bytecodePrim_mul", false},
        {HarnessFaultKind::SimFuelExhaustion, "bytecodePrim_div", false},
    };
    Reps = 1;
  }

  // The --trace and --profile passes run separately below; the timed
  // reps measure the disabled-observability path.
  const std::string TracePath = Base.Campaign.TracePath;
  const bool Profile = Base.Profile;
  Base.Campaign.TracePath.clear();
  Base.Profile = false;

  double SerialMillis = 0;
  double ParallelMillis = 0;
  CampaignSummary Serial;
  CampaignSummary Parallel;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    SessionConfig SCfg = Base;
    SCfg.Campaign.Jobs = 1;
    auto T0 = std::chrono::steady_clock::now();
    Serial = Session(SCfg).runCampaign();
    SerialMillis += millisSince(T0);

    SessionConfig PCfg = Base;
    PCfg.Campaign.Jobs = Jobs;
    auto T1 = std::chrono::steady_clock::now();
    Parallel = Session(PCfg).runCampaign();
    ParallelMillis += millisSince(T1);
  }
  SerialMillis /= Reps;
  ParallelMillis /= Reps;

  if (!rowsEqual(Serial.Rows, Parallel.Rows)) {
    std::printf("FAIL: parallel rows differ from serial rows\n");
    return 2;
  }
  if (Serial.exitCode() != Parallel.exitCode()) {
    std::printf("FAIL: parallel exit code differs from serial\n");
    return 2;
  }

  // Trace determinism: the merged JSONL stream must be byte-identical
  // at any Jobs value (RecordTimings is already off above).
  bool TraceChecked = false;
  if (!TracePath.empty()) {
    SessionConfig SCfg = Base;
    SCfg.Campaign.Jobs = 1;
    SCfg.Campaign.TracePath = TracePath + ".j1";
    Session(SCfg).runCampaign();

    SessionConfig PCfg = Base;
    PCfg.Campaign.Jobs = Jobs;
    PCfg.Campaign.TracePath = TracePath;
    Session(PCfg).runCampaign();

    std::string SerialTrace = slurp(SCfg.Campaign.TracePath);
    if (SerialTrace.empty() || SerialTrace != slurp(TracePath)) {
      std::printf("FAIL: trace at jobs=%u differs from the serial trace\n",
                  Jobs);
      return 2;
    }
    TraceChecked = true;
  }

  // Profile pass: one timed campaign with metrics on; the report is
  // printed and embedded in the JSON output.
  JsonValue ProfileJson;
  if (Profile) {
    SessionConfig PCfg = Base;
    PCfg.Campaign.Jobs = Jobs;
    PCfg.Campaign.RecordTimings = true;
    PCfg.Profile = true;
    Session S(PCfg);
    S.runCampaign();
    if (const ProfileReport *Report = S.profile()) {
      std::printf("%s\n", Report->render().c_str());
      ProfileJson = Report->toJson();
    }
  }

  // Cache stats from the serial run: hit counts there are fully
  // deterministic (catalog order), while parallel hit counts vary with
  // worker scheduling even though results are identical.
  const SolverStats &Cache = Serial.Solver;
  std::uint64_t Consulted = Cache.CacheHits + Cache.CacheMisses;
  double HitRate = Consulted ? double(Cache.CacheHits) / double(Consulted) : 0;
  double Speedup = ParallelMillis > 0 ? SerialMillis / ParallelMillis : 0;

  JsonValue V = JsonValue::object();
  V.set("jobs", JsonValue::number(Jobs))
      .set("worker_processes", JsonValue::number(Base.Campaign.WorkerProcesses))
      .set("hardware_concurrency", JsonValue::number(Hardware))
      .set("reps", JsonValue::number(Reps))
      .set("smoke", JsonValue::boolean(Smoke))
      .set("instructions", JsonValue::number(Serial.CompletedInstructions))
      .set("serial_millis", JsonValue::number(SerialMillis))
      .set("parallel_millis", JsonValue::number(ParallelMillis))
      .set("speedup", JsonValue::number(Speedup))
      .set("solver_queries", JsonValue::number(double(Cache.Queries)))
      .set("cache_hits", JsonValue::number(double(Cache.CacheHits)))
      .set("cache_misses", JsonValue::number(double(Cache.CacheMisses)))
      .set("cache_hit_rate", JsonValue::number(HitRate))
      .set("trace_deterministic", JsonValue::boolean(TraceChecked));
  if (Profile)
    V.set("profile", ProfileJson);
  std::string Report = V.dump();
  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    Out << Report << '\n';
  }
  std::printf("%s\n", Report.c_str());
  std::printf("campaign_parallel: %u instructions, serial %.1f ms, "
              "jobs=%u %.1f ms (%.2fx), cache hit rate %.1f%%\n",
              Serial.CompletedInstructions, SerialMillis, Jobs,
              ParallelMillis, Speedup, HitRate * 100);
  return Serial.exitCode();
}
