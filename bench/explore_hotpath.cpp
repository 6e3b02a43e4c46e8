//===- bench/explore_hotpath.cpp - Exploration solver work-count guard --------===//
//
// Runs a serial full-catalog campaign and reports paths/second, the
// solver's work counts (queries and search nodes) and compiles per
// instruction for the compile-once code cache. Emits BENCH_explore.json;
// CI uploads it next to BENCH_campaign.json.
//
// Usage: explore_hotpath [--max-bytecodes N] [--max-native-methods N]
//                        [--smoke] [--out PATH] [--baseline PATH]
//
// --baseline points at a JSON file recording "solver_queries" and
// "solver_nodes" from a blessed run; the bench fails (exit 2) when the
// current campaign's counts differ from them. Serial campaigns are
// deterministic, so the counts are exact, not timings: any change is a
// real change in exploration work (or an intentional catalog or solver
// change — refresh the baseline in the same commit).
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

std::optional<JsonValue> readJsonFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return JsonValue::parse(Buf.str());
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_explore.json";
  std::string BaselinePath;

  CampaignRequest Request;
  FlagParser Flags("explore_hotpath",
                   "Solver work counts on the exploration hot path.");
  requestFromFlags(Flags, Request);
  Flags.add("smoke", &Smoke, "small catalog slice");
  Flags.add("out", &OutPath, "JSON report path");
  Flags.add("baseline", &BaselinePath,
            "blessed solver-count JSON; fail when the counts differ");
  if (!Flags.parse(Argc, Argv))
    return Flags.helpRequested() ? 0 : 2;

  SessionConfig Cfg;
  try {
    Cfg = Request.toSessionConfig();
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "%s\n", E.what());
    return 2;
  }
  std::unique_ptr<ResultStore> Store;
  if (!Request.StorePath.empty()) {
    Store = std::make_unique<ResultStore>(Request.StorePath);
    Cfg.Campaign.Store = Store.get();
  }

  Cfg.harness().VM = cleanVMConfig();
  Cfg.harness().Cogit = cleanCogitOptions();
  Cfg.harness().SeedSimulationErrors = false;
  // Serial and timed: every counter below is deterministic, so the
  // JSON diffs cleanly between runs and the baseline guard is exact.
  Cfg.Campaign.Jobs = 1;
  Cfg.Campaign.RecordTimings = true;
  if (Smoke) {
    if (!Cfg.harness().MaxBytecodes)
      Cfg.harness().MaxBytecodes = 12;
    if (!Cfg.harness().MaxNativeMethods)
      Cfg.harness().MaxNativeMethods = 6;
  }

  auto T0 = std::chrono::steady_clock::now();
  CampaignSummary Summary = Session(Cfg).runCampaign();
  double TotalMillis = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - T0)
                           .count();

  double ExploreMillis = 0;
  std::uint64_t Paths = 0;
  for (const InstructionRecord &R : Summary.Records) {
    ExploreMillis += R.ExploreMillis;
    Paths += R.Paths;
  }
  double PathsPerSec =
      ExploreMillis > 0 ? Paths / (ExploreMillis / 1000.0) : 0;

  const SolverStats &Solver = Summary.Solver;

  std::uint64_t Instructions = Summary.CompletedInstructions;
  double CompilesPerInstruction =
      Instructions ? double(Summary.Jit.Compiles) / double(Instructions) : 0;
  std::uint64_t CompileRequests =
      Summary.Jit.Compiles + Summary.Jit.CodeCacheHits;
  double CodeCacheHitRate =
      CompileRequests ? double(Summary.Jit.CodeCacheHits) /
                            double(CompileRequests)
                      : 0;

  JsonValue V = JsonValue::object();
  V.set("smoke", JsonValue::boolean(Smoke))
      .set("hardware_concurrency",
           JsonValue::number(std::thread::hardware_concurrency()))
      .set("jobs", JsonValue::number(Cfg.Campaign.Jobs))
      .set("worker_processes",
           JsonValue::number(Cfg.Campaign.WorkerProcesses))
      .set("instructions", JsonValue::number(double(Instructions)))
      .set("paths", JsonValue::number(double(Paths)))
      .set("explore_millis", JsonValue::number(ExploreMillis))
      .set("total_millis", JsonValue::number(TotalMillis))
      .set("paths_per_sec", JsonValue::number(PathsPerSec))
      .set("solver_queries", JsonValue::number(double(Solver.Queries)))
      .set("solver_nodes", JsonValue::number(double(Solver.NodesExplored)))
      .set("jit_compiles", JsonValue::number(double(Summary.Jit.Compiles)))
      .set("jit_code_cache_hits",
           JsonValue::number(double(Summary.Jit.CodeCacheHits)))
      .set("compiles_per_instruction",
           JsonValue::number(CompilesPerInstruction))
      .set("code_cache_hit_rate", JsonValue::number(CodeCacheHitRate));

  std::string Report = V.dump();
  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    Out << Report << '\n';
  }
  std::printf("%s\n", Report.c_str());
  std::printf("explore_hotpath: %llu instructions, %llu paths, %.0f paths/s; "
              "%llu solver queries, %llu search nodes; %.2f "
              "compiles/instruction (hit rate %.1f%%)\n",
              (unsigned long long)Instructions, (unsigned long long)Paths,
              PathsPerSec, (unsigned long long)Solver.Queries,
              (unsigned long long)Solver.NodesExplored, CompilesPerInstruction,
              CodeCacheHitRate * 100);

  int Exit = Summary.exitCode();

  // The solver work-count guard: serial counts are exact and
  // deterministic, so any difference is a real change in exploration
  // work (or an intentional catalog change — refresh the baseline in
  // the same commit).
  if (!BaselinePath.empty()) {
    std::optional<JsonValue> Baseline = readJsonFile(BaselinePath);
    if (!Baseline) {
      std::printf("FAIL: cannot read baseline %s\n", BaselinePath.c_str());
      return 2;
    }
    const std::pair<const char *, std::uint64_t> Counts[] = {
        {"solver_queries", Solver.Queries},
        {"solver_nodes", Solver.NodesExplored}};
    for (const auto &[Name, Actual] : Counts) {
      double Blessed = Baseline->numberOr(Name, -1);
      if (Blessed < 0) {
        std::printf("FAIL: baseline %s lacks \"%s\"\n", BaselinePath.c_str(),
                    Name);
        return 2;
      }
      if (double(Actual) != Blessed) {
        std::printf("FAIL: %s is %llu, baseline %.0f\n", Name,
                    (unsigned long long)Actual, Blessed);
        return 2;
      }
    }
    std::printf("baseline check: %llu solver queries, %llu search nodes "
                "(exact)\n",
                (unsigned long long)Solver.Queries,
                (unsigned long long)Solver.NodesExplored);
  }

  return Exit;
}
