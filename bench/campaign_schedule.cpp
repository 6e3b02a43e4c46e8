//===- bench/campaign_schedule.cpp - Adaptive scheduling effectiveness --------===//
//
// Proves the two claims the campaign scheduler ships with:
//
//  1. Safety: with unlimited budgets, an adaptive campaign (priority
//     order + tiered solver escalation + early exit) produces a
//     checkpoint byte-identical to the fixed-order campaign
//     ("records_identical" — the determinism contract).
//  2. Yield: on a budget-constrained full-catalog run — both passes
//     share one campaign-level explore ledger (TotalExploreUnits) —
//     the adaptive schedule (warm-started priority order, fair-share
//     caps, budget-pool re-grants) tests at least MIN_RATIO times as
//     many interpreter paths as fixed order spending the same ledger
//     first-come-first-served ("coverage_ratio", enforced at >= 2
//     outside --smoke).
//
// Both coverage counts are exact (campaigns are deterministic with
// timings off), so the baseline guard compares counts, not timings.
// Emits BENCH_schedule.json; CI uploads it as an artifact.
//
// Usage: campaign_schedule [--total-units N]
//                          [--max-bytecodes N] [--max-native-methods N]
//                          [--smoke] [--print-units] [--out PATH]
//                          [--baseline PATH] [--min-ratio X]
//
// --total-units 0 (the default) derives the campaign budget from the
// warm pass: one-fifth of the full catalog's measured explore cost,
// deep enough to fund broad shallow coverage but far too small for
// fixed order to get past the catalog's expensive head.
// The adaptive pass's per-instruction fair-share cap is derived from
// that budget. --print-units dumps the warm pass's per-instruction
// unit costs (for re-deriving the defaults).
// --baseline points at a JSON file recording a blessed
// "adaptive_paths"; the bench fails (exit 2) when the current count
// regresses more than 5%.
//
//===----------------------------------------------------------------------===//

#include "api/Requests.h"
#include "api/Session.h"

#include "faults/DefectCatalog.h"
#include "service/ResultStore.h"
#include "support/Flags.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>
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

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

double millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

std::uint64_t totalPaths(const CampaignSummary &Summary) {
  std::uint64_t Paths = 0;
  for (const InstructionRecord &R : Summary.Records)
    Paths += R.Paths;
  return Paths;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  bool PrintUnits = false;
  std::string OutPath = "BENCH_schedule.json";
  std::string BaselinePath;
  double MinRatio = -1; // default picked below: 2 full, 0 smoke

  CampaignRequest Request;
  FlagParser Flags("campaign_schedule",
                   "Adaptive-vs-fixed campaign scheduling: byte-identity "
                   "with unlimited budgets, coverage under constraint.");
  requestFromFlags(Flags, Request);
  Flags.add("smoke", &Smoke, "small catalog slice, no ratio enforcement");
  Flags.add("print-units", &PrintUnits,
            "dump per-instruction explore unit costs from the warm pass");
  Flags.add("out", &OutPath, "JSON report path");
  Flags.add("baseline", &BaselinePath,
            "blessed adaptive_paths JSON; fail on >5% coverage regression");
  Flags.add("min-ratio", &MinRatio,
            "fail when adaptive/fixed coverage falls below this "
            "(-1 = default: 2 normally, report-only with --smoke)");
  if (!Flags.parse(Argc, Argv))
    return Flags.helpRequested() ? 0 : 2;
  if (MinRatio < 0)
    MinRatio = Smoke ? 0 : 2;

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

  // --total-units (a shared request flag) names the constrained
  // campaign budget for the comparison passes; the warm and identity
  // passes below always run unlimited.
  std::uint64_t TotalUnits = Base.Campaign.TotalExploreUnits;
  Base.Campaign.TotalExploreUnits = 0;

  Base.harness().VM = cleanVMConfig();
  Base.harness().Cogit = cleanCogitOptions();
  Base.harness().SeedSimulationErrors = false;
  // Deterministic: every coverage count below is exact, and the
  // byte-identity gate needs timing-free records.
  Base.Campaign.RecordTimings = false;
  Base.Campaign.Jobs = Base.Campaign.Jobs ? Base.Campaign.Jobs : 1;
  if (!Base.Campaign.Schedule.SolverTiers)
    Base.Campaign.Schedule.SolverTiers = 1;
  if (Smoke) {
    if (!Base.harness().MaxBytecodes)
      Base.harness().MaxBytecodes = 12;
    if (!Base.harness().MaxNativeMethods)
      Base.harness().MaxNativeMethods = 6;
  }

  const std::string WarmPath = OutPath + ".warm.jsonl";
  const std::string AdaptivePath = OutPath + ".adaptive.jsonl";
  std::remove(WarmPath.c_str());
  std::remove(AdaptivePath.c_str());

  // Pass A — warm reference: fixed order, unlimited budget, yield
  // stats persisted. Doubles as the byte-identity baseline and the
  // warm-start source for the scheduled passes.
  SessionConfig WarmCfg = Base;
  WarmCfg.Campaign.Schedule.Policy = "fixed";
  WarmCfg.Campaign.Schedule.PersistYield = true;
  WarmCfg.Campaign.ExploreBudget.WorkUnits = 0;
  WarmCfg.Campaign.CheckpointPath = WarmPath;
  auto T0 = std::chrono::steady_clock::now();
  CampaignSummary Warm = Session(WarmCfg).runCampaign();
  double WarmMillis = millisSince(T0);

  std::vector<std::uint64_t> Units;
  for (const InstructionRecord &R : Warm.Records)
    if (R.ExploreUnits)
      Units.push_back(R.ExploreUnits);
  if (PrintUnits)
    for (const InstructionRecord &R : Warm.Records)
      std::printf("units %8llu paths %4u %s\n",
                  (unsigned long long)R.ExploreUnits, R.Paths,
                  R.Instruction.c_str());
  // The constrained campaign budget: ~21% of what the full catalog
  // costs, so fixed order runs dry partway down the catalog. The
  // scheduler gets the same total, split into per-instruction
  // fair-share caps slightly above budget/N so every instruction can
  // be probed before refunds are re-granted.
  std::uint64_t WarmUnits = 0;
  for (std::uint64_t U : Units)
    WarmUnits += U;
  if (TotalUnits == 0)
    TotalUnits = std::max<std::uint64_t>(1, (WarmUnits * 21) / 100);
  std::size_t Catalog = Warm.Records.size();
  const std::uint64_t BudgetUnits = std::max<std::uint64_t>(
      2, (5 * TotalUnits) / (4 * std::max<std::size_t>(1, Catalog)));

  // Pass B — byte-identity gate: adaptive with unlimited budgets must
  // reproduce the fixed checkpoint exactly (cheap-tier runs are only
  // accepted when provably identical; escalations discard and re-run).
  SessionConfig IdCfg = Base;
  IdCfg.Campaign.Schedule.Policy = "adaptive";
  IdCfg.Campaign.Schedule.PersistYield = true;
  IdCfg.Campaign.Schedule.WarmStartPath = WarmPath;
  IdCfg.Campaign.ExploreBudget.WorkUnits = 0;
  IdCfg.Campaign.CheckpointPath = AdaptivePath;
  auto T1 = std::chrono::steady_clock::now();
  CampaignSummary Identity = Session(IdCfg).runCampaign();
  double IdentityMillis = millisSince(T1);

  std::string WarmBytes = slurp(WarmPath);
  bool RecordsIdentical =
      !WarmBytes.empty() && WarmBytes == slurp(AdaptivePath);

  // Pass C — fixed order under the constrained campaign budget: each
  // instruction explores to natural completion, first-come-first-
  // served down the catalog, until the shared ledger runs dry.
  SessionConfig FixedCfg = Base;
  FixedCfg.Campaign.Schedule.Policy = "fixed";
  FixedCfg.Campaign.TotalExploreUnits = TotalUnits;
  auto T2 = std::chrono::steady_clock::now();
  CampaignSummary Fixed = Session(FixedCfg).runCampaign();
  double FixedMillis = millisSince(T2);

  // Pass D — the adaptive stack under the same campaign budget:
  // warm-started priorities spend the ledger on the highest
  // paths-per-unit instructions first, fair-share caps keep any one
  // instruction from draining it, and the pool re-grants proven
  // refunds to the highest-yield starved instructions. Tiers stay off
  // here: a budget-exhausted cheap pass would escalate and re-run,
  // burning ledger units on discarded work.
  SessionConfig SchedCfg = Base;
  SchedCfg.Campaign.Schedule.Policy = "adaptive";
  SchedCfg.Campaign.Schedule.SolverTiers = 0;
  SchedCfg.Campaign.Schedule.BudgetPool = true;
  SchedCfg.Campaign.Schedule.WarmStartPath = WarmPath;
  SchedCfg.Campaign.TotalExploreUnits = TotalUnits;
  SchedCfg.Campaign.ExploreBudget.WorkUnits = BudgetUnits;
  auto T3 = std::chrono::steady_clock::now();
  CampaignSummary Sched = Session(SchedCfg).runCampaign();
  double SchedMillis = millisSince(T3);

  std::uint64_t FullPaths = totalPaths(Warm);
  std::uint64_t FixedPaths = totalPaths(Fixed);
  std::uint64_t AdaptivePaths = totalPaths(Sched);
  std::size_t N = Fixed.Records.size();
  // Both passes ran with the same campaign budget, so paths-per-budget
  // compares directly as a paths ratio; the per-kilo-unit forms are
  // what the baseline and trend plots track.
  double FixedPerKilo = FixedPaths * 1000.0 / double(TotalUnits);
  double AdaptivePerKilo = AdaptivePaths * 1000.0 / double(TotalUnits);
  double Ratio = FixedPaths ? double(AdaptivePaths) / double(FixedPaths) : 0;

  unsigned Hardware = std::thread::hardware_concurrency();
  JsonValue V = JsonValue::object();
  V.set("smoke", JsonValue::boolean(Smoke))
      .set("hardware_concurrency", JsonValue::number(Hardware))
      .set("jobs", JsonValue::number(Base.Campaign.Jobs))
      .set("worker_processes",
           JsonValue::number(Base.Campaign.WorkerProcesses))
      .set("instructions", JsonValue::number(double(N)))
      .set("total_units", JsonValue::number(double(TotalUnits)))
      .set("warm_units", JsonValue::number(double(WarmUnits)))
      .set("budget_units", JsonValue::number(double(BudgetUnits)))
      .set("records_identical", JsonValue::boolean(RecordsIdentical))
      .set("full_paths", JsonValue::number(double(FullPaths)))
      .set("fixed_paths", JsonValue::number(double(FixedPaths)))
      .set("adaptive_paths", JsonValue::number(double(AdaptivePaths)))
      .set("fixed_paths_per_kunit", JsonValue::number(FixedPerKilo))
      .set("adaptive_paths_per_kunit", JsonValue::number(AdaptivePerKilo))
      .set("coverage_ratio", JsonValue::number(Ratio))
      .set("warm_millis", JsonValue::number(WarmMillis))
      .set("identity_millis", JsonValue::number(IdentityMillis))
      .set("fixed_millis", JsonValue::number(FixedMillis))
      .set("adaptive_millis", JsonValue::number(SchedMillis))
      .set("waves", JsonValue::number(double(Sched.Schedule.Waves)))
      .set("tier_escalations",
           JsonValue::number(double(Identity.Schedule.TierEscalations)))
      .set("early_exits",
           JsonValue::number(double(Sched.Schedule.EarlyExits)))
      .set("pool_refund_units",
           JsonValue::number(double(Sched.Schedule.PoolRefundUnits)))
      .set("pool_transfers",
           JsonValue::number(double(Sched.Schedule.PoolGrants)))
      .set("pool_grant_units",
           JsonValue::number(double(Sched.Schedule.PoolGrantUnits)))
      .set("priority_inversions",
           JsonValue::number(double(Sched.Schedule.PriorityInversions)))
      .set("discarded_runs",
           JsonValue::number(double(Sched.Schedule.DiscardedRuns)));

  std::string Report = V.dump();
  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    Out << Report << '\n';
  }
  std::printf("%s\n", Report.c_str());
  std::printf("campaign_schedule: %zu instructions, campaign budget %llu "
              "units (fair share %llu); identity %s; fixed %llu paths vs "
              "adaptive %llu paths (%.2fx)\n",
              N, (unsigned long long)TotalUnits,
              (unsigned long long)BudgetUnits,
              RecordsIdentical ? "OK" : "FAIL",
              (unsigned long long)FixedPaths,
              (unsigned long long)AdaptivePaths, Ratio);

  if (!RecordsIdentical) {
    std::printf("FAIL: adaptive checkpoint differs from fixed order with "
                "unlimited budgets\n");
    return 2;
  }
  // Enforced on the full catalog only: an 18-instruction smoke slice
  // is small enough for the catalog prefix to coincide with the cheap
  // head, where fair-share probing has nothing to beat.
  if (!Smoke && AdaptivePaths < FixedPaths) {
    std::printf("FAIL: adaptive coverage fell below fixed order\n");
    return 2;
  }
  if (MinRatio > 0 && Ratio < MinRatio) {
    std::printf("FAIL: coverage ratio %.2f below the %.2f floor\n", Ratio,
                MinRatio);
    return 2;
  }
  if (!BaselinePath.empty()) {
    auto Baseline = readJsonFile(BaselinePath);
    if (!Baseline) {
      std::printf("FAIL: cannot read baseline %s\n", BaselinePath.c_str());
      return 2;
    }
    double Blessed = Baseline->numberOr("adaptive_paths", 0);
    if (Blessed > 0 && double(AdaptivePaths) < 0.95 * Blessed) {
      std::printf("FAIL: adaptive_paths %llu regressed >5%% against the "
                  "blessed %.0f\n",
                  (unsigned long long)AdaptivePaths, Blessed);
      return 2;
    }
  }
  return 0;
}
