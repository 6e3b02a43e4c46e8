//===- api/Session.h - The unified IGDT entry point --------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Session façade: one object, one configuration, the whole
/// pipeline. Before it, a caller wired eight option structs by hand
/// (VMConfig, SolverOptions, ExplorerOptions, CogitOptions, SimOptions,
/// DiffTestConfig, HarnessOptions, CampaignOptions) and
/// chose between three entry points (ConcolicExplorer,
/// DifferentialTester, CampaignRunner). A Session owns the structs —
/// they stay exactly what they were, nested, reachable through
/// accessors for callers that need a specific knob — and exposes the
/// three verbs:
///
/// \code
///   SessionConfig Config;
///   Config.harness().MaxBytecodes = 12;
///   Session S(Config);
///   ExplorationResult Paths = S.explore("bytecodePrim_add");
///   PathTestOutcome O = S.testPath(Paths, 0, CompilerKind::StackToRegister);
///   CampaignSummary Summary = S.runCampaign();
/// \endcode
///
/// Observability is wired automatically: every verb folds its stats
/// counters and, through a MetricsSink, its trace events into the
/// session's MetricsRegistry, and appends the events to a JSONL trace
/// file when SessionConfig names a trace path. Each verb buffers its
/// events and hands them to those two consumers in order. With Profile
/// set, runCampaign() additionally builds the --profile report (see
/// observe/Profile.h).
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_API_SESSION_H
#define IGDT_API_SESSION_H

#include "evalkit/CampaignRunner.h"

#include <fstream>
#include <memory>
#include <string>

namespace igdt {

/// The one configuration struct. CampaignOptions already aggregates the
/// harness (VM, explorer incl. solver, compilers, simulator), budgets
/// and campaign policy, so SessionConfig owns one of those plus the
/// session-only knobs, and shortcuts the common nested paths.
struct SessionConfig {
  CampaignOptions Campaign;
  /// Build a ProfileReport after runCampaign() (implies metric
  /// collection during the campaign).
  bool Profile = false;
  /// Force the campaign's determinism contract: turns RecordTimings
  /// off so records, incidents and traces are byte-identical at any
  /// Jobs value (the --deterministic flag).
  bool Deterministic = false;
  /// Most-expensive-instruction rows in the profile.
  unsigned TopInstructions = 10;

  /// \name Shortcuts into the nested option structs
  /// @{
  HarnessOptions &harness() { return Campaign.Harness; }
  const HarnessOptions &harness() const { return Campaign.Harness; }
  VMConfig &vm() { return Campaign.Harness.VM; }
  ExplorerOptions &explorer() { return Campaign.Harness.Explorer; }
  SolverOptions &solver() { return Campaign.Harness.Explorer.Solver; }
  CogitOptions &cogit() { return Campaign.Harness.Cogit; }
  SimOptions &sim() { return Campaign.Harness.Sim; }
  /// @}
};

struct CampaignRequest;

/// The unified pipeline entry point. Not thread-safe itself (campaign
/// parallelism lives behind runCampaign's CampaignOptions::Jobs).
class Session {
public:
  explicit Session(SessionConfig Config = SessionConfig());

  /// Concolically explores one catalog instruction (by spec or name).
  /// The name overload throws std::invalid_argument for unknown names.
  ExplorationResult explore(const InstructionSpec &Spec);
  ExplorationResult explore(const std::string &InstructionName);

  /// Differentially tests path \p PathIdx of \p Exploration against
  /// \p Kind on the x64-like (default) or arm-like back-end.
  PathTestOutcome testPath(const ExplorationResult &Exploration,
                           std::size_t PathIdx, CompilerKind Kind,
                           bool Arm = false);

  /// Runs the full campaign with the session's CampaignOptions. Trace
  /// and metrics flow into the session sinks; with Profile on, the
  /// report is available from profile() afterwards.
  CampaignSummary runCampaign();

  /// Store-aware request mode: replaces the session configuration with
  /// \p Request (via CampaignRequest::toSessionConfig) and runs the
  /// campaign with \p Store backing the verdicts (null = no store; the
  /// caller owns it — Request.StorePath names the backing file, but
  /// opening one is the caller's job so the façade stays free of
  /// storage policy). This is the daemon's submit path and the shared
  /// entry for binaries built on requestFromFlags().
  CampaignSummary runCampaign(const CampaignRequest &Request,
                              VerdictStore *Store = nullptr);

  /// The differential configuration explore/testPath derive from the
  /// harness options (exposed for callers mixing façade and layers).
  DiffTestConfig diffConfig(CompilerKind Kind, bool Arm) const;

  /// Session-lifetime metrics: explore/testPath counters and events fold
  /// in as they happen; runCampaign merges the campaign's registry on
  /// completion.
  const MetricsRegistry &metrics() const { return Metrics; }

  /// The last runCampaign() profile; null before that, or when
  /// SessionConfig::Profile is off.
  const ProfileReport *profile() const { return LastProfile.get(); }

  SessionConfig &config() { return Cfg; }
  const SessionConfig &config() const { return Cfg; }

private:
  /// The session trace writer, opened (truncating) on first use when
  /// the config names a trace path.
  JsonlTraceSink *writer();
  /// Folds \p Events into the metrics and appends them to the trace.
  void publish(std::vector<TraceEvent> Events);

  SessionConfig Cfg;
  MetricsRegistry Metrics;
  std::ofstream TraceOut;
  std::unique_ptr<JsonlTraceSink> TraceWriter;
  std::unique_ptr<ProfileReport> LastProfile;
  /// Session-lifetime compile-once cache for testPath calls (keys are
  /// fully qualified by compiler kind, back-end and options, so one
  /// cache serves every combination). runCampaign uses the runner's
  /// own per-attempt caches instead.
  JitCodeCache CodeCache;
  /// Session-lifetime replay arena for testPath calls, reused across
  /// explorations like the code cache. runCampaign uses the runner's
  /// own worker-local arenas instead.
  ReplayArena Arena;
};

} // namespace igdt

#endif // IGDT_API_SESSION_H
