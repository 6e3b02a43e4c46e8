//===- api/Session.cpp - The unified IGDT entry point -------------------------===//

#include "api/Session.h"

#include "api/Requests.h"

#include <stdexcept>
#include <utility>

using namespace igdt;

Session::Session(SessionConfig Config) : Cfg(std::move(Config)) {}

JsonlTraceSink *Session::writer() {
  if (!TraceWriter && !Cfg.Campaign.TracePath.empty()) {
    TraceOut.open(Cfg.Campaign.TracePath, std::ios::trunc);
    TraceWriter = std::make_unique<JsonlTraceSink>(TraceOut);
  }
  return TraceWriter.get();
}

void Session::publish(std::vector<TraceEvent> Events) {
  MetricsSink Sink(Metrics);
  JsonlTraceSink *Out = writer();
  for (TraceEvent &Event : Events) {
    Sink.emit(Event);
    if (Out)
      Out->emit(std::move(Event));
  }
}

ExplorationResult Session::explore(const InstructionSpec &Spec) {
  ExplorerOptions EOpts = Cfg.Campaign.Harness.Explorer;
  TraceBuffer Buffer;
  TraceScope Scope(&Buffer, Spec.Name, /*Attempt=*/1,
                   Cfg.Campaign.RecordTimings);
  EOpts.Trace = &Scope;
  ConcolicExplorer Explorer(Cfg.Campaign.Harness.VM, EOpts);
  ExplorationResult Result = Explorer.explore(Spec);
  Metrics.fold(Result.Solver);
  publish(Buffer.take());
  return Result;
}

ExplorationResult Session::explore(const std::string &InstructionName) {
  const InstructionSpec *Spec = findInstruction(InstructionName);
  if (!Spec)
    throw std::invalid_argument("unknown catalog instruction: " +
                                InstructionName);
  return explore(*Spec);
}

DiffTestConfig Session::diffConfig(CompilerKind Kind, bool Arm) const {
  // The campaign derives its configurations the same way, so façade
  // and campaign replays are byte-identical for one HarnessOptions.
  return diffConfigFor(Cfg.Campaign.Harness, Kind, Arm);
}

PathTestOutcome Session::testPath(const ExplorationResult &Exploration,
                                  std::size_t PathIdx, CompilerKind Kind,
                                  bool Arm) {
  DiffTestConfig DCfg = diffConfig(Kind, Arm);
  TraceBuffer Buffer;
  TraceScope Scope(&Buffer, Exploration.Spec ? Exploration.Spec->Name : "",
                   /*Attempt=*/1, Cfg.Campaign.RecordTimings);
  DCfg.Trace = &Scope;
  // The façade's compile-once cache spans testPath calls: replaying the
  // paths of one exploration re-compiles each distinct unit only once
  // per session. Each call's counters fold straight into the session
  // metrics, which keep the running totals.
  if (Cfg.Campaign.Harness.EnableCodeCache)
    DCfg.CodeCache = &CodeCache;
  JitCacheStats JitCounters;
  SimStats SimCounters;
  ReplayStats ReplayCounters;
  DCfg.JitStats = &JitCounters;
  DCfg.SimCounters = &SimCounters;
  DCfg.Replay = &ReplayCounters;
  if (Cfg.Campaign.Harness.EnableReplayArena)
    DCfg.Arena = &Arena;
  DifferentialTester Tester(DCfg);
  PathTestOutcome Out = Tester.testPath(Exploration, PathIdx);
  Metrics.fold(JitCounters);
  Metrics.fold(SimCounters);
  Metrics.fold(ReplayCounters);
  publish(Buffer.take());
  return Out;
}

CampaignSummary Session::runCampaign() {
  CampaignOptions Opts = Cfg.Campaign;
  if (Cfg.Profile)
    Opts.CollectMetrics = true;
  if (Cfg.Deterministic)
    Opts.RecordTimings = false;
  if (TraceWriter) {
    // The session writer is already appending (a direct explore or
    // testPath opened it): route the campaign's merged stream into the
    // same file instead of letting the runner truncate it.
    Opts.TracePath.clear();
    Opts.ExtraTraceSink = TraceWriter.get();
  }
  CampaignSummary Summary = CampaignRunner(Opts).run();
  Metrics.merge(Summary.Metrics);
  LastProfile.reset();
  if (Cfg.Profile)
    LastProfile = std::make_unique<ProfileReport>(
        buildCampaignProfile(Summary, Cfg.TopInstructions));
  return Summary;
}

CampaignSummary Session::runCampaign(const CampaignRequest &Request,
                                     VerdictStore *Store) {
  Cfg = Request.toSessionConfig();
  Cfg.Campaign.Store = Store;
  return runCampaign();
}
