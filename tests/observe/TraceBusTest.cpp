//===- tests/observe/TraceBusTest.cpp ------------------------------------------===//
//
// Observability bus contracts: JSONL round-trips through the support
// JSON parser, sinks filter scheduling-dependent events, TraceScope
// stamps identity and honours the timing switch, and a campaign's
// merged trace file is byte-identical at any Jobs value.
//
//===----------------------------------------------------------------------===//

#include "observe/TraceBus.h"

#include "evalkit/CampaignRunner.h"
#include "faults/DefectCatalog.h"
#include "observe/MetricsRegistry.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_trace_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TraceEvent sampleEvent() {
  TraceEvent Event;
  Event.Kind = TraceEventKind::SolverQuery;
  Event.Instruction = "bytecodePrim_add";
  Event.Attempt = 2;
  Event.Detail = "sat";
  Event.Aux = "primary";
  Event.Value = 41;
  Event.Extra = 7;
  Event.Millis = 1.25;
  return Event;
}

TEST(TraceBusTest, EventsRoundTripThroughJsonl) {
  TraceEvent Event = sampleEvent();
  TraceEvent Back;
  ASSERT_TRUE(TraceEvent::fromJson(Event.toJson(), Back));
  EXPECT_EQ(Event, Back);

  // Every kind keeps its name through the round trip.
  for (unsigned K = 0; K <= unsigned(TraceEventKind::StageTime); ++K) {
    TraceEvent E;
    E.Kind = TraceEventKind(K);
    ASSERT_TRUE(TraceEvent::fromJson(E.toJson(), Back))
        << traceEventKindName(E.Kind);
    EXPECT_EQ(Back.Kind, E.Kind) << traceEventKindName(E.Kind);
  }

  EXPECT_FALSE(TraceEvent::fromJson("not json", Back));
  EXPECT_FALSE(TraceEvent::fromJson("{\"kind\":\"no-such-kind\"}", Back));
}

TEST(TraceBusTest, JsonlSinkFiltersSchedulingDependentEvents) {
  TraceEvent Hit;
  Hit.Kind = TraceEventKind::CacheLookup;
  Hit.Detail = "hit";
  ASSERT_TRUE(traceEventIsSchedulingDependent(Hit.Kind));

  std::ostringstream Deterministic;
  JsonlTraceSink Sink(Deterministic);
  Sink.emit(Hit);
  Sink.emit(sampleEvent());
  EXPECT_EQ(Sink.written(), 1u);
  EXPECT_EQ(Deterministic.str().find("cache-lookup"), std::string::npos);

  std::ostringstream Full;
  JsonlTraceSink Diagnostic(Full, /*IncludeSchedulingDependent=*/true);
  Diagnostic.emit(Hit);
  EXPECT_EQ(Diagnostic.written(), 1u);
  EXPECT_NE(Full.str().find("cache-lookup"), std::string::npos);
}

TEST(TraceBusTest, TraceScopeStampsIdentityAndZeroesUntimedMillis) {
  TraceBuffer Buffer;
  {
    TraceScope Scope(&Buffer, "primitiveAdd", 3, /*RecordTimings=*/false);
    TraceEvent Event;
    Event.Kind = TraceEventKind::SimRun;
    Event.Millis = 12.5;
    Scope.emit(std::move(Event));
  }
  ASSERT_EQ(Buffer.events().size(), 1u);
  EXPECT_EQ(Buffer.events()[0].Instruction, "primitiveAdd");
  EXPECT_EQ(Buffer.events()[0].Attempt, 3u);
  EXPECT_EQ(Buffer.events()[0].Millis, 0.0);

  // A null downstream swallows everything (the disabled path).
  TraceScope Null(nullptr, "primitiveAdd", 1);
  Null.emit(sampleEvent());

  NullTraceSink Sink;
  Sink.emit(sampleEvent());
}

TEST(TraceBusTest, BusFansOutToEverySink) {
  TraceBuffer A;
  TraceBuffer B;
  TraceBus Bus;
  Bus.addSink(&A);
  Bus.addSink(&B);
  EXPECT_EQ(Bus.sinkCount(), 2u);
  Bus.emit(sampleEvent());
  ASSERT_EQ(A.events().size(), 1u);
  ASSERT_EQ(B.events().size(), 1u);
  EXPECT_EQ(A.events()[0], B.events()[0]);
}

TEST(TraceBusTest, MetricsSinkFoldsEventsIntoTheRegistry) {
  MetricsRegistry Registry;
  MetricsSink Sink(Registry);
  Sink.emit(sampleEvent());
  EXPECT_EQ(Registry.counter("events.solver-query"), 1u);
  EXPECT_EQ(Registry.counter("events.solver.status.sat"), 1u);
  EXPECT_EQ(Registry.counter("events.solver.nodes"), 41u);
  EXPECT_EQ(Registry.counter("events.solver.cases"), 7u);

  MetricsRegistry Other;
  Other.add("events.solver.nodes", 9);
  Other.sample("stage.explore.millis", 2.0);
  Registry.merge(Other);
  EXPECT_EQ(Registry.counter("events.solver.nodes"), 50u);
  ASSERT_EQ(Registry.histograms().count("stage.explore.millis"), 1u);
}

TEST(TraceBusTest, CampaignTraceIsByteIdenticalAcrossJobs) {
  CampaignOptions Base;
  Base.Harness.VM = cleanVMConfig();
  Base.Harness.Cogit = cleanCogitOptions();
  Base.Harness.SeedSimulationErrors = false;
  Base.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                           "bytecodePrim_mul", "bytecodePrim_div",
                           "primitiveAdd",     "primitiveFloatAdd"};
  // One contained fault so containment/quarantine events are part of
  // the compared stream, and timings off: the determinism contract.
  Base.Faults.Faults = {
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_sub", false}};
  Base.RecordTimings = false;

  CampaignOptions Serial = Base;
  Serial.Jobs = 1;
  Serial.TracePath = tempPath("serial.jsonl");
  CampaignRunner(Serial).run();

  CampaignOptions Parallel = Base;
  Parallel.Jobs = 4;
  Parallel.TracePath = tempPath("parallel.jsonl");
  CampaignRunner(Parallel).run();

  std::string SerialTrace = slurp(Serial.TracePath);
  ASSERT_FALSE(SerialTrace.empty());
  EXPECT_EQ(SerialTrace, slurp(Parallel.TracePath));

  // Every line parses back into an event with a stamped instruction.
  std::istringstream In(SerialTrace);
  std::string Line;
  unsigned Parsed = 0;
  while (std::getline(In, Line)) {
    TraceEvent Event;
    ASSERT_TRUE(TraceEvent::fromJson(Line, Event)) << Line;
    EXPECT_FALSE(Event.Instruction.empty());
    EXPECT_EQ(Event.Millis, 0.0) << Line;
    ++Parsed;
  }
  EXPECT_GT(Parsed, 0u);
}

} // namespace
