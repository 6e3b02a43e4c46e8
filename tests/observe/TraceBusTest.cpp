//===- tests/observe/TraceBusTest.cpp ------------------------------------------===//
//
// Tracing contracts: JSONL round-trips through the support JSON parser
// and hostile lines are refused, the trace file drops
// scheduling-dependent events, TraceScope stamps identity and honours
// the timing switch, MetricsSink derives only the counts no stats table
// carries, and a campaign's merged trace file is byte-identical at any
// Jobs value.
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
  for (unsigned K = 0; K <= unsigned(TraceEventKind::Quarantine); ++K) {
    TraceEvent E;
    E.Kind = TraceEventKind(K);
    ASSERT_TRUE(TraceEvent::fromJson(E.toJson(), Back))
        << traceEventKindName(E.Kind);
    EXPECT_EQ(Back.Kind, E.Kind) << traceEventKindName(E.Kind);
  }

  EXPECT_FALSE(TraceEvent::fromJson("not json", Back));
  EXPECT_FALSE(TraceEvent::fromJson("{\"kind\":\"no-such-kind\"}", Back));
}

TEST(TraceBusTest, FromJsonRefusesCountsNoIntegerFieldCanHold) {
  // Trace lines are read back from files: a negative, fractional or
  // out-of-range count is a malformed line, not a cast.
  const char *Fields[] = {"attempt", "value", "extra"};
  const char *Bad[] = {"-1", "0.5", "1e20", "1e300"};
  for (const char *Field : Fields)
    for (const char *Number : Bad) {
      std::string Line = std::string("{\"kind\":\"sim-run\",\"") + Field +
                         "\":" + Number + "}";
      TraceEvent Out;
      EXPECT_FALSE(TraceEvent::fromJson(Line, Out)) << Line;
    }
  // attempt is 32-bit: 2^32 does not fit, 2^32 - 1 does.
  TraceEvent Out;
  EXPECT_FALSE(TraceEvent::fromJson(
      "{\"kind\":\"sim-run\",\"attempt\":4294967296}", Out));
  ASSERT_TRUE(TraceEvent::fromJson(
      "{\"kind\":\"sim-run\",\"attempt\":4294967295,\"value\":7}", Out));
  EXPECT_EQ(Out.Attempt, 4294967295u);
  EXPECT_EQ(Out.Value, 7u);
  EXPECT_EQ(Out.Extra, 0u);
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
  EXPECT_EQ(Deterministic.str(), sampleEvent().toJson() + "\n");
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
}

TEST(TraceBusTest, MetricsSinkFoldsEventsIntoTheRegistry) {
  MetricsRegistry Registry;
  MetricsSink Sink(Registry);
  // A solver query repeats SolverStats counters: the sink adds nothing.
  Sink.emit(sampleEvent());
  EXPECT_TRUE(Registry.empty());

  TraceEvent Run;
  Run.Kind = TraceEventKind::SimRun;
  Run.Detail = "returned";
  Run.Value = 12;
  Sink.emit(Run);
  Sink.emit(Run);
  TraceEvent Verdict;
  Verdict.Kind = TraceEventKind::PathVerdict;
  Verdict.Detail = "match";
  Sink.emit(Verdict);
  EXPECT_EQ(Registry.counter("sim.exit.returned"), 2u);
  EXPECT_EQ(Registry.counter("sim.fuel"), 24u);
  EXPECT_EQ(Registry.counter("verdict.match"), 1u);
  for (const auto &[Name, E] : Registry.counters())
    EXPECT_EQ(E.Class, MetricClass::Deterministic) << Name;

  // Merging adds values and keeps each counter's class.
  MetricsRegistry Other;
  Other.add("sim.fuel", 6);
  Other.add("solver.cache.hits", 3, MetricClass::SchedulingDependent);
  Registry.merge(Other);
  EXPECT_EQ(Registry.counter("sim.fuel"), 30u);
  EXPECT_EQ(Registry.counters().at("solver.cache.hits").Class,
            MetricClass::SchedulingDependent);
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
