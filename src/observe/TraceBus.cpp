//===- observe/TraceBus.cpp - Structured pipeline tracing ------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//

#include "observe/TraceBus.h"

#include "support/Json.h"

namespace igdt {

const char *traceEventKindName(TraceEventKind Kind) {
  switch (Kind) {
  case TraceEventKind::SolverQuery:
    return "solver-query";
  case TraceEventKind::CacheLookup:
    return "cache-lookup";
  case TraceEventKind::LadderRung:
    return "ladder-rung";
  case TraceEventKind::PathExplored:
    return "path-explored";
  case TraceEventKind::ExploreDone:
    return "explore-done";
  case TraceEventKind::Compile:
    return "compile";
  case TraceEventKind::SimRun:
    return "sim-run";
  case TraceEventKind::PathVerdict:
    return "path-verdict";
  case TraceEventKind::Containment:
    return "containment";
  case TraceEventKind::Quarantine:
    return "quarantine";
  case TraceEventKind::StageTime:
    return "stage-time";
  case TraceEventKind::WorkerEvent:
    return "worker-event";
  }
  return "unknown";
}

bool traceEventIsSchedulingDependent(TraceEventKind Kind) {
  // SharedUnsatIndex hits depend on which worker stored a proof
  // first, and worker-process lifecycle depends on pids and wall time;
  // everything else is a pure function of the instruction and the
  // campaign options (see DESIGN.md "Parallel execution model").
  return Kind == TraceEventKind::CacheLookup ||
         Kind == TraceEventKind::WorkerEvent;
}

namespace {

/// Kinds in declaration order, for fromJson name lookup.
constexpr TraceEventKind AllKinds[] = {
    TraceEventKind::SolverQuery,  TraceEventKind::CacheLookup,
    TraceEventKind::LadderRung,   TraceEventKind::PathExplored,
    TraceEventKind::ExploreDone,  TraceEventKind::Compile,
    TraceEventKind::SimRun,       TraceEventKind::PathVerdict,
    TraceEventKind::Containment,  TraceEventKind::Quarantine,
    TraceEventKind::StageTime,    TraceEventKind::WorkerEvent,
};

} // namespace

std::string TraceEvent::toJson() const {
  JsonValue V = JsonValue::object();
  V.set("kind", JsonValue::string(traceEventKindName(Kind)));
  V.set("instruction", JsonValue::string(Instruction));
  V.set("attempt", JsonValue::number(Attempt));
  V.set("detail", JsonValue::string(Detail));
  V.set("aux", JsonValue::string(Aux));
  V.set("value", JsonValue::number(static_cast<double>(Value)));
  V.set("extra", JsonValue::number(static_cast<double>(Extra)));
  V.set("millis", JsonValue::number(Millis));
  return V.dump();
}

bool TraceEvent::fromJson(const std::string &Line, TraceEvent &Out) {
  std::optional<JsonValue> V = JsonValue::parse(Line);
  if (!V || V->K != JsonValue::Kind::Object)
    return false;
  std::string KindName = V->stringOr("kind", "");
  bool Found = false;
  for (TraceEventKind K : AllKinds) {
    if (KindName == traceEventKindName(K)) {
      Out.Kind = K;
      Found = true;
      break;
    }
  }
  if (!Found)
    return false;
  Out.Instruction = V->stringOr("instruction", "");
  Out.Attempt = static_cast<unsigned>(V->numberOr("attempt", 0));
  Out.Detail = V->stringOr("detail", "");
  Out.Aux = V->stringOr("aux", "");
  Out.Value = static_cast<std::uint64_t>(V->numberOr("value", 0));
  Out.Extra = static_cast<std::uint64_t>(V->numberOr("extra", 0));
  Out.Millis = V->numberOr("millis", 0);
  return true;
}

void JsonlTraceSink::emit(TraceEvent Event) {
  if (!IncludeSchedulingDependent && traceEventIsSchedulingDependent(Event.Kind))
    return;
  Out << Event.toJson() << '\n';
  ++Written;
}

void TraceBus::addSink(TraceSink *Sink) {
  if (!Sink)
    return;
  std::lock_guard<std::mutex> Guard(Lock);
  Sinks.push_back(Sink);
}

void TraceBus::emit(TraceEvent Event) {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Sinks.empty())
    return;
  for (std::size_t I = 0; I + 1 < Sinks.size(); ++I)
    Sinks[I]->emit(Event);
  Sinks.back()->emit(std::move(Event));
}

std::size_t TraceBus::sinkCount() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Sinks.size();
}

} // namespace igdt
