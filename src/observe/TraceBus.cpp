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
  }
  return "unknown";
}

bool traceEventIsSchedulingDependent(TraceEventKind Kind) {
  // SharedUnsatIndex hits depend on which worker stored a proof
  // first; everything else is a pure function of the instruction and
  // the campaign options (see DESIGN.md "Parallel execution model").
  return Kind == TraceEventKind::CacheLookup;
}

namespace {

/// Kinds in declaration order, for fromJson name lookup.
constexpr TraceEventKind AllKinds[] = {
    TraceEventKind::SolverQuery,  TraceEventKind::CacheLookup,
    TraceEventKind::LadderRung,   TraceEventKind::PathExplored,
    TraceEventKind::ExploreDone,  TraceEventKind::Compile,
    TraceEventKind::SimRun,       TraceEventKind::PathVerdict,
    TraceEventKind::Containment,  TraceEventKind::Quarantine,
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
  Out.Attempt = 0;
  Out.Value = Out.Extra = 0;
  if (!V->readUnsigned("attempt", Out.Attempt) ||
      !V->readUnsigned("value", Out.Value) ||
      !V->readUnsigned("extra", Out.Extra))
    return false;
  Out.Detail = V->stringOr("detail", "");
  Out.Aux = V->stringOr("aux", "");
  Out.Millis = V->numberOr("millis", 0);
  return true;
}

void JsonlTraceSink::emit(TraceEvent Event) {
  if (!traceEventIsSchedulingDependent(Event.Kind))
    Out << Event.toJson() << '\n';
}

} // namespace igdt
