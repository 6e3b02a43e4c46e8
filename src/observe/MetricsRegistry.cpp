//===- observe/MetricsRegistry.cpp - Named counters and histograms ---------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//

#include "observe/MetricsRegistry.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

namespace igdt {

void MetricsRegistry::Histogram::sample(double Value) {
  if (Count == 0) {
    Min = Max = Value;
  } else {
    Min = Value < Min ? Value : Min;
    Max = Value > Max ? Value : Max;
  }
  ++Count;
  Total += Value;
}

void MetricsRegistry::Histogram::merge(const Histogram &Other) {
  if (Other.Count == 0)
    return;
  if (Count == 0) {
    *this = Other;
    return;
  }
  Min = Other.Min < Min ? Other.Min : Min;
  Max = Other.Max > Max ? Other.Max : Max;
  Count += Other.Count;
  Total += Other.Total;
}

void MetricsRegistry::add(const std::string &Name, std::uint64_t Delta) {
  Counters[Name] += Delta;
}

void MetricsRegistry::sample(const std::string &Name, double Value) {
  Histograms[Name].sample(Value);
}

std::uint64_t MetricsRegistry::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

void MetricsRegistry::merge(const MetricsRegistry &Other) {
  for (const auto &[Name, Value] : Other.Counters)
    Counters[Name] += Value;
  for (const auto &[Name, H] : Other.Histograms)
    Histograms[Name].merge(H);
}

void MetricsRegistry::reset() {
  Counters.clear();
  Histograms.clear();
}

std::string MetricsRegistry::render() const {
  std::string Out;
  if (!Counters.empty()) {
    TablePrinter T({"counter", "value"});
    for (const auto &[Name, Value] : Counters)
      T.addRow({Name, formatString("%llu", (unsigned long long)Value)});
    Out += T.render();
  }
  if (!Histograms.empty()) {
    if (!Out.empty())
      Out += "\n";
    TablePrinter T({"histogram", "count", "total", "mean", "min", "max"});
    for (const auto &[Name, H] : Histograms)
      T.addRow({Name, formatString("%llu", (unsigned long long)H.Count),
                formatString("%.3f", H.Total), formatString("%.3f", H.mean()),
                formatString("%.3f", H.Min), formatString("%.3f", H.Max)});
    Out += T.render();
  }
  return Out;
}

JsonValue MetricsRegistry::toJson() const {
  JsonValue V = JsonValue::object();
  JsonValue C = JsonValue::object();
  for (const auto &[Name, Value] : Counters)
    C.set(Name, JsonValue::number(static_cast<double>(Value)));
  V.set("counters", std::move(C));
  JsonValue H = JsonValue::object();
  for (const auto &[Name, Hist] : Histograms) {
    JsonValue One = JsonValue::object();
    One.set("count", JsonValue::number(static_cast<double>(Hist.Count)));
    One.set("total", JsonValue::number(Hist.Total));
    One.set("min", JsonValue::number(Hist.Min));
    One.set("max", JsonValue::number(Hist.Max));
    H.set(Name, std::move(One));
  }
  V.set("histograms", std::move(H));
  return V;
}

void MetricsSink::emit(TraceEvent Event) {
  Registry.add(std::string("events.") + traceEventKindName(Event.Kind));
  switch (Event.Kind) {
  case TraceEventKind::SolverQuery:
    Registry.add("events.solver.status." + Event.Detail);
    Registry.add("events.solver.nodes", Event.Value);
    Registry.add("events.solver.cases", Event.Extra);
    break;
  case TraceEventKind::CacheLookup:
    // "code-*" details come from the JIT code cache; everything else
    // from the solver's shared Unsat index.
    Registry.add((Event.Detail.rfind("code-", 0) == 0
                      ? "events.jit.cache."
                      : "events.solver.cache.") +
                 Event.Detail);
    break;
  case TraceEventKind::LadderRung:
    Registry.add("events.ladder.retries");
    if (Event.Detail == "sat" || Event.Detail == "unsat")
      Registry.add("events.ladder.rescues");
    break;
  case TraceEventKind::PathExplored:
    Registry.add("events.paths.explored");
    if (Event.Extra)
      Registry.add("events.paths.curated");
    break;
  case TraceEventKind::ExploreDone:
    if (Event.Millis > 0)
      Registry.sample("stage.explore.millis", Event.Millis);
    break;
  case TraceEventKind::Compile:
    Registry.add("events.compile." + Event.Detail);
    Registry.add("events.compile.bytes", Event.Value);
    break;
  case TraceEventKind::SimRun:
    Registry.add("events.sim.exit." + Event.Detail);
    Registry.add("events.sim.fuel", Event.Value);
    break;
  case TraceEventKind::PathVerdict:
    Registry.add("events.verdict." + Event.Detail);
    break;
  case TraceEventKind::Containment:
    Registry.add("events.containment." + Event.Detail);
    break;
  case TraceEventKind::Quarantine:
    break;
  case TraceEventKind::StageTime:
    if (Event.Millis > 0)
      Registry.sample("stage." + Event.Detail + ".millis", Event.Millis);
    break;
  case TraceEventKind::WorkerEvent:
    Registry.add("events.worker." + Event.Detail);
    break;
  }
}

} // namespace igdt
