//===- observe/MetricsRegistry.cpp - Named counters with their class -------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//

#include "observe/MetricsRegistry.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

namespace igdt {

namespace {

constexpr MetricClass AllClasses[] = {MetricClass::Deterministic,
                                      MetricClass::ConfigDependent,
                                      MetricClass::SchedulingDependent};

} // namespace

void MetricsRegistry::add(std::string_view Name, std::uint64_t Delta,
                          MetricClass Class) {
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), Entry{0, Class}).first;
  It->second.Value += Delta;
}

std::uint64_t MetricsRegistry::counter(std::string_view Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second.Value;
}

void MetricsRegistry::merge(const MetricsRegistry &Other) {
  for (const auto &[Name, E] : Other.Counters)
    add(Name, E.Value, E.Class);
}

std::string MetricsRegistry::render() const {
  std::string Out;
  for (MetricClass Class : AllClasses) {
    TablePrinter T({std::string(metricClassName(Class)) + " counter", "value"});
    bool Any = false;
    for (const auto &[Name, E] : Counters)
      if (E.Class == Class) {
        T.addRow({Name, formatString("%llu", (unsigned long long)E.Value)});
        Any = true;
      }
    if (!Any)
      continue;
    if (!Out.empty())
      Out += "\n";
    Out += T.render();
  }
  return Out;
}

JsonValue MetricsRegistry::toJson() const {
  JsonValue V = JsonValue::object();
  for (MetricClass Class : AllClasses) {
    JsonValue C = JsonValue::object();
    for (const auto &[Name, E] : Counters)
      if (E.Class == Class)
        C.set(Name, JsonValue::number(static_cast<double>(E.Value)));
    V.set(metricClassName(Class), std::move(C));
  }
  return V;
}

void MetricsSink::emit(TraceEvent Event) {
  // Solver queries, cache lookups, explore-done and quarantine events
  // repeat counts the stats tables and campaign.* already publish.
  switch (Event.Kind) {
  case TraceEventKind::LadderRung:
    Registry.add("ladder.retries");
    if (Event.Detail == "sat" || Event.Detail == "unsat")
      Registry.add("ladder.rescues");
    break;
  case TraceEventKind::PathExplored:
    Registry.add("paths.explored");
    if (Event.Extra)
      Registry.add("paths.curated");
    break;
  case TraceEventKind::Compile:
    Registry.add("compile." + Event.Detail);
    Registry.add("compile.bytes", Event.Value);
    break;
  case TraceEventKind::SimRun:
    Registry.add("sim.exit." + Event.Detail);
    Registry.add("sim.fuel", Event.Value);
    break;
  case TraceEventKind::PathVerdict:
    Registry.add("verdict." + Event.Detail);
    break;
  case TraceEventKind::Containment:
    Registry.add("containment." + Event.Detail);
    break;
  case TraceEventKind::SolverQuery:
  case TraceEventKind::CacheLookup:
  case TraceEventKind::ExploreDone:
  case TraceEventKind::Quarantine:
    break;
  }
}

} // namespace igdt
