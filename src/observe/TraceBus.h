//===- observe/TraceBus.h - Structured pipeline tracing --------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead structured tracing threaded through the whole pipeline
/// (solver, explorer, Cogit front-ends, simulator, differential tester,
/// campaign runner). Emitters hold a nullable `TraceSink *`; the
/// disabled-path cost is exactly one branch on that pointer, so tier-1
/// timings are unaffected when nobody is listening.
///
/// Under `CampaignOptions::Jobs > 1` each worker buffers its events in a
/// worker-local `TraceBuffer` and the campaign's single merge thread
/// flushes buffers in catalog order — the same discipline checkpoints and
/// incidents already follow — so the JSONL trace is byte-identical at any
/// job count. The one scheduling-dependent event kind (CacheLookup:
/// SharedUnsatIndex hits vary with worker timing) never enters a trace
/// file; the SolverStats and JitCacheStats counter tables carry its
/// counts.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_OBSERVE_TRACEBUS_H
#define IGDT_OBSERVE_TRACEBUS_H

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace igdt {

/// The event taxonomy. One kind per pipeline stage boundary the
/// evaluation cares about; see DESIGN.md "Observability" for the field
/// conventions of each kind.
enum class TraceEventKind : std::uint8_t {
  /// Solver answered one query. Detail=status, Value=nodes searched,
  /// Extra=cases explored (both deltas for this query, cost-compensated
  /// on shared-index hits so they are scheduling-independent).
  SolverQuery,
  /// Cache diagnostics. Detail=shared-hit|miss from the solver's shared
  /// Unsat index, code-hit|code-miss from the JIT code cache.
  /// Scheduling-dependent by design (shared-index hits depend on worker
  /// interleaving); excluded from deterministic trace files.
  CacheLookup,
  /// Degradation-ladder retry of an Unknown negation. Value=rung,
  /// Detail=resulting status.
  LadderRung,
  /// Concolic execution finished one path. Detail=exit kind,
  /// Extra=1 when the path survived curation, Value=path index.
  PathExplored,
  /// Exploration of one instruction completed. Detail=complete or
  /// budget-exhausted, Value=path count, Millis=exploration wall time.
  ExploreDone,
  /// A Cogit front-end produced code. Detail=compiler kind, Aux=unit
  /// (bytecode|method|native-method), Value=machine code bytes.
  Compile,
  /// MachineSim executed compiled code. Detail=machine exit kind,
  /// Value=fuel consumed. Nothing names the engine, so trace files are
  /// byte-identical whichever engine replayed.
  SimRun,
  /// DifferentialTester classified one path. Detail=path status,
  /// Aux=compiler/backend, Value=path index.
  PathVerdict,
  /// CampaignRunner contained a harness fault. Detail=stage,
  /// Aux=error class, Value=attempt number.
  Containment,
  /// CampaignRunner quarantined an instruction. Value=attempts used.
  Quarantine,
};

/// Stable lowercase name used as the JSONL "kind" field.
const char *traceEventKindName(TraceEventKind Kind);

/// True for kinds whose emission depends on worker scheduling
/// (CacheLookup). These never enter deterministic trace files.
bool traceEventIsSchedulingDependent(TraceEventKind Kind);

/// One typed event. Every event carries the instruction name and the
/// campaign attempt it belongs to so traces correlate with incidents
/// and checkpoint rows.
struct TraceEvent {
  TraceEventKind Kind = TraceEventKind::SolverQuery;
  /// Instruction (or byte-code sequence) being processed. Stamped by
  /// TraceScope; emitters leave it empty.
  std::string Instruction;
  /// Campaign attempt (1-based). Stamped by TraceScope.
  unsigned Attempt = 0;
  /// Kind-specific discriminator (status / stage / exit name).
  std::string Detail;
  /// Secondary string payload (backend, unit, error class).
  std::string Aux;
  /// Primary numeric payload.
  std::uint64_t Value = 0;
  /// Secondary numeric payload.
  std::uint64_t Extra = 0;
  /// Wall time in milliseconds. Zeroed by TraceScope when the campaign
  /// runs with RecordTimings off, preserving trace byte-identity.
  double Millis = 0;

  bool operator==(const TraceEvent &Other) const = default;

  /// Compact single-line JSON (the JSONL trace format).
  std::string toJson() const;
  /// Parses one JSONL line; false on malformed input or unknown kind.
  static bool fromJson(const std::string &Line, TraceEvent &Out);
};

/// Abstract event consumer. Emitters call `emit` only behind a null
/// check on their sink pointer.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void emit(TraceEvent Event) = 0;
};

/// Worker-local accumulator. Not thread-safe by design: each campaign
/// worker owns one per instruction attempt, and the merge thread drains
/// them in catalog order.
class TraceBuffer final : public TraceSink {
public:
  void emit(TraceEvent Event) override { Events.push_back(std::move(Event)); }

  const std::vector<TraceEvent> &events() const { return Events; }
  std::vector<TraceEvent> take() { return std::move(Events); }
  void clear() { Events.clear(); }
  bool empty() const { return Events.empty(); }

private:
  std::vector<TraceEvent> Events;
};

/// Stamping forwarder: fills in the instruction name and attempt on
/// every event that passes through, and zeroes Millis when timings are
/// not being recorded. Emitters below the campaign layer stay ignorant
/// of which instruction they serve.
class TraceScope final : public TraceSink {
public:
  TraceScope(TraceSink *Downstream, std::string Instruction, unsigned Attempt,
             bool RecordTimings = true)
      : Downstream(Downstream), Instruction(std::move(Instruction)),
        Attempt(Attempt), RecordTimings(RecordTimings) {}

  void emit(TraceEvent Event) override {
    if (!Downstream)
      return;
    Event.Instruction = Instruction;
    Event.Attempt = Attempt;
    if (!RecordTimings)
      Event.Millis = 0;
    Downstream->emit(std::move(Event));
  }

private:
  TraceSink *Downstream;
  std::string Instruction;
  unsigned Attempt;
  bool RecordTimings;
};

/// Writes one JSON object per line to a stream, dropping the
/// scheduling-dependent kinds so the file is byte-identical across job
/// counts.
class JsonlTraceSink final : public TraceSink {
public:
  explicit JsonlTraceSink(std::ostream &Out) : Out(Out) {}

  void emit(TraceEvent Event) override;

private:
  std::ostream &Out;
};

} // namespace igdt

#endif // IGDT_OBSERVE_TRACEBUS_H
