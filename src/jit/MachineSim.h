//===- jit/MachineSim.h - Machine-code simulator ------------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes generated machine code against the VM heap, playing the role
/// Unicorn plays in the Pharo simulation environment (paper Fig. 4). The
/// simulator observes exactly the events the differential oracle needs:
/// breakpoints, returns, trampoline calls, memory faults.
///
/// Faults go through a "recovery" table of per-register accessors,
/// mirroring the reflective register accessors of the paper's simulation
/// runtime; entries can be deliberately removed to reproduce the paper's
/// two *simulation error* findings (§5.3).
///
/// Two execution engines share these semantics: the reference switch
/// loop (authoritative, per-instruction fuel) and a pre-decoded threaded
/// fast path (jit/PredecodedCode.h, block-level fuel); SimOptions::Engine
/// selects between them per run. A third executor, the native x86-64
/// tier (jit/native/), is not an engine but the cross-engine oracle's
/// probe: runNativeTier runs generated machine code on real hardware
/// against the same MachineSim state. All three produce byte-identical
/// MachineExit and heap/stack effects.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_JIT_MACHINESIM_H
#define IGDT_JIT_MACHINESIM_H

#include "jit/ABI.h"
#include "jit/MachineCode.h"
#include "jit/Trampolines.h"
#include "observe/Counters.h"
#include "vm/ObjectMemory.h"

#include <cstdio>
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace igdt {

class TraceSink;
struct CompiledCode;
struct PredecodedCode;

/// Why machine execution stopped.
enum class MachExitKind : std::uint8_t {
  Breakpoint,
  Returned,
  TrampolineCall,
  Segfault,
  SimulationError,
  FuelExhausted,
  DivideFault,
};

const char *machExitKindName(MachExitKind Kind);

/// Fixed-capacity exit annotation. MachineExit used to carry a
/// std::string here, which put an allocation on every run() return —
/// clean exits included — and the replay hot path constructs millions
/// of exits. The capacity covers every note the simulator formats;
/// anything longer is truncated, never overrun.
class ExitNote {
public:
  ExitNote() { Text[0] = '\0'; }
  ExitNote(const char *S) { assign(S); }

  bool empty() const { return Text[0] == '\0'; }
  const char *c_str() const { return Text; }
  std::string str() const { return Text; }
  /// std::string::find-compatible: offset of \p Needle or
  /// std::string::npos.
  std::size_t find(const char *Needle) const {
    const char *P = std::strstr(Text, Needle);
    return P ? static_cast<std::size_t>(P - Text) : std::string::npos;
  }

  ExitNote &operator=(const char *S) {
    assign(S);
    return *this;
  }
  /// printf-style assignment, truncating at capacity.
  void format(const char *Fmt, ...);

private:
  void assign(const char *S) {
    std::snprintf(Text, sizeof(Text), "%s", S);
  }
  char Text[120];
};

inline std::ostream &operator<<(std::ostream &Os, const ExitNote &N) {
  return Os << N.c_str();
}

/// Terminal state of a simulation run.
struct MachineExit {
  MachExitKind Kind = MachExitKind::FuelExhausted;
  std::uint16_t Marker = 0;      // Breakpoint
  SelectorId Selector = 0;       // TrampolineCall
  std::uint8_t NumArgs = 0;      // TrampolineCall
  std::uint64_t FaultAddress = 0; // Segfault
  ExitNote Note;                 // SimulationError / FuelExhausted detail
  /// Fuel remaining when execution stopped (0 on FuelExhausted);
  /// incident reports use it to tell a genuine runaway from a run that
  /// stopped one instruction short of its allowance.
  std::uint64_t FuelLeft = 0;
};

/// Dispatch-engine counters ("sim.*" metrics). Apart from the run count
/// they describe how the harness executed, not what the code under test
/// did, so they never enter campaign records or checkpoints.
struct SimStats {
  std::uint64_t Runs = 0;            ///< total run() invocations
  std::uint64_t PredecodedRuns = 0;  ///< served by the threaded fast path
  std::uint64_t ReferenceRuns = 0;   ///< served by the reference loop
  std::uint64_t PredecodeBuilds = 0; ///< PredecodedCode built from scratch
  std::uint64_t PredecodeHits = 0;   ///< runs reusing a cached predecode
  std::uint64_t NativeRuns = 0;      ///< served by the native x86-64 tier
  std::uint64_t NativeBuilds = 0;    ///< NativeCode compiled from scratch
  std::uint64_t NativeHits = 0;      ///< runs reusing cached native code
  std::uint64_t NativeFallbacks = 0; ///< native runs that fell back mid-run
  /// Nanoseconds spent inside engine execution, accumulated only when
  /// SimOptions::TimeRuns is set (benches); zero otherwise so campaign
  /// runs stay free of clock reads.
  std::uint64_t RunNanos = 0;

  static constexpr Counter<SimStats> Counters[] = {
      {"sim.runs", &SimStats::Runs, MetricClass::Deterministic},
      {"sim.runs.predecoded", &SimStats::PredecodedRuns,
       MetricClass::ConfigDependent},
      {"sim.runs.reference", &SimStats::ReferenceRuns,
       MetricClass::ConfigDependent},
      {"sim.predecode.builds", &SimStats::PredecodeBuilds,
       MetricClass::ConfigDependent},
      {"sim.predecode.hits", &SimStats::PredecodeHits,
       MetricClass::ConfigDependent},
      {"sim.runs.native", &SimStats::NativeRuns, MetricClass::ConfigDependent},
      {"sim.native.builds", &SimStats::NativeBuilds,
       MetricClass::ConfigDependent},
      {"sim.native.hits", &SimStats::NativeHits, MetricClass::ConfigDependent},
      {"sim.native.fallbacks", &SimStats::NativeFallbacks,
       MetricClass::ConfigDependent},
      {"sim.run.nanos", &SimStats::RunNanos, MetricClass::SchedulingDependent},
  };
  void add(const SimStats &Other) { addCounters(*this, Other); }
};
static_assert(declaresEveryMember<SimStats>());

/// Pooled simulator stack memory (one per replay worker, owned by
/// differential/ReplayArena.h). A fresh MachineSim zero-fills all
/// abi::StackBytes of stack; pooled construction borrows this buffer
/// and re-zeroes only the bytes the previous run dirtied (tracked as a
/// high watermark of store offsets), so per-path stack cost tracks
/// bytes touched rather than stack size.
class SimStackPool {
public:
  SimStackPool() : Mem(abi::StackBytes, 0) {}

  /// The buffer, with every byte a previous borrower dirtied re-zeroed.
  std::uint8_t *acquire() {
    if (DirtyHigh) {
      std::memset(Mem.data(), 0, DirtyHigh);
      TotalBytesReset += DirtyHigh;
      DirtyHigh = 0;
    }
    return Mem.data();
  }
  std::size_t size() const { return Mem.size(); }

  /// Called by the simulator after writing up to stack offset \p End.
  void noteTouched(std::size_t End) {
    if (End > DirtyHigh)
      DirtyHigh = End;
  }

  /// Cumulative bytes re-zeroed by acquire() ("replay.stack.*").
  std::uint64_t bytesReset() const { return TotalBytesReset; }

private:
  std::vector<std::uint8_t> Mem;
  std::size_t DirtyHigh = 0;
  std::uint64_t TotalBytesReset = 0;
};

/// Which engine executes run(const CompiledCode&). Both produce
/// byte-identical exits and heap/stack effects (verified by
/// PredecodeTest); the switch loop remains the authoritative semantics.
/// Threaded falls back to Switch on toolchains without computed goto.
enum class SimEngine : std::uint8_t {
  Switch,   ///< reference switch loop (authoritative)
  Threaded, ///< pre-decoded computed-goto dispatch
};

/// Simulator configuration, including the simulation-error seeds.
struct SimOptions {
  /// Registers whose fault-recovery accessor is "missing" (paper §5.3,
  /// Simulation Error family). A fault whose destination register is in
  /// this set raises SimulationError instead of a clean Segfault report.
  std::set<std::uint8_t> MissingGPAccessors;
  std::set<std::uint8_t> MissingFPAccessors;
  std::uint64_t Fuel = 100000;
  /// Execution engine for run(const CompiledCode&); see SimEngine.
  SimEngine Engine = SimEngine::Threaded;
  /// Deliberately miscompile AddI in the native tier (off-by-one on the
  /// immediate). Exists solely so tests and benches can prove the
  /// cross-engine oracle detects a genuinely divergent code generator;
  /// never set in production configurations.
  bool NativeMiscompileProbe = false;
  /// Accumulate SimStats::RunNanos around engine execution. Off by
  /// default: campaign records must not depend on clock reads.
  bool TimeRuns = false;
  /// Pooled stack memory (non-owning, may be null). When set, the
  /// simulator borrows the pool's buffer instead of owning a fresh
  /// zero-filled stack; at most one live MachineSim may borrow a pool.
  SimStackPool *StackPool = nullptr;
  /// Dispatch-engine counters (non-owning, may be null).
  SimStats *Stats = nullptr;
  /// Observability sink (non-owning, may be null). Each run emits one
  /// SimRun event (exit kind, fuel consumed).
  TraceSink *Trace = nullptr;
};

/// Read-only view of the in-memory operand stack, bottom to top. The
/// oracle used to copy the whole stack into a vector per comparison;
/// this view aliases the simulator's stack bytes directly. When
/// defective code drove SP outside the stack region, the view falls
/// back to owned storage filled through the same bounds-checked loads
/// the copy used, so observable behaviour is unchanged.
class OperandStackView {
public:
  std::size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  std::uint64_t operator[](std::size_t I) const {
    if (!Owned.empty())
      return Owned[I];
    std::uint64_t V;
    std::memcpy(&V, Borrowed + I * 8, 8);
    return V;
  }

private:
  friend class MachineSim;
  const std::uint8_t *Borrowed = nullptr;
  std::size_t Count = 0;
  std::vector<std::uint64_t> Owned; // fallback storage, else borrowed
};

/// Machine register file + stack memory, bound to a VM heap.
class MachineSim {
public:
  MachineSim(ObjectMemory &Heap, SimOptions Options = SimOptions());

  /// \name Register access
  /// @{
  std::uint64_t reg(MReg R) const { return Regs[unsigned(R)]; }
  void setReg(MReg R, std::uint64_t V) { Regs[unsigned(R)] = V; }
  double freg(FReg R) const { return FRegs[unsigned(R)]; }
  void setFReg(FReg R, double V) { FRegs[unsigned(R)] = V; }
  /// @}

  /// \name Machine stack memory
  /// @{
  bool stackStore64(std::uint64_t Address, std::uint64_t Value);
  std::optional<std::uint64_t> stackLoad64(std::uint64_t Address) const;
  /// @}

  /// Initialises FP/SP for a byte-code fragment frame with \p NumLocals
  /// locals, returning the operand-stack base address.
  std::uint64_t setUpFrame(unsigned NumLocals);

  /// Writes \p Value as receiver ([FP+0]) of the current frame.
  void writeReceiver(std::uint64_t Value);
  /// Writes local \p I of the current frame.
  void writeLocal(unsigned I, std::uint64_t Value);
  std::uint64_t readLocal(unsigned I) const;
  std::uint64_t readReceiver() const;

  /// Pushes \p Value onto the machine operand stack (adjusts SP).
  void pushOperand(std::uint64_t Value);
  /// Operand-stack contents, bottom to top, of the current frame.
  std::vector<std::uint64_t> operandStack() const;
  /// Copy-free equivalent of operandStack() for the oracle's
  /// comparisons; valid until the simulator runs or is destroyed.
  OperandStackView operandStackView() const;

  /// Executes \p Code from instruction 0 until a terminal event,
  /// through the reference switch loop.
  MachineExit run(const std::vector<MInstr> &Code);
  /// Executes a compilation unit through the engine Opts.Engine selects
  /// (building or reusing Code.Predecoded).
  MachineExit run(const CompiledCode &Code);
  /// Runs an already-built predecode with block-level fuel accounting.
  /// \p Reference is the originating MInstr vector (index-compatible by
  /// construction); the dispatcher delegates to it when a block's fuel
  /// cannot be charged up front. Exposed for the equivalence tests.
  MachineExit runPredecoded(const PredecodedCode &P,
                            const std::vector<MInstr> &Reference);

  /// Heap watermark when the simulator was constructed — objects above
  /// it were allocated by compiled code.
  std::size_t heapWatermark() const { return Watermark; }

  ObjectMemory &heap() { return Heap; }

  /// FNV-1a hash over the live stack bytes ([StackBase, SP) clamped to
  /// the stack region). The cross-engine oracle compares it between a
  /// native probe run and the simulator run; any stack byte the engines
  /// disagree on changes the hash.
  std::uint64_t stackHash() const;

private:
  friend struct NativeEngineAccess;

  enum class Rel : std::uint8_t { Less, Equal, Greater, Unordered };

  std::optional<std::uint64_t> load64(std::uint64_t Address) const;
  bool store64(std::uint64_t Address, std::uint64_t Value);
  std::optional<std::uint8_t> load8(std::uint64_t Address) const;
  bool store8(std::uint64_t Address, std::uint8_t Value);

  bool condHolds(MCond C) const;
  MachineExit fault(const MInstr &I, std::uint64_t Address);
  MachineExit faultExit(bool IsFloat, unsigned GpReg, unsigned FpReg,
                        std::uint64_t Address);
  bool runtimeCall(RTFunc Func);
  MachineExit runLoop(const std::vector<MInstr> &Code, std::size_t PC);
  MachineExit runThreaded(const PredecodedCode &P,
                          const std::vector<MInstr> &Reference);
  void finishRun(MachineExit &E);

  ObjectMemory &Heap;
  SimOptions Opts;
  std::uint64_t FuelRemaining = 0;
  std::uint64_t Regs[16] = {};
  double FRegs[8] = {};
  Rel Relation = Rel::Equal;
  bool Overflow = false;
  /// Stack storage: borrowed from Opts.StackPool when pooled, else
  /// OwnedStack. All accesses go through Stack/StackSize.
  std::vector<std::uint8_t> OwnedStack;
  std::uint8_t *Stack = nullptr;
  std::size_t StackSize = 0;
  SimStackPool *Pool = nullptr;
  std::uint64_t FrameBase = 0;
  unsigned FrameLocals = 0;
  std::size_t Watermark;
};

} // namespace igdt

#endif // IGDT_JIT_MACHINESIM_H
