//===- jit/native/NativeEngine.h - Native-tier entry point ----------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MachineSim-facing door into the native tier: runNativeTier
/// executes one compilation unit on real hardware and returns the same
/// MachineExit (and heap/stack/register effects) the simulator engines
/// produce. The tier is not a replay engine: outside its tests, its one
/// caller is the cross-engine oracle (DiffTestConfig::CrossEngineCheck),
/// which runs it as a probe beside the simulator and skips the probe
/// when nativeTierSupported() is false. Every caller must check that
/// first.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_JIT_NATIVE_NATIVEENGINE_H
#define IGDT_JIT_NATIVE_NATIVEENGINE_H

namespace igdt {

class MachineSim;
struct CompiledCode;
struct MachineExit;

/// Runs \p Code through the native x86-64 tier on behalf of \p Sim:
/// copies guest state into a NativeContext, enters the generated code
/// through the trampoline, and maps the exit back — falling back to
/// the reference switch loop mid-run when a block's fuel cannot be
/// charged, exactly as the threaded engine does.
MachineExit runNativeTier(MachineSim &Sim, const CompiledCode &Code);

} // namespace igdt

#endif // IGDT_JIT_NATIVE_NATIVEENGINE_H
