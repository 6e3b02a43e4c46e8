//===- support/CpuFeatures.h - Host capability probing --------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One place that answers "what can this host actually run?" for every
/// executor. Two kinds of answers live here:
///
///  - Compile-time toolchain capabilities (does this build carry the
///    labels-as-values threaded dispatcher?), which are constants. The
///    simulator's one fallback (Threaded -> Switch) reads this.
///  - Runtime hardware/OS capabilities (is this an x86-64 unix host
///    whose CPU has the SSE4.1 instructions the native tier emits?),
///    which are probed once via CPUID and cached. The cross-engine
///    oracle reads this: without the tier it runs no probe.
///
/// `IGDT_NO_NATIVE` in the environment forces the native tier off: CI
/// and tests use it to exercise the no-probe path on hosts that would
/// otherwise support native execution.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SUPPORT_CPUFEATURES_H
#define IGDT_SUPPORT_CPUFEATURES_H

namespace igdt {

/// True when this build carries the computed-goto threaded dispatcher
/// (labels-as-values is a GNU extension); otherwise the predecoded
/// engine transparently degrades to the reference switch loop.
bool simThreadedDispatchSupported();

/// True when the native x86-64 execution tier can run on this host:
/// an x86-64 unix build, a CPU reporting SSE4.1 (the generated code
/// uses roundsd), and no `IGDT_NO_NATIVE` environment override. The
/// probe runs once and is cached; on `false` the cross-engine oracle
/// runs no native probe, and replays are unaffected either way.
bool nativeTierSupported();

/// Re-probes the environment override and CPU features. Tests that
/// setenv/unsetenv `IGDT_NO_NATIVE` mid-process call this to make the
/// cached answer reflect the new environment.
void refreshCpuFeatureCacheForTesting();

} // namespace igdt

#endif // IGDT_SUPPORT_CPUFEATURES_H
