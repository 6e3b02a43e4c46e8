//===- differential/ReplayArena.h - Pooled per-worker replay state --------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the mutable state one replay worker reuses from path to path: a
/// VM heap rolled back between paths via high-watermark reset plus an
/// undo journal (vm/ObjectMemory.h), and a pooled simulator stack
/// re-zeroed to its dirty watermark (jit/MachineSim.h). Replaying a
/// path used to build — and zero-fill — a fresh 1 MiB heap and a fresh
/// 64 KiB stack; with an arena the per-path cost is proportional to the
/// bytes the path actually touched.
///
/// The reset contract makes a pooled heap observably identical to a
/// fresh one (allocation sequence, identity hashes, class indices,
/// singleton bytes), so test outcomes are byte-identical with or
/// without an arena; ReplayArenaTest holds both claims.
///
/// Arenas are strictly worker-local, like the code cache: one per
/// campaign Jobs slot and one per Session.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_DIFFERENTIAL_REPLAYARENA_H
#define IGDT_DIFFERENTIAL_REPLAYARENA_H

#include "jit/MachineSim.h"
#include "vm/ObjectMemory.h"

#include <cstdint>

namespace igdt {

class MetricsRegistry;

/// Arena/reset counters ("replay.*" metrics). Deterministic for a fixed
/// configuration, but they describe how the harness ran rather than
/// what the code under test did, so — like the code-cache counters —
/// they never enter campaign records or checkpoints.
struct ReplayStats {
  std::uint64_t HeapAcquires = 0;     ///< pooled-heap handouts
  std::uint64_t HeapResets = 0;       ///< handouts that rolled back state
  std::uint64_t HeapBytesReset = 0;   ///< bytes released by rollbacks
  std::uint64_t HeapFreshBuilds = 0;  ///< throwaway heaps built (arena off)
  std::uint64_t HeapBytesRebuilt = 0; ///< capacity of those heaps, in bytes
  std::uint64_t UndoStoresReplayed = 0; ///< journalled stores undone
  std::uint64_t StackBytesReset = 0;  ///< pooled stack bytes re-zeroed
  void add(const ReplayStats &O) {
    HeapAcquires += O.HeapAcquires;
    HeapResets += O.HeapResets;
    HeapBytesReset += O.HeapBytesReset;
    HeapFreshBuilds += O.HeapFreshBuilds;
    HeapBytesRebuilt += O.HeapBytesRebuilt;
    UndoStoresReplayed += O.UndoStoresReplayed;
    StackBytesReset += O.StackBytesReset;
  }
};

/// Publishes \p Stats into \p Registry under "replay.*".
void foldReplayStats(MetricsRegistry &Registry, const ReplayStats &Stats);

/// Pooled replay state for one worker. Not thread-safe.
class ReplayArena {
public:
  /// Same size as the throwaway heap the tester historically built per
  /// path, so pooled and fresh replays see identical heap capacity.
  static constexpr std::size_t HeapBytes = 1024 * 1024;

  ReplayArena() : Mem(HeapBytes), Baseline(Mem.mark()) {}
  ReplayArena(const ReplayArena &) = delete;
  ReplayArena &operator=(const ReplayArena &) = delete;

  /// The pooled heap, rolled back to its pristine (fresh-construction)
  /// state. Rollback counters land in \p Stats when non-null.
  ObjectMemory &acquireHeap(ReplayStats *Stats);

  /// The pooled simulator stack, wired into SimOptions::StackPool.
  SimStackPool &stackPool() { return Stack; }

private:
  ObjectMemory Mem;
  HeapMark Baseline;
  SimStackPool Stack;
  bool Dirty = false;
};

} // namespace igdt

#endif // IGDT_DIFFERENTIAL_REPLAYARENA_H
