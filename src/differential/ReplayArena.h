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
/// re-zeroed to its dirty watermark (jit/MachineSim.h). Every replayed
/// path runs on an arena, so its set-up cost is proportional to the
/// bytes the path actually touched rather than to a fresh 1 MiB heap
/// and 64 KiB stack.
///
/// The reset contract makes a pooled heap observably identical to a
/// fresh one (allocation sequence, identity hashes, class indices,
/// singleton bytes), so a path's outcome does not depend on what the
/// arena replayed before it; ReplayArenaTest holds that claim against
/// a new arena per path.
///
/// Arenas are strictly worker-local, like the code cache: one per
/// campaign Jobs slot, one per Session, and one in each
/// DifferentialTester built without one.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_DIFFERENTIAL_REPLAYARENA_H
#define IGDT_DIFFERENTIAL_REPLAYARENA_H

#include "jit/MachineSim.h"
#include "vm/ObjectMemory.h"

#include <cstdint>

namespace igdt {

/// Arena/reset counters ("replay.*" metrics). They describe how the
/// harness ran rather than what the code under test did, so they never
/// enter campaign records or checkpoints. Every replayed path acquires
/// the heap once, so the acquire count is deterministic. The rollback
/// counters are scheduling-dependent: a rollback undoes the previous path replayed on
/// the same arena, and a campaign keeps one arena per worker thread, so
/// which path that was (and how much it dirtied) depends on which worker
/// ran what.
struct ReplayStats {
  std::uint64_t HeapAcquires = 0;     ///< pooled-heap handouts
  std::uint64_t HeapResets = 0;       ///< handouts that rolled back state
  std::uint64_t HeapBytesReset = 0;   ///< bytes released by rollbacks
  std::uint64_t UndoStoresReplayed = 0; ///< journalled stores undone
  std::uint64_t StackBytesReset = 0;  ///< pooled stack bytes re-zeroed

  static constexpr Counter<ReplayStats> Counters[] = {
      {"replay.heap.acquires", &ReplayStats::HeapAcquires,
       MetricClass::Deterministic},
      {"replay.heap.resets", &ReplayStats::HeapResets,
       MetricClass::SchedulingDependent},
      {"replay.heap.bytes_reset", &ReplayStats::HeapBytesReset,
       MetricClass::SchedulingDependent},
      {"replay.undo_stores", &ReplayStats::UndoStoresReplayed,
       MetricClass::SchedulingDependent},
      {"replay.stack.bytes_reset", &ReplayStats::StackBytesReset,
       MetricClass::SchedulingDependent},
  };
  void add(const ReplayStats &Other) { addCounters(*this, Other); }
};
static_assert(declaresEveryMember<ReplayStats>());

/// Pooled replay state for one worker. Not thread-safe.
class ReplayArena {
public:
  /// Capacity of the pooled heap.
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
