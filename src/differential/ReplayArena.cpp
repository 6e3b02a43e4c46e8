//===- differential/ReplayArena.cpp - Pooled per-worker replay state ------===//

#include "differential/ReplayArena.h"

using namespace igdt;

ObjectMemory &ReplayArena::acquireHeap(ReplayStats *Stats) {
  if (Stats)
    ++Stats->HeapAcquires;
  if (Dirty) {
    std::size_t Released = Mem.usedBytes() - Baseline.NextFree;
    std::uint64_t UndoBefore = Mem.undoStoresReplayed();
    Mem.resetTo(Baseline);
    if (Stats) {
      ++Stats->HeapResets;
      Stats->HeapBytesReset += Released;
      Stats->UndoStoresReplayed += Mem.undoStoresReplayed() - UndoBefore;
    }
  }
  Dirty = true;
  return Mem;
}
