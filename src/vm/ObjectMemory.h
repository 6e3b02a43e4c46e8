//===- vm/ObjectMemory.h - Heap, headers, well-known objects ---------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The QVM heap. Objects live in a contiguous buffer addressed through a
/// virtual base so that Oops look like real pointers: JIT-compiled code
/// running in the machine simulator performs genuine loads/stores against
/// these addresses, and dereferencing a tagged SmallInteger or an
/// out-of-bounds address faults exactly like the segmentation faults the
/// paper reports for missing type checks.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_VM_OBJECTMEMORY_H
#define IGDT_VM_OBJECTMEMORY_H

#include "vm/ClassTable.h"
#include "vm/Oop.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace igdt {

/// Header preceding every heap object body (16 bytes).
struct ObjectHeader {
  std::uint32_t ClassIndex;
  std::uint8_t Format; // ObjectFormat
  std::uint8_t Flags;
  std::uint16_t Pad;
  std::uint32_t SlotCount; // pointer slots, bytes, or 1 for Float64
  std::uint32_t IdentityHash;
};

static_assert(sizeof(ObjectHeader) == 16, "header layout");

/// Snapshot of a heap's allocation state, taken by ObjectMemory::mark()
/// and restored by resetTo(). Cheap value type: four integers.
struct HeapMark {
  std::size_t NextFree = 0;
  std::uint32_t NextHash = 0;
  std::uint32_t ClassCount = 0;
  std::size_t JournalDepth = 0;
};

/// The QVM heap plus its class table and the nil/true/false singletons.
class ObjectMemory {
public:
  /// Virtual address of the first heap byte.
  static constexpr std::uint64_t HeapBase = 0x100000;

  explicit ObjectMemory(std::size_t HeapBytes = 4 * 1024 * 1024);

  /// \name Well-known objects
  /// @{
  Oop nilObject() const { return NilOop; }
  Oop trueObject() const { return TrueOop; }
  Oop falseObject() const { return FalseOop; }
  Oop booleanObject(bool Value) const { return Value ? TrueOop : FalseOop; }
  /// @}

  ClassTable &classTable() { return Classes; }
  const ClassTable &classTable() const { return Classes; }

  /// \name Allocation
  /// @{

  /// Allocates an instance of \p ClassIndex. For Pointers format,
  /// \p IndexableSize must be 0 and the fixed slot count comes from the
  /// class; for indexable formats it is the element count. Slots are
  /// initialised to nil (pointer formats) or zero (byte formats).
  /// Returns InvalidOop when the heap is exhausted.
  Oop allocateInstance(std::uint32_t ClassIndex,
                       std::uint32_t IndexableSize = 0);

  /// Allocates a BoxedFloat holding \p Value.
  Oop allocateFloat(double Value);

  /// Allocates a ByteString with the bytes of \p Text.
  Oop allocateString(const std::string &Text);

  /// @}

  /// \name Object inspection
  /// @{

  /// True if \p Object is a heap reference to a live object.
  bool isHeapObject(Oop Object) const;

  /// Class index of any value (SmallIntegerClass for immediates).
  std::uint32_t classIndexOf(Oop Object) const;

  ObjectFormat formatOf(Oop Object) const;

  /// Slot/byte/element count of \p Object's body.
  std::uint32_t slotCountOf(Oop Object) const;

  std::uint32_t identityHashOf(Oop Object) const;

  bool isBoxedFloat(Oop Object) const {
    return isHeapObject(Object) && classIndexOf(Object) == BoxedFloatClass;
  }

  /// True if the two values denote the same object (identity).
  static bool sameObject(Oop A, Oop B) { return A == B; }

  /// @}

  /// \name Slot access (bounds-checked)
  /// @{

  /// Returns pointer slot \p Index of \p Object, or nullopt when the
  /// access is out of bounds or \p Object is not a pointer object.
  std::optional<Oop> fetchPointerSlot(Oop Object, std::uint32_t Index) const;

  /// Stores into pointer slot \p Index; returns false on invalid access.
  bool storePointerSlot(Oop Object, std::uint32_t Index, Oop Value);

  std::optional<std::uint8_t> fetchByte(Oop Object, std::uint32_t Index) const;
  bool storeByte(Oop Object, std::uint32_t Index, std::uint8_t Value);

  /// Reads the double payload of a BoxedFloat; nullopt otherwise.
  std::optional<double> floatValueOf(Oop Object) const;

  /// Reads a double from any heap address WITHOUT checking the object's
  /// class: models what compiled code with a missing type check does.
  std::optional<double> unsafeFloatValueAt(Oop Object) const;

  /// @}

  /// \name Fault injection (campaign self-tests)
  /// @{

  /// Marks the heap as corrupted; the next integrity check throws.
  void poison(const std::string &Why);

  /// Throws HarnessFault when the heap has been poisoned. Polled on
  /// every allocation — the campaign layer's containment boundary.
  void checkIntegrity() const;

  /// @}

  /// \name Raw memory interface (used by the machine simulator)
  /// @{

  /// True if [Address, Address+Size) lies within the allocated heap.
  bool containsAddress(std::uint64_t Address, std::uint32_t Size) const;

  /// Loads a 64-bit word; nullopt on out-of-bounds or misaligned access.
  std::optional<std::uint64_t> load64(std::uint64_t Address) const;
  bool store64(std::uint64_t Address, std::uint64_t Value);
  std::optional<std::uint8_t> load8(std::uint64_t Address) const;
  bool store8(std::uint64_t Address, std::uint8_t Value);

  /// Virtual address of the body (first slot) of \p Object.
  static std::uint64_t bodyAddress(Oop Object) { return Object + sizeof(ObjectHeader); }

  /// Byte offset from an object Oop to its SlotCount header field.
  static constexpr std::uint32_t SlotCountOffset = 8;
  /// Byte offset from an object Oop to its ClassIndex header field.
  static constexpr std::uint32_t ClassIndexOffset = 0;

  /// @}

  /// \name Pooled replay support (differential/ReplayArena.h)
  /// @{

  /// Snapshots the allocation state and arms the undo journal: from now
  /// on, raw stores landing below the current watermark are journalled
  /// so resetTo() can undo them (defective compiled code can write
  /// anywhere in the live heap, singleton headers included). Until
  /// mark() is called the journal is disarmed and stores pay only one
  /// compare.
  HeapMark mark();

  /// Rolls the heap back to \p M: releases every object allocated since
  /// (their stale bytes are unreachable — allocation re-initialises
  /// header and body), undoes journalled below-mark stores in reverse,
  /// restores the identity-hash sequence (hashes are observable through
  /// raw header loads), drops classes registered since, and clears any
  /// poison. The result is observably identical to a freshly
  /// constructed heap when \p M was taken right after construction.
  void resetTo(const HeapMark &M);

  /// Journalled stores undone by resetTo() so far ("replay.*" metrics).
  std::uint64_t undoStoresReplayed() const { return UndoReplayed; }

  /// Total heap capacity in bytes.
  std::size_t capacityBytes() const { return Capacity; }

  /// @}

  /// Number of bytes currently allocated.
  std::size_t usedBytes() const { return NextFree; }

  /// FNV-1a hash over the allocated heap bytes plus the allocation and
  /// identity-hash cursors. Two heaps that compare equal here are
  /// observably identical through every raw load; the cross-engine
  /// oracle uses it to compare a native probe run against the simulator
  /// run without copying the heap.
  std::uint64_t contentHash() const;

  /// Renders a short description of \p Value for reports and tests.
  std::string describe(Oop Value) const;

private:
  const ObjectHeader *headerOf(Oop Object) const;
  ObjectHeader *headerOf(Oop Object);
  std::uint8_t *bodyOf(Oop Object);
  const std::uint8_t *bodyOf(Oop Object) const;

  std::size_t bodyBytes(const ObjectHeader &Header) const;

  /// One journalled raw store below the watermark.
  struct UndoEntry {
    std::size_t Offset;      ///< heap offset of the overwritten bytes
    std::uint64_t OldValue;  ///< previous contents (low byte for Width 1)
    std::uint8_t Width;      ///< 1 or 8
  };
  void journal64(std::size_t Offset);
  void journal8(std::size_t Offset);

  ClassTable Classes;
  /// Fixed-capacity buffer, never reallocated, so body pointers stay
  /// valid across allocations. Bytes at and above NextFree are
  /// uninitialised (see the constructor).
  std::unique_ptr<std::uint8_t[]> Heap;
  std::size_t Capacity;
  std::size_t NextFree = 0;
  std::uint32_t NextHash = 0x1000;
  /// Heap offset below which stores are journalled; 0 keeps the journal
  /// disarmed (no mark taken yet).
  std::size_t JournalLimit = 0;
  std::vector<UndoEntry> Journal;
  std::uint64_t UndoReplayed = 0;

  bool Poisoned = false;
  std::string PoisonNote;

  Oop NilOop = InvalidOop;
  Oop TrueOop = InvalidOop;
  Oop FalseOop = InvalidOop;
};

} // namespace igdt

#endif // IGDT_VM_OBJECTMEMORY_H
