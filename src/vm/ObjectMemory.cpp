//===- vm/ObjectMemory.cpp - Heap, headers, well-known objects -------------===//

#include "vm/ObjectMemory.h"

#include "support/Budget.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstring>

using namespace igdt;

ObjectMemory::ObjectMemory(std::size_t HeapBytes)
    : Heap(std::make_unique_for_overwrite<std::uint8_t[]>(HeapBytes)),
      Capacity(HeapBytes) {
  // The buffer is not zero-filled: allocation writes every header and
  // body byte it hands out, and every read (raw loads, slot access,
  // contentHash) is bounded by NextFree, so bytes above it are never
  // observed. Checking builds fill them with a non-zero pattern so that
  // a read of a byte no allocation wrote changes a result.
#if defined(IGDT_POISON_FRESH_HEAPS) || !defined(NDEBUG)
  std::memset(Heap.get(), 0xA5, HeapBytes);
#endif
  // Reserve the first 16 bytes so that no object sits exactly at HeapBase;
  // this keeps "address == HeapBase" available as a guard value. They lie
  // below NextFree, so raw loads can read them: they are zeroed here.
  std::memset(Heap.get(), 0, std::min<std::size_t>(HeapBytes, 16));
  NextFree = 16;
  NilOop = allocateInstance(UndefinedObjectClass);
  TrueOop = allocateInstance(TrueClass);
  FalseOop = allocateInstance(FalseClass);
  assert(NilOop != InvalidOop && TrueOop != InvalidOop &&
         FalseOop != InvalidOop && "bootstrap allocation failed");
}

std::size_t ObjectMemory::bodyBytes(const ObjectHeader &Header) const {
  switch (static_cast<ObjectFormat>(Header.Format)) {
  case ObjectFormat::Pointers:
  case ObjectFormat::IndexablePointers:
    return std::size_t(Header.SlotCount) * 8;
  case ObjectFormat::IndexableBytes:
    return (std::size_t(Header.SlotCount) + 7) & ~std::size_t(7);
  case ObjectFormat::Float64:
    return 8;
  }
  igdt_unreachable("unknown object format");
}

void ObjectMemory::poison(const std::string &Why) {
  Poisoned = true;
  PoisonNote = Why;
}

void ObjectMemory::checkIntegrity() const {
  if (Poisoned)
    throw HarnessFault("heap", "heap integrity check failed: " + PoisonNote);
}

Oop ObjectMemory::allocateInstance(std::uint32_t ClassIndex,
                                   std::uint32_t IndexableSize) {
  checkIntegrity();
  assert(Classes.isValidIndex(ClassIndex) && "allocating unknown class");
  const ClassInfo &Info = Classes.classAt(ClassIndex);

  ObjectHeader Header = {};
  Header.ClassIndex = ClassIndex;
  Header.Format = static_cast<std::uint8_t>(Info.Format);
  Header.IdentityHash = NextHash;
  NextHash = NextHash * 2654435761u + 1;
  switch (Info.Format) {
  case ObjectFormat::Pointers:
    assert(IndexableSize == 0 && "fixed-slot class takes no indexable size");
    Header.SlotCount = Info.FixedSlots;
    break;
  case ObjectFormat::IndexablePointers:
  case ObjectFormat::IndexableBytes:
    Header.SlotCount = IndexableSize;
    break;
  case ObjectFormat::Float64:
    Header.SlotCount = 1;
    break;
  }

  std::size_t Bytes = sizeof(ObjectHeader) + bodyBytes(Header);
  if (NextFree + Bytes > Capacity)
    return InvalidOop;

  Oop Object = HeapBase + NextFree;
  std::memcpy(&Heap[NextFree], &Header, sizeof(Header));
  std::uint8_t *Body = &Heap[NextFree + sizeof(Header)];
  // Pointer slots start as nil; byte bodies start zeroed. During bootstrap
  // NilOop is still InvalidOop, which is fine for the three singletons
  // because they have no slots.
  if (Info.Format == ObjectFormat::Pointers ||
      Info.Format == ObjectFormat::IndexablePointers) {
    for (std::uint32_t I = 0; I < Header.SlotCount; ++I)
      std::memcpy(Body + I * 8, &NilOop, 8);
  } else {
    std::memset(Body, 0, bodyBytes(Header));
  }
  NextFree += Bytes;
  return Object;
}

Oop ObjectMemory::allocateFloat(double Value) {
  Oop Object = allocateInstance(BoxedFloatClass);
  if (Object == InvalidOop)
    return InvalidOop;
  std::memcpy(bodyOf(Object), &Value, 8);
  return Object;
}

Oop ObjectMemory::allocateString(const std::string &Text) {
  Oop Object = allocateInstance(ByteStringClass,
                                static_cast<std::uint32_t>(Text.size()));
  if (Object == InvalidOop)
    return InvalidOop;
  std::memcpy(bodyOf(Object), Text.data(), Text.size());
  return Object;
}

bool ObjectMemory::isHeapObject(Oop Object) const {
  if (!isPointerOop(Object))
    return false;
  if (Object < HeapBase + 16 || Object >= HeapBase + NextFree)
    return false;
  return (Object & 7) == 0;
}

const ObjectHeader *ObjectMemory::headerOf(Oop Object) const {
  assert(isHeapObject(Object) && "not a heap object");
  return reinterpret_cast<const ObjectHeader *>(&Heap[Object - HeapBase]);
}

ObjectHeader *ObjectMemory::headerOf(Oop Object) {
  assert(isHeapObject(Object) && "not a heap object");
  return reinterpret_cast<ObjectHeader *>(&Heap[Object - HeapBase]);
}

std::uint8_t *ObjectMemory::bodyOf(Oop Object) {
  return &Heap[Object - HeapBase + sizeof(ObjectHeader)];
}

const std::uint8_t *ObjectMemory::bodyOf(Oop Object) const {
  return &Heap[Object - HeapBase + sizeof(ObjectHeader)];
}

std::uint32_t ObjectMemory::classIndexOf(Oop Object) const {
  if (isSmallIntOop(Object))
    return SmallIntegerClass;
  if (!isHeapObject(Object))
    return InvalidClassIndex;
  return headerOf(Object)->ClassIndex;
}

ObjectFormat ObjectMemory::formatOf(Oop Object) const {
  assert(isHeapObject(Object) && "format of a non-heap value");
  return static_cast<ObjectFormat>(headerOf(Object)->Format);
}

std::uint32_t ObjectMemory::slotCountOf(Oop Object) const {
  if (!isHeapObject(Object))
    return 0;
  return headerOf(Object)->SlotCount;
}

std::uint32_t ObjectMemory::identityHashOf(Oop Object) const {
  if (isSmallIntOop(Object))
    return static_cast<std::uint32_t>(smallIntValue(Object));
  if (!isHeapObject(Object))
    return 0;
  return headerOf(Object)->IdentityHash;
}

std::optional<Oop> ObjectMemory::fetchPointerSlot(Oop Object,
                                                  std::uint32_t Index) const {
  if (!isHeapObject(Object))
    return std::nullopt;
  const ObjectHeader *Header = headerOf(Object);
  auto Format = static_cast<ObjectFormat>(Header->Format);
  if (Format != ObjectFormat::Pointers &&
      Format != ObjectFormat::IndexablePointers)
    return std::nullopt;
  if (Index >= Header->SlotCount)
    return std::nullopt;
  Oop Value;
  std::memcpy(&Value, bodyOf(Object) + std::size_t(Index) * 8, 8);
  return Value;
}

bool ObjectMemory::storePointerSlot(Oop Object, std::uint32_t Index,
                                    Oop Value) {
  if (!isHeapObject(Object))
    return false;
  ObjectHeader *Header = headerOf(Object);
  auto Format = static_cast<ObjectFormat>(Header->Format);
  if (Format != ObjectFormat::Pointers &&
      Format != ObjectFormat::IndexablePointers)
    return false;
  if (Index >= Header->SlotCount)
    return false;
  std::size_t Off =
      Object - HeapBase + sizeof(ObjectHeader) + std::size_t(Index) * 8;
  if (IGDT_UNLIKELY(Off < JournalLimit))
    journal64(Off);
  std::memcpy(&Heap[Off], &Value, 8);
  return true;
}

std::optional<std::uint8_t> ObjectMemory::fetchByte(Oop Object,
                                                    std::uint32_t Index) const {
  if (!isHeapObject(Object))
    return std::nullopt;
  const ObjectHeader *Header = headerOf(Object);
  if (static_cast<ObjectFormat>(Header->Format) != ObjectFormat::IndexableBytes)
    return std::nullopt;
  if (Index >= Header->SlotCount)
    return std::nullopt;
  return bodyOf(Object)[Index];
}

bool ObjectMemory::storeByte(Oop Object, std::uint32_t Index,
                             std::uint8_t Value) {
  if (!isHeapObject(Object))
    return false;
  ObjectHeader *Header = headerOf(Object);
  if (static_cast<ObjectFormat>(Header->Format) != ObjectFormat::IndexableBytes)
    return false;
  if (Index >= Header->SlotCount)
    return false;
  std::size_t Off = Object - HeapBase + sizeof(ObjectHeader) + Index;
  if (IGDT_UNLIKELY(Off < JournalLimit))
    journal8(Off);
  Heap[Off] = Value;
  return true;
}

std::optional<double> ObjectMemory::floatValueOf(Oop Object) const {
  if (!isBoxedFloat(Object))
    return std::nullopt;
  double Value;
  std::memcpy(&Value, bodyOf(Object), 8);
  return Value;
}

std::optional<double> ObjectMemory::unsafeFloatValueAt(Oop Object) const {
  // No class check: reads 8 bytes from the body address if it is mapped.
  auto Raw = load64(bodyAddress(Object));
  if (!Raw)
    return std::nullopt;
  double Value;
  std::memcpy(&Value, &*Raw, 8);
  return Value;
}

bool ObjectMemory::containsAddress(std::uint64_t Address,
                                   std::uint32_t Size) const {
  return Address >= HeapBase && Address + Size <= HeapBase + NextFree &&
         Address + Size >= Address;
}

std::optional<std::uint64_t> ObjectMemory::load64(std::uint64_t Address) const {
  if ((Address & 7) != 0 || !containsAddress(Address, 8))
    return std::nullopt;
  std::uint64_t Value;
  std::memcpy(&Value, &Heap[Address - HeapBase], 8);
  return Value;
}

bool ObjectMemory::store64(std::uint64_t Address, std::uint64_t Value) {
  if ((Address & 7) != 0 || !containsAddress(Address, 8))
    return false;
  std::size_t Off = static_cast<std::size_t>(Address - HeapBase);
  if (IGDT_UNLIKELY(Off < JournalLimit))
    journal64(Off);
  std::memcpy(&Heap[Off], &Value, 8);
  return true;
}

std::optional<std::uint8_t> ObjectMemory::load8(std::uint64_t Address) const {
  if (!containsAddress(Address, 1))
    return std::nullopt;
  return Heap[Address - HeapBase];
}

bool ObjectMemory::store8(std::uint64_t Address, std::uint8_t Value) {
  if (!containsAddress(Address, 1))
    return false;
  std::size_t Off = static_cast<std::size_t>(Address - HeapBase);
  if (IGDT_UNLIKELY(Off < JournalLimit))
    journal8(Off);
  Heap[Off] = Value;
  return true;
}

void ObjectMemory::journal64(std::size_t Offset) {
  std::uint64_t Old;
  std::memcpy(&Old, &Heap[Offset], 8);
  Journal.push_back({Offset, Old, 8});
}

void ObjectMemory::journal8(std::size_t Offset) {
  Journal.push_back({Offset, Heap[Offset], 1});
}

HeapMark ObjectMemory::mark() {
  HeapMark M;
  M.NextFree = NextFree;
  M.NextHash = NextHash;
  M.ClassCount = Classes.size();
  M.JournalDepth = Journal.size();
  JournalLimit = NextFree;
  return M;
}

void ObjectMemory::resetTo(const HeapMark &M) {
  // Undo in reverse so the oldest journalled value of a repeatedly
  // clobbered byte wins.
  for (std::size_t I = Journal.size(); I > M.JournalDepth; --I) {
    const UndoEntry &U = Journal[I - 1];
    if (U.Width == 8)
      std::memcpy(&Heap[U.Offset], &U.OldValue, 8);
    else
      Heap[U.Offset] = static_cast<std::uint8_t>(U.OldValue);
    ++UndoReplayed;
  }
  Journal.resize(M.JournalDepth);
  // Objects above the mark are released without zeroing: allocation
  // re-initialises header and body, and nothing can observe bytes above
  // NextFree (containsAddress bounds every raw access against it).
  NextFree = M.NextFree;
  // The hash sequence is part of observable state — identity hashes sit
  // in headers that raw loads can read — so it rewinds too.
  NextHash = M.NextHash;
  Classes.truncate(M.ClassCount);
  Poisoned = false;
  PoisonNote.clear();
  JournalLimit = M.NextFree;
}

std::uint64_t ObjectMemory::contentHash() const {
  std::uint64_t H = 1469598103934665603ull; // FNV-1a 64
  auto Fold = [&H](std::uint8_t B) {
    H ^= B;
    H *= 1099511628211ull;
  };
  for (std::size_t I = 0; I < NextFree; ++I)
    Fold(Heap[I]);
  // The cursors are observable too: NextFree bounds raw loads and
  // NextHash shows up in the next allocation's header.
  for (unsigned I = 0; I < 8; ++I)
    Fold(static_cast<std::uint8_t>(std::uint64_t(NextFree) >> (8 * I)));
  for (unsigned I = 0; I < 4; ++I)
    Fold(static_cast<std::uint8_t>(NextHash >> (8 * I)));
  return H;
}

std::string ObjectMemory::describe(Oop Value) const {
  if (Value == InvalidOop)
    return "<invalid>";
  if (isSmallIntOop(Value))
    return formatString("%lld", (long long)smallIntValue(Value));
  if (Value == NilOop)
    return "nil";
  if (Value == TrueOop)
    return "true";
  if (Value == FalseOop)
    return "false";
  if (!isHeapObject(Value))
    return formatString("<bad-oop %llx>", (unsigned long long)Value);
  std::uint32_t ClassIndex = classIndexOf(Value);
  if (ClassIndex == BoxedFloatClass) {
    std::string Text = formatString("%g", *floatValueOf(Value));
    // Keep boxed floats visually distinct from immediates.
    if (Text.find('.') == std::string::npos &&
        Text.find('e') == std::string::npos &&
        Text.find("nan") == std::string::npos &&
        Text.find("inf") == std::string::npos)
      Text += ".0";
    return Text;
  }
  return formatString("a(n) %s(size %u)@%llx",
                      Classes.classAt(ClassIndex).Name.c_str(),
                      slotCountOf(Value), (unsigned long long)Value);
}
