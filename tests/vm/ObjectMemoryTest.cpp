//===- tests/vm/ObjectMemoryTest.cpp ----------------------------------------===//

#include "vm/ObjectMemory.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

class ObjectMemoryTest : public ::testing::Test {
protected:
  ObjectMemory Mem{256 * 1024};
};

TEST_F(ObjectMemoryTest, SmallIntTagging) {
  Oop V = smallIntOop(42);
  EXPECT_TRUE(isSmallIntOop(V));
  EXPECT_EQ(smallIntValue(V), 42);
  EXPECT_EQ(smallIntValue(smallIntOop(-42)), -42);
  EXPECT_EQ(smallIntValue(smallIntOop(MaxSmallInt)), MaxSmallInt);
  EXPECT_EQ(smallIntValue(smallIntOop(MinSmallInt)), MinSmallInt);
}

TEST_F(ObjectMemoryTest, SmallIntRange) {
  EXPECT_TRUE(fitsSmallInt(0));
  EXPECT_TRUE(fitsSmallInt(MaxSmallInt));
  EXPECT_FALSE(fitsSmallInt(MaxSmallInt + 1));
  EXPECT_TRUE(fitsSmallInt(MinSmallInt));
  EXPECT_FALSE(fitsSmallInt(MinSmallInt - 1));
}

TEST_F(ObjectMemoryTest, WellKnownObjectsExist) {
  EXPECT_TRUE(Mem.isHeapObject(Mem.nilObject()));
  EXPECT_TRUE(Mem.isHeapObject(Mem.trueObject()));
  EXPECT_TRUE(Mem.isHeapObject(Mem.falseObject()));
  EXPECT_EQ(Mem.classIndexOf(Mem.nilObject()), UndefinedObjectClass);
  EXPECT_EQ(Mem.classIndexOf(Mem.trueObject()), TrueClass);
  EXPECT_EQ(Mem.classIndexOf(Mem.falseObject()), FalseClass);
  EXPECT_EQ(Mem.booleanObject(true), Mem.trueObject());
  EXPECT_EQ(Mem.booleanObject(false), Mem.falseObject());
}

TEST_F(ObjectMemoryTest, ClassIndexOfImmediates) {
  EXPECT_EQ(Mem.classIndexOf(smallIntOop(7)), SmallIntegerClass);
}

TEST_F(ObjectMemoryTest, AllocateArray) {
  Oop Arr = Mem.allocateInstance(ArrayClass, 5);
  ASSERT_TRUE(Mem.isHeapObject(Arr));
  EXPECT_EQ(Mem.classIndexOf(Arr), ArrayClass);
  EXPECT_EQ(Mem.slotCountOf(Arr), 5u);
  EXPECT_EQ(Mem.formatOf(Arr), ObjectFormat::IndexablePointers);
  // Slots start as nil.
  for (std::uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(*Mem.fetchPointerSlot(Arr, I), Mem.nilObject());
}

TEST_F(ObjectMemoryTest, SlotAccessBounds) {
  Oop Arr = Mem.allocateInstance(ArrayClass, 2);
  EXPECT_TRUE(Mem.fetchPointerSlot(Arr, 1).has_value());
  EXPECT_FALSE(Mem.fetchPointerSlot(Arr, 2).has_value());
  EXPECT_TRUE(Mem.storePointerSlot(Arr, 0, smallIntOop(9)));
  EXPECT_FALSE(Mem.storePointerSlot(Arr, 2, smallIntOop(9)));
  EXPECT_EQ(*Mem.fetchPointerSlot(Arr, 0), smallIntOop(9));
}

TEST_F(ObjectMemoryTest, SlotAccessOnNonPointerObjectFails) {
  Oop Bytes = Mem.allocateInstance(ByteArrayClass, 4);
  EXPECT_FALSE(Mem.fetchPointerSlot(Bytes, 0).has_value());
  EXPECT_FALSE(Mem.fetchPointerSlot(smallIntOop(1), 0).has_value());
}

TEST_F(ObjectMemoryTest, ByteAccess) {
  Oop Bytes = Mem.allocateInstance(ByteArrayClass, 3);
  EXPECT_TRUE(Mem.storeByte(Bytes, 2, 0xAB));
  EXPECT_EQ(*Mem.fetchByte(Bytes, 2), 0xAB);
  EXPECT_FALSE(Mem.fetchByte(Bytes, 3).has_value());
  EXPECT_FALSE(Mem.storeByte(Bytes, 3, 0));
  // Byte access on a pointers object fails.
  Oop Arr = Mem.allocateInstance(ArrayClass, 1);
  EXPECT_FALSE(Mem.fetchByte(Arr, 0).has_value());
}

TEST_F(ObjectMemoryTest, BoxedFloats) {
  Oop F = Mem.allocateFloat(3.25);
  ASSERT_TRUE(Mem.isBoxedFloat(F));
  EXPECT_EQ(*Mem.floatValueOf(F), 3.25);
  EXPECT_FALSE(Mem.floatValueOf(smallIntOop(1)).has_value());
  EXPECT_FALSE(Mem.floatValueOf(Mem.nilObject()).has_value());
}

TEST_F(ObjectMemoryTest, UnsafeFloatReadProducesGarbageNotCrash) {
  Oop Arr = Mem.allocateInstance(ArrayClass, 1);
  // Reading the body of a non-float object as a double succeeds (returns
  // whatever bits are there) — this models the missing-type-check bug.
  EXPECT_TRUE(Mem.unsafeFloatValueAt(Arr).has_value());
  // Reading from a tagged smallint faults (unaligned address).
  EXPECT_FALSE(Mem.unsafeFloatValueAt(smallIntOop(100)).has_value());
}

TEST_F(ObjectMemoryTest, Strings) {
  Oop S = Mem.allocateString("hi!");
  EXPECT_EQ(Mem.classIndexOf(S), ByteStringClass);
  EXPECT_EQ(Mem.slotCountOf(S), 3u);
  EXPECT_EQ(*Mem.fetchByte(S, 0), 'h');
  EXPECT_EQ(*Mem.fetchByte(S, 2), '!');
}

TEST_F(ObjectMemoryTest, FixedSlotClass) {
  Oop P = Mem.allocateInstance(PointClass);
  EXPECT_EQ(Mem.slotCountOf(P), 2u);
  EXPECT_EQ(Mem.formatOf(P), ObjectFormat::Pointers);
}

TEST_F(ObjectMemoryTest, IdentityHashesAreStableAndMostlyDistinct) {
  Oop A = Mem.allocateInstance(ArrayClass, 1);
  Oop B = Mem.allocateInstance(ArrayClass, 1);
  EXPECT_EQ(Mem.identityHashOf(A), Mem.identityHashOf(A));
  EXPECT_NE(Mem.identityHashOf(A), Mem.identityHashOf(B));
}

TEST_F(ObjectMemoryTest, HeapExhaustionReturnsInvalid) {
  ObjectMemory Tiny(1024);
  Oop Last = InvalidOop;
  for (int I = 0; I < 100; ++I)
    Last = Tiny.allocateInstance(ArrayClass, 16);
  EXPECT_EQ(Last, InvalidOop);
}

TEST_F(ObjectMemoryTest, AllocationSucceedsExactlyUpToCapacity) {
  ObjectMemory Small(4096);
  std::size_t Free = Small.capacityBytes() - Small.usedBytes();
  ASSERT_EQ(Free % 8, 0u);
  // A byte body one byte longer than the free space holds (after its
  // 16-byte header) is refused and leaves the heap as it was.
  EXPECT_EQ(Small.allocateInstance(ByteArrayClass,
                                   std::uint32_t(Free - 16 + 1)),
            InvalidOop);
  EXPECT_EQ(Small.usedBytes(), Small.capacityBytes() - Free);
  // One that fills the heap to the last byte is granted.
  Oop Last = Small.allocateInstance(ByteArrayClass, std::uint32_t(Free - 16));
  ASSERT_NE(Last, InvalidOop);
  EXPECT_EQ(Small.usedBytes(), Small.capacityBytes());
  std::uint64_t End = ObjectMemory::HeapBase + Small.capacityBytes();
  EXPECT_EQ(Small.load8(End - 1), std::optional<std::uint8_t>(0));
  EXPECT_FALSE(Small.load8(End).has_value());
  EXPECT_EQ(Small.allocateInstance(ByteArrayClass, 0), InvalidOop);
}

TEST_F(ObjectMemoryTest, EveryByteBelowTheCursorWasWrittenByAllocation) {
  // Fresh heaps are not zero-filled, so every byte raw loads can reach
  // must have been written: the reserved first 16 bytes and the padding
  // of a byte body read as zero, not as whatever the buffer held.
  EXPECT_EQ(Mem.load64(ObjectMemory::HeapBase), std::optional<std::uint64_t>(0));
  EXPECT_EQ(Mem.load64(ObjectMemory::HeapBase + 8),
            std::optional<std::uint64_t>(0));
  Oop Bytes = Mem.allocateInstance(ByteArrayClass, 3);
  ASSERT_NE(Bytes, InvalidOop);
  EXPECT_EQ(Mem.load64(ObjectMemory::bodyAddress(Bytes)),
            std::optional<std::uint64_t>(0));
  // Two heaps of different capacity that made the same allocations hold
  // the same bytes.
  ObjectMemory Other(64 * 1024);
  ASSERT_NE(Other.allocateInstance(ByteArrayClass, 3), InvalidOop);
  EXPECT_EQ(Mem.contentHash(), Other.contentHash());
}

TEST_F(ObjectMemoryTest, RawLoadStoreRespectBounds) {
  Oop Arr = Mem.allocateInstance(ArrayClass, 2);
  std::uint64_t Body = ObjectMemory::bodyAddress(Arr);
  ASSERT_TRUE(Mem.load64(Body).has_value());
  EXPECT_TRUE(Mem.store64(Body, 0x1234));
  EXPECT_EQ(*Mem.load64(Body), 0x1234u);
  // Misaligned.
  EXPECT_FALSE(Mem.load64(Body + 1).has_value());
  // Far out of bounds.
  EXPECT_FALSE(Mem.load64(0x10).has_value());
  EXPECT_FALSE(Mem.store64(0x10, 1));
}

TEST_F(ObjectMemoryTest, DescribeValues) {
  EXPECT_EQ(Mem.describe(smallIntOop(-7)), "-7");
  EXPECT_EQ(Mem.describe(Mem.nilObject()), "nil");
  EXPECT_EQ(Mem.describe(Mem.trueObject()), "true");
  EXPECT_EQ(Mem.describe(Mem.allocateFloat(1.5)), "1.5");
  EXPECT_NE(Mem.describe(Mem.allocateInstance(ArrayClass, 3)).find("Array"),
            std::string::npos);
}

} // namespace
