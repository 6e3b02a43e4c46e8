//===- tests/differential/ReplayArenaTest.cpp ----------------------------------===//
//
// Pooled replay state: a heap rolled back through mark/resetTo is
// observably identical to a freshly constructed one, the pooled stack
// re-zeroes only dirtied bytes, and replays on one reused arena agree
// with replays on a new arena per path verdict for verdict. Campaign
// byte-identity across engines and job counts, with all four harness
// faults armed, is EngineIdentityCampaignTest's.
//
//===----------------------------------------------------------------------===//

#include "differential/ReplayArena.h"

#include "differential/DifferentialTester.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

//===--------------------------------------------------------------------===//
// The reset contract
//===--------------------------------------------------------------------===//

TEST(ReplayArenaTest, PooledHeapResetIsObservablyFresh) {
  ObjectMemory Pooled(ReplayArena::HeapBytes);
  ObjectMemory Fresh(ReplayArena::HeapBytes);
  HeapMark Baseline = Pooled.mark();
  std::size_t PristineUsed = Pooled.usedBytes();

  // Dirty the heap every way a replay can: allocations above the mark,
  // raw stores below it (defective compiled code can overwrite
  // singleton headers), synthetic classes, and harness poison.
  ASSERT_NE(Pooled.allocateInstance(ArrayClass, 4), InvalidOop);
  ASSERT_NE(Pooled.allocateFloat(1.5), InvalidOop);
  ASSERT_NE(Pooled.allocateString("dirty"), InvalidOop);
  std::uint64_t NilAddr = Pooled.nilObject();
  std::optional<std::uint64_t> NilWord = Pooled.load64(NilAddr);
  ASSERT_TRUE(NilWord.has_value());
  ASSERT_TRUE(Pooled.store64(NilAddr, 0xDEADBEEFull));
  ASSERT_TRUE(Pooled.store8(NilAddr + 13, 0x5A));
  Pooled.classTable().addClass("ReplaySynthetic", ObjectFormat::Pointers, 2);
  Pooled.poison("injected");
  EXPECT_ANY_THROW(Pooled.checkIntegrity());

  Pooled.resetTo(Baseline);

  // Allocation state, below-mark bytes, class table and integrity all
  // match a never-touched heap.
  EXPECT_EQ(Pooled.usedBytes(), PristineUsed);
  EXPECT_EQ(Pooled.usedBytes(), Fresh.usedBytes());
  EXPECT_EQ(Pooled.classTable().size(), Fresh.classTable().size());
  EXPECT_EQ(Pooled.load64(NilAddr), NilWord);
  EXPECT_EQ(Pooled.load64(NilAddr), Fresh.load64(Fresh.nilObject()));
  EXPECT_NO_THROW(Pooled.checkIntegrity());
  EXPECT_GT(Pooled.undoStoresReplayed(), 0u);

  // The next allocation sequence is indistinguishable from a fresh
  // heap's: same addresses, same identity hashes (hashes are observable
  // through raw header loads, so the sequence must rewind too).
  Oop P = Pooled.allocateInstance(ArrayClass, 4);
  Oop F = Fresh.allocateInstance(ArrayClass, 4);
  EXPECT_EQ(P, F);
  EXPECT_EQ(Pooled.identityHashOf(P), Fresh.identityHashOf(F));
  Oop P2 = Pooled.allocateFloat(2.5);
  Oop F2 = Fresh.allocateFloat(2.5);
  EXPECT_EQ(P2, F2);
  EXPECT_EQ(Pooled.identityHashOf(P2), Fresh.identityHashOf(F2));
}

TEST(ReplayArenaTest, AcquireHeapResetsOnlyDirtyHandouts) {
  ReplayArena Arena;
  ReplayStats Stats;

  // The first handout is already pristine: charged as an acquire, not
  // as a reset.
  ObjectMemory &M1 = Arena.acquireHeap(&Stats);
  EXPECT_EQ(Stats.HeapAcquires, 1u);
  EXPECT_EQ(Stats.HeapResets, 0u);
  std::size_t Pristine = M1.usedBytes();
  Oop Obj = M1.allocateInstance(ArrayClass, 8);
  ASSERT_NE(Obj, InvalidOop);
  ASSERT_TRUE(M1.store64(ObjectMemory::bodyAddress(Obj), 42));

  ObjectMemory &M2 = Arena.acquireHeap(&Stats);
  EXPECT_EQ(&M1, &M2) << "one pooled heap, handed out repeatedly";
  EXPECT_EQ(Stats.HeapAcquires, 2u);
  EXPECT_EQ(Stats.HeapResets, 1u);
  EXPECT_GT(Stats.HeapBytesReset, 0u);
  EXPECT_EQ(M2.usedBytes(), Pristine);
  EXPECT_EQ(M2.capacityBytes(), ReplayArena::HeapBytes);
}

TEST(ReplayArenaTest, StackPoolReZeroesOnlyDirtyBytes) {
  SimStackPool Pool;
  std::uint8_t *Buf = Pool.acquire();
  EXPECT_EQ(Pool.bytesReset(), 0u) << "a pristine pool has nothing to clear";

  Buf[100] = 0xAB;
  Pool.noteTouched(101);
  Buf = Pool.acquire();
  EXPECT_EQ(Buf[100], 0u);
  EXPECT_EQ(Pool.bytesReset(), 101u) << "cost tracks the dirty watermark";

  // A borrower that touches nothing costs the next one nothing.
  Buf = Pool.acquire();
  EXPECT_EQ(Pool.bytesReset(), 101u);
}

//===--------------------------------------------------------------------===//
// Reused-arena replay vs new-arena replay
//===--------------------------------------------------------------------===//

void expectOutcomesIdentical(const PathTestOutcome &A,
                             const PathTestOutcome &B,
                             const std::string &Context) {
  EXPECT_EQ(A.Status, B.Status) << Context;
  EXPECT_EQ(A.Family, B.Family) << Context;
  EXPECT_EQ(A.CauseKey, B.CauseKey) << Context;
  // Details embed concrete heap addresses and register values, so this
  // is the strong claim: the pooled heap allocates at the same
  // addresses a fresh heap would.
  EXPECT_EQ(A.Details, B.Details) << Context;
  EXPECT_EQ(A.InterpreterExit, B.InterpreterExit) << Context;
  EXPECT_EQ(A.MachineExit, B.MachineExit) << Context;
}

TEST(ReplayArenaTest, ArenaBackedReplayMatchesFreshHeapReplay) {
  // One arena serves every path of every instruction, the way a
  // campaign worker reuses its slot arena — including instructions that
  // segfault (primitiveFloatAdd) and ones that materialise synthetic
  // classes and heap objects (primitiveAt, primitiveShallowCopy).
  struct Case {
    const char *Name;
    CompilerKind Kind;
  };
  const Case Cases[] = {
      {"bytecodePrim_add", CompilerKind::StackToRegister},
      {"bytecodePrim_bitAnd", CompilerKind::StackToRegister},
      {"primitiveFloatAdd", CompilerKind::NativeMethod},
      {"primitiveAt", CompilerKind::NativeMethod},
      {"primitiveShallowCopy", CompilerKind::NativeMethod},
  };

  VMConfig VM;
  ReplayArena Arena;
  ReplayStats ArenaStats;
  ReplayStats FreshStats;

  for (const Case &C : Cases) {
    const InstructionSpec *Spec = findInstruction(C.Name);
    ASSERT_NE(Spec, nullptr) << C.Name;
    ExplorationResult R = ConcolicExplorer(VM).explore(*Spec);
    ASSERT_GT(R.Paths.size(), 0u) << C.Name;

    DiffTestConfig WithArena;
    WithArena.Kind = C.Kind;
    WithArena.Arena = &Arena;
    WithArena.Replay = &ArenaStats;
    DifferentialTester Pooled(WithArena);

    DiffTestConfig WithFresh;
    WithFresh.Kind = C.Kind;
    WithFresh.Replay = &FreshStats;

    for (std::size_t I = 0; I < R.Paths.size(); ++I) {
      PathTestOutcome A = Pooled.testPath(R, I);
      // A tester built without an arena owns a new one: this path is the
      // first its heap and stack ever see.
      PathTestOutcome B = DifferentialTester(WithFresh).testPath(R, I);
      expectOutcomesIdentical(A, B, std::string(C.Name) + " path " +
                                        std::to_string(I));
    }
  }

  // The A/B is not vacuous: the pooled side really rolled back state
  // and the fresh side never did.
  EXPECT_GT(ArenaStats.HeapAcquires, 1u);
  EXPECT_GT(ArenaStats.HeapResets, 0u);
  EXPECT_EQ(FreshStats.HeapAcquires, ArenaStats.HeapAcquires);
  EXPECT_EQ(FreshStats.HeapResets, 0u);
}

TEST(ReplayArenaTest, TesterWithoutAnArenaReusesItsOwn) {
  // There is no fresh-heap replay mode: a tester configured without an
  // arena builds one and rolls it back between paths, exactly like a
  // campaign worker's slot arena.
  const InstructionSpec *Spec = findInstruction("bytecodePrim_add");
  ASSERT_NE(Spec, nullptr);
  VMConfig VM;
  ExplorationResult R = ConcolicExplorer(VM).explore(*Spec);
  ASSERT_GT(R.Paths.size(), 1u);

  ReplayStats Stats;
  DiffTestConfig Config;
  Config.Kind = CompilerKind::StackToRegister;
  Config.Replay = &Stats;
  DifferentialTester Tester(Config);
  for (std::size_t I = 0; I < R.Paths.size(); ++I)
    Tester.testPath(R, I);

  EXPECT_GT(Stats.HeapAcquires, 1u);
  EXPECT_GT(Stats.HeapResets, 0u) << "later paths reuse the first heap";
  EXPECT_LT(Stats.HeapResets, Stats.HeapAcquires)
      << "the first acquire has nothing to roll back";
}

} // namespace
