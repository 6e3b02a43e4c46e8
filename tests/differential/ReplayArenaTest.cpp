//===- tests/differential/ReplayArenaTest.cpp ----------------------------------===//
//
// Pooled replay state: a heap rolled back through mark/resetTo is
// observably identical to a freshly constructed one, the pooled stack
// re-zeroes only dirtied bytes, arena-backed differential replays agree
// with fresh-heap replays verdict for verdict, and campaign records are
// byte-identical with every engine/arena layer toggled, at any job
// count, under all four armed harness faults.
//
//===----------------------------------------------------------------------===//

#include "differential/ReplayArena.h"

#include "differential/DifferentialTester.h"
#include "evalkit/CampaignRunner.h"
#include "faults/DefectCatalog.h"
#include "support/CpuFeatures.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace igdt;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "igdt_replay_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

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
// Arena-backed replay vs fresh-heap replay
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
    DifferentialTester Fresh(WithFresh);

    for (std::size_t I = 0; I < R.Paths.size(); ++I) {
      PathTestOutcome A = Pooled.testPath(R, I);
      PathTestOutcome B = Fresh.testPath(R, I);
      expectOutcomesIdentical(A, B, std::string(C.Name) + " path " +
                                        std::to_string(I));
    }
  }

  // The A/B is not vacuous: the pooled side really rolled back state
  // and the fresh side really rebuilt heaps.
  EXPECT_GT(ArenaStats.HeapAcquires, 1u);
  EXPECT_GT(ArenaStats.HeapResets, 0u);
  EXPECT_EQ(ArenaStats.HeapFreshBuilds, 0u);
  EXPECT_GT(FreshStats.HeapFreshBuilds, 0u);
  EXPECT_EQ(FreshStats.HeapResets, 0u);
  EXPECT_EQ(FreshStats.HeapBytesRebuilt,
            FreshStats.HeapFreshBuilds * ReplayArena::HeapBytes);
}

//===--------------------------------------------------------------------===//
// Campaign-level byte-identity
//===--------------------------------------------------------------------===//

TEST(ReplayArenaTest, CampaignRecordsAreByteIdenticalAcrossToggles) {
  // The tentpole contract: pre-decoded dispatch and pooled arenas are
  // pure accelerators. Records, incident rows, quarantine decisions and
  // the deterministic trace stream must be byte-identical with each
  // layer on or off, serial or parallel, with all four harness faults
  // armed (containment and retry must not observe the pools either).
  CampaignOptions Base;
  Base.Harness.VM = cleanVMConfig();
  Base.Harness.Cogit = cleanCogitOptions();
  Base.Harness.SeedSimulationErrors = false;
  // Timings vary run to run; everything else in a record must not.
  Base.RecordTimings = false;
  Base.OnlyInstructions = {"bytecodePrim_add", "bytecodePrim_sub",
                           "bytecodePrim_mul", "primitiveAdd",
                           "primitiveFloatAdd"};
  Base.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_sub", false},
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_mul", false},
      {HarnessFaultKind::SimFuelExhaustion, "primitiveAdd", false},
  };

  struct Variant {
    const char *Name;
    bool Predecode;
    bool Arena;
    unsigned Jobs;
  };
  const Variant Variants[] = {
      {"off_j1", false, false, 1}, {"arena_j1", false, true, 1},
      {"pre_j1", true, false, 1},  {"on_j1", true, true, 1},
      {"on_j4", true, true, 4},    {"off_j4", false, false, 4},
  };

  std::vector<CampaignSummary> Summaries;
  std::vector<std::string> Traces;
  for (const Variant &V : Variants) {
    CampaignOptions Opts = Base;
    Opts.Harness.Sim.Engine =
        V.Predecode ? SimEngine::Threaded : SimEngine::Switch;
    Opts.Harness.EnableReplayArena = V.Arena;
    Opts.Jobs = V.Jobs;
    Opts.TracePath = tempPath(std::string(V.Name) + ".jsonl");
    Summaries.push_back(CampaignRunner(Opts).run());
    Traces.push_back(slurp(Opts.TracePath));
    ASSERT_FALSE(Traces.back().empty()) << V.Name;
  }

  const CampaignSummary &Ref = Summaries.front();
  for (std::size_t S = 1; S < Summaries.size(); ++S) {
    const CampaignSummary &Cur = Summaries[S];
    const char *Name = Variants[S].Name;
    // Checkpoint rows serialise everything deterministic about a
    // record, so string equality is the byte-identity claim.
    ASSERT_EQ(Cur.Records.size(), Ref.Records.size()) << Name;
    for (std::size_t I = 0; I < Ref.Records.size(); ++I)
      EXPECT_EQ(Cur.Records[I].toJson(), Ref.Records[I].toJson())
          << Name << " record " << I;
    ASSERT_EQ(Cur.Rows.size(), Ref.Rows.size()) << Name;
    for (std::size_t I = 0; I < Ref.Rows.size(); ++I) {
      EXPECT_EQ(Cur.Rows[I].DifferingPaths, Ref.Rows[I].DifferingPaths)
          << Name;
      EXPECT_EQ(Cur.Rows[I].Causes, Ref.Rows[I].Causes) << Name;
    }
    EXPECT_EQ(Cur.Quarantined, Ref.Quarantined) << Name;
    EXPECT_EQ(Cur.exitCode(), Ref.exitCode()) << Name;
    EXPECT_EQ(Traces[S], Traces[0]) << Name << ": deterministic trace "
                                               "files must be byte-identical";
  }

  // The A/B is not vacuous: each layer demonstrably engaged when on and
  // stayed out when off.
  const CampaignSummary &AllOn = Summaries[3];
  const CampaignSummary &AllOff = Summaries[0];
  if (simThreadedDispatchSupported()) {
    EXPECT_GT(AllOn.Sim.PredecodedRuns, 0u);
    EXPECT_EQ(AllOn.Sim.ReferenceRuns, 0u);
  }
  EXPECT_EQ(AllOff.Sim.PredecodedRuns, 0u);
  EXPECT_GT(AllOff.Sim.ReferenceRuns, 0u);
  EXPECT_GT(AllOn.Replay.HeapResets, 0u);
  EXPECT_EQ(AllOn.Replay.HeapFreshBuilds, 0u);
  EXPECT_GT(AllOff.Replay.HeapFreshBuilds, 0u);
  EXPECT_EQ(AllOff.Replay.HeapResets, 0u);
}

} // namespace
