//===- tests/solver/SolverCacheTest.cpp ----------------------------------------===//
//
// The campaign-scope Unsat index: entries are caps-segregated, hits
// really happen across explorations, and — the property everything
// rests on — the index never changes what an exploration or a faulted
// campaign produces, only how fast it produces it.
//
//===----------------------------------------------------------------------===//

#include "solver/SolverCache.h"

#include "concolic/ConcolicExplorer.h"
#include "evalkit/CampaignRunner.h"
#include "faults/DefectCatalog.h"
#include "solver/Solver.h"
#include "solver/Term.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

/// "stack0 is SmallInteger and 9 < value(stack0) and value(stack0) < 7",
/// built from scratch in \p B: one case that survives case expansion and
/// is proven Unsat by interval propagation, so it enters the index.
std::vector<const BoolTerm *> buildUnsatConjuncts(TermBuilder &B) {
  const ObjTerm *V = B.objVar(VarRole::StackSlot, 0);
  return {B.isClass(V, SmallIntegerClass),
          B.icmp(CmpPred::Lt, B.intConst(9), B.valueOf(V)),
          B.icmp(CmpPred::Lt, B.valueOf(V), B.intConst(7))};
}

TEST(SolverCacheTest, StructurallyEqualTermsHashEqualAcrossArenas) {
  // Two independent arenas allocate the "same" terms at different
  // addresses; the case keys built from their structural hashes must
  // agree anyway — this is what lets one exploration's Unsat proofs
  // serve another's lookups.
  ClassTable Classes;
  SharedUnsatIndex Index;
  SolverOptions Opts;
  Opts.Shared = &Index;

  TermBuilder B1;
  ConstraintSolver S1(Classes, Opts);
  ASSERT_EQ(S1.solve(buildUnsatConjuncts(B1)).Status, SolveStatus::Unsat);
  EXPECT_EQ(S1.stats().CacheHits, 0u);
  EXPECT_EQ(S1.stats().CacheMisses, 1u);
  ASSERT_EQ(Index.size(), 1u);

  // The second arena poses the same conjuncts in another order: the key
  // is independent of addresses and of literal order, so it hits and is
  // charged the original proof's cost.
  TermBuilder B2;
  std::vector<const BoolTerm *> Reordered = buildUnsatConjuncts(B2);
  std::swap(Reordered.front(), Reordered.back());
  ConstraintSolver S2(Classes, Opts);
  EXPECT_EQ(S2.solve(Reordered).Status, SolveStatus::Unsat);
  EXPECT_EQ(S2.stats().CacheHits, 1u);
  EXPECT_EQ(S2.stats().CacheMisses, 0u);
  EXPECT_EQ(S2.stats().CasesExplored, S1.stats().CasesExplored);
  EXPECT_EQ(S2.stats().NodesExplored, S1.stats().NodesExplored);

  // And polarity matters: with one bound negated the case keys differ,
  // so the lookup misses and the (now Sat) query is really searched.
  TermBuilder B3;
  std::vector<const BoolTerm *> Negated = buildUnsatConjuncts(B3);
  Negated[2] = B3.notB(Negated[2]);
  ConstraintSolver S3(Classes, Opts);
  EXPECT_EQ(S3.solve(Negated).Status, SolveStatus::Sat);
  EXPECT_EQ(S3.stats().CacheHits, 0u);
  EXPECT_EQ(S3.stats().CacheMisses, 1u);
}

TEST(SolverCacheTest, OnlyProvenUnsatCasesEnterTheIndex) {
  // Sat cases carry an arena-bound model and Unknown ones may be
  // answered by a later ladder rung, so neither may be recorded; only
  // a proof of Unsat is.
  ClassTable Classes;
  TermBuilder B;
  SharedUnsatIndex Index;
  SolverOptions Opts;
  Opts.Shared = &Index;
  const ObjTerm *S0 = B.objVar(VarRole::StackSlot, 0);
  const ObjTerm *S1 = B.objVar(VarRole::StackSlot, 1);

  // With 56-bit integers the overflow boundary is out of reach: Unknown.
  SolverOptions Narrow = Opts;
  Narrow.IntegerBits = 56;
  const IntTerm *Sum =
      B.binInt(IntTerm::Kind::Add, B.valueOf(S1), B.valueOf(S0));
  std::vector<const BoolTerm *> Overflow = {
      B.isClass(S1, SmallIntegerClass),
      B.isClass(S0, SmallIntegerClass),
      B.icmp(CmpPred::Lt, B.intConst(MaxSmallInt), Sum),
  };
  ConstraintSolver NarrowSolver(Classes, Narrow);
  EXPECT_EQ(NarrowSolver.solve(Overflow).Status, SolveStatus::Unknown);
  EXPECT_EQ(Index.size(), 0u);

  ConstraintSolver Solver(Classes, Opts);
  EXPECT_EQ(Solver.solve(Overflow).Status, SolveStatus::Sat);
  EXPECT_EQ(Index.size(), 0u);

  EXPECT_EQ(Solver.solve(buildUnsatConjuncts(B)).Status, SolveStatus::Unsat);
  EXPECT_EQ(Index.size(), 1u);
}

TEST(SolverCacheTest, SharedUnsatIndexIsCapsSegregated) {
  SharedUnsatIndex Index;
  SharedUnsatIndex::QueryKey Key = {1, 2, 3};
  Index.store(/*CapsFingerprint=*/0xAA, Key, {4, 9});

  SharedUnsatIndex::Proof P;
  ASSERT_TRUE(Index.lookup(0xAA, Key, P));
  EXPECT_EQ(P.CasesExplored, 4u);
  EXPECT_EQ(P.NodesExplored, 9u);

  // A ladder rung (different caps fingerprint) must not be served a
  // full-strength proof, nor vice versa.
  EXPECT_FALSE(Index.lookup(0xBB, Key, P));
  EXPECT_FALSE(Index.lookup(0xAA, {1, 2}, P));
  EXPECT_EQ(Index.size(), 1u);
}

/// Everything about a path that the differential harness consumes.
struct PathFingerprint {
  std::size_t Entries;
  ExitKind Exit;
  bool Curated;
  bool operator==(const PathFingerprint &) const = default;
};

std::vector<PathFingerprint> fingerprints(const ExplorationResult &R) {
  std::vector<PathFingerprint> Out;
  for (const PathSolution &P : R.Paths)
    Out.push_back({P.Entries.size(), P.Exit, P.Curated});
  return Out;
}

TEST(SolverCacheTest, CachedAndUncachedExplorationsAreIdentical) {
  const InstructionSpec *Spec = findInstruction("bytecodePrim_add");
  ASSERT_NE(Spec, nullptr);

  // Warm the index first so the cached exploration actually hits it.
  SharedUnsatIndex Index;
  ExplorerOptions Cached;
  Cached.SharedUnsat = &Index;
  ConcolicExplorer(cleanVMConfig(), Cached).explore(*Spec);
  ExplorationResult R1 = ConcolicExplorer(cleanVMConfig(), Cached).explore(*Spec);
  ASSERT_GT(R1.Solver.CacheHits, 0u);

  ExplorerOptions Uncached;
  Uncached.SharedUnsat = nullptr;
  ExplorationResult R2 =
      ConcolicExplorer(cleanVMConfig(), Uncached).explore(*Spec);

  // Identical path sets, statuses and search effort: the index is an
  // accelerator, never an oracle the uncached solver would disagree
  // with, and a hit charges the proof's recorded cost.
  EXPECT_EQ(fingerprints(R1), fingerprints(R2));
  EXPECT_EQ(R1.curatedCount(), R2.curatedCount());
  EXPECT_EQ(R1.Iterations, R2.Iterations);
  EXPECT_EQ(R1.UnknownNegations, R2.UnknownNegations);
  EXPECT_EQ(R1.UnsatNegations, R2.UnsatNegations);
  EXPECT_EQ(R1.Solver.Queries, R2.Solver.Queries);
  EXPECT_EQ(R1.Solver.SatCount, R2.Solver.SatCount);
  EXPECT_EQ(R1.Solver.UnsatCount, R2.Solver.UnsatCount);
  EXPECT_EQ(R1.Solver.UnknownCount, R2.Solver.UnknownCount);
  EXPECT_EQ(R1.Solver.CasesExplored, R2.Solver.CasesExplored);
  EXPECT_EQ(R1.Solver.NodesExplored, R2.Solver.NodesExplored);
  EXPECT_EQ(R2.Solver.CacheHits + R2.Solver.CacheMisses, 0u)
      << "uncached run must not touch the index";
}

TEST(SolverCacheTest, MemoLayersPreserveFaultedCampaignRecords) {
  // Campaign-level byte-identity of the shared index and of the code
  // cache, with all seven harness faults armed: containment,
  // quarantine, retry and verdict filing must not be able to observe
  // either. A campaign always shares its runner's index, so the
  // index-off side runs every instruction on a runner of its own: Unsat
  // cases do not recur within one exploration, so such a runner never
  // hits. The code cache has its own switch, flipped for a whole run.
  CampaignOptions Base;
  Base.Harness.VM = cleanVMConfig();
  Base.Harness.Cogit = cleanCogitOptions();
  Base.Harness.SeedSimulationErrors = false;
  // Timings vary run to run; everything else in a record must not.
  Base.RecordTimings = false;
  Base.WorkerDeadlineMillis = 500;
  Base.WorkerBackoffMillis = 10;
  Base.OnlyInstructions = {
      "bytecodePrim_add",    "bytecodePrim_sub",   "bytecodePrim_mul",
      "bytecodePrim_div",    "primitiveAdd",       "primitiveFloatAdd",
      "bytecodePrim_bitAnd", "bytecodePrim_bitOr", "bytecodePrim_bitXor"};
  Base.Faults.Faults = {
      {HarnessFaultKind::SolverHang, "bytecodePrim_add", false},
      {HarnessFaultKind::FrontEndThrow, "bytecodePrim_sub", false},
      {HarnessFaultKind::HeapCorruption, "bytecodePrim_mul", false},
      {HarnessFaultKind::SimFuelExhaustion, "primitiveAdd", false},
      {HarnessFaultKind::WorkerSegfault, "bytecodePrim_div", false},
      {HarnessFaultKind::WorkerHang, "primitiveFloatAdd", false},
      {HarnessFaultKind::PipeMessageCorruption, "bytecodePrim_bitAnd", false},
  };

  for (unsigned Jobs : {1u, 4u}) {
    CampaignOptions Opts = Base;
    Opts.Jobs = Jobs;
    Opts.Harness.EnableCodeCache = true;
    CampaignSummary Shared = CampaignRunner(Opts).run();
    EXPECT_EQ(Shared.Quarantined.size(), 7u) << "jobs=" << Jobs;
    EXPECT_EQ(Shared.exitCode(), 0) << "jobs=" << Jobs;
    // The A/B is not vacuous: a clean instruction reused a proof that
    // an earlier (later faulted) exploration published.
    EXPECT_GT(Shared.Solver.CacheHits, 0u) << "jobs=" << Jobs;

    // Checkpoint rows serialise everything deterministic about a record
    // (the cache counters are deliberately not checkpointed), so string
    // equality is the byte-identity claim.
    std::uint64_t IsolatedHits = 0;
    for (const InstructionRecord &Rec : Shared.Records) {
      CampaignOptions One = Opts;
      One.OnlyInstructions = {Rec.Instruction};
      CampaignSummary Isolated = CampaignRunner(One).run();
      ASSERT_EQ(Isolated.Records.size(), 1u);
      EXPECT_EQ(Isolated.Records[0].toJson(), Rec.toJson())
          << "jobs=" << Jobs;
      IsolatedHits += Isolated.Solver.CacheHits;
    }
    EXPECT_EQ(IsolatedHits, 0u) << "jobs=" << Jobs;

    CampaignOptions NoCodeCache = Opts;
    NoCodeCache.Harness.EnableCodeCache = false;
    CampaignSummary Off = CampaignRunner(NoCodeCache).run();
    ASSERT_EQ(Shared.Records.size(), Off.Records.size());
    for (std::size_t I = 0; I < Shared.Records.size(); ++I)
      EXPECT_EQ(Shared.Records[I].toJson(), Off.Records[I].toJson())
          << "jobs=" << Jobs;
    ASSERT_EQ(Shared.Rows.size(), Off.Rows.size());
    for (std::size_t I = 0; I < Shared.Rows.size(); ++I) {
      EXPECT_EQ(Shared.Rows[I].DifferingPaths, Off.Rows[I].DifferingPaths);
      EXPECT_EQ(Shared.Rows[I].Causes, Off.Rows[I].Causes);
    }
    EXPECT_EQ(Shared.Quarantined, Off.Quarantined) << "jobs=" << Jobs;
    EXPECT_EQ(Shared.exitCode(), Off.exitCode()) << "jobs=" << Jobs;
    // Not vacuous either: the cached run replayed compiled code.
    EXPECT_GT(Shared.Jit.CodeCacheHits, 0u) << "jobs=" << Jobs;
    EXPECT_EQ(Off.Jit.CodeCacheHits, 0u) << "jobs=" << Jobs;
    EXPECT_LT(Shared.Jit.Compiles, Off.Jit.Compiles) << "jobs=" << Jobs;
  }
}

TEST(SolverCacheTest, SharedIndexHitsAreNonzeroOnAMultiPathInstruction) {
  // bytecodePrim_add explores several paths and proves one negation
  // case Unsat; a second exploration sharing the index answers that
  // case from the proof instead of re-deriving it.
  const InstructionSpec *Spec = findInstruction("bytecodePrim_add");
  ASSERT_NE(Spec, nullptr);

  SharedUnsatIndex Index;
  ExplorerOptions Opts;
  Opts.SharedUnsat = &Index;

  ConcolicExplorer E1(cleanVMConfig(), Opts);
  ExplorationResult R1 = E1.explore(*Spec);
  ASSERT_GT(R1.Paths.size(), 1u) << "need a multi-path instruction";
  ASSERT_GT(Index.size(), 0u) << "exploration must publish Unsat proofs";
  EXPECT_EQ(R1.Solver.CacheHits, 0u) << "nothing to hit on first contact";

  ConcolicExplorer E2(cleanVMConfig(), Opts);
  ExplorationResult R2 = E2.explore(*Spec);
  EXPECT_GT(R2.Solver.CacheHits, 0u);

  // The hit is transparent: paths, statuses, and even the cases/nodes
  // counters (the proof's deterministic cost is charged on a hit) are
  // those of the from-scratch exploration.
  EXPECT_EQ(fingerprints(R1), fingerprints(R2));
  EXPECT_EQ(R1.Solver.Queries, R2.Solver.Queries);
  EXPECT_EQ(R1.Solver.SatCount, R2.Solver.SatCount);
  EXPECT_EQ(R1.Solver.UnsatCount, R2.Solver.UnsatCount);
  EXPECT_EQ(R1.Solver.UnknownCount, R2.Solver.UnknownCount);
  EXPECT_EQ(R1.Solver.CasesExplored, R2.Solver.CasesExplored);
  EXPECT_EQ(R1.Solver.NodesExplored, R2.Solver.NodesExplored);
}

} // namespace
