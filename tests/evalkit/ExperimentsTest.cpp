//===- tests/evalkit/ExperimentsTest.cpp ------------------------------------------===//
//
// The paper's tables and figures: they render from one full-catalog
// campaign, and the paper's shape claims hold on it. The same campaign
// pins the repo's exact full-catalog work counts and shows that the
// replay layers change no record.
//
//===----------------------------------------------------------------------===//

#include "evalkit/Experiments.h"

#include "api/Session.h"
#include "concolic/ConcolicExplorer.h"
#include "concolic/SequenceCatalog.h"
#include "differential/ReplayArena.h"
#include "jit/BytecodeCogit.h"
#include "jit/NativeMethodCogit.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "symbolic/FrameMaterializer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

using namespace igdt;

namespace {

class ExperimentsTest : public ::testing::Test {
protected:
  static const CampaignSummary &sharedSummary() {
    static CampaignSummary Summary = Session().runCampaign();
    return Summary;
  }
  static const std::vector<CompilerEvaluation> &sharedRows() {
    return sharedSummary().Rows;
  }
  static const ExplorationResult &addExploration() {
    static ExplorationResult Add = Session().explore("bytecodePrim_add");
    return Add;
  }
  /// \p Field of every non-quarantined record of \p Kind.
  template <typename T>
  static std::vector<double> samples(InstructionKind Kind,
                                     T InstructionRecord::*Field) {
    std::vector<double> Out;
    for (const InstructionRecord &Rec : sharedSummary().Records)
      if (!Rec.Quarantined && Rec.Kind == Kind)
        Out.push_back(static_cast<double>(Rec.*Field));
    return Out;
  }
};

TEST_F(ExperimentsTest, ExploresTheWholeCatalog) {
  EXPECT_EQ(sharedSummary().Records.size(), allInstructions().size());
  EXPECT_TRUE(sharedSummary().Quarantined.empty());
}

TEST_F(ExperimentsTest, FullCatalogWorkCountsAreExact) {
  // The default campaign is deterministic, so its work counts are exact
  // regression guards: a change here is a real change in exploration
  // or replay work (or an intended catalog or solver change, which
  // re-pins these with perfbench's reference work counts).
  const CampaignSummary &S = sharedSummary();
  std::uint64_t Paths = 0;
  for (const InstructionRecord &R : S.Records)
    Paths += R.Paths;
  EXPECT_EQ(Paths, 710u);
  EXPECT_EQ(S.Sim.Runs, 2022u);
  EXPECT_EQ(S.Solver.Queries, 548u);
  EXPECT_EQ(S.Solver.NodesExplored, 1226u);
  EXPECT_EQ(S.Jit.Compiles, 1406u);
  EXPECT_EQ(S.Jit.CodeCacheHits, 616u);
  // Every compilation unit is pre-decoded once and then shared.
  EXPECT_EQ(S.Sim.PredecodeBuilds, S.Jit.Compiles);
}

/// Address-free digest of \p M: every entry keyed by its terms'
/// structural hashes, floats by their bit patterns, folded in sorted
/// order so the arena layout cannot move it.
std::uint64_t modelDigest(const Model &M) {
  auto Bits = [](double D) {
    std::uint64_t U;
    std::memcpy(&U, &D, sizeof U);
    return U;
  };
  std::vector<std::array<std::uint64_t, 6>> Entries;
  for (const auto &[Var, A] : M.Objects)
    Entries.push_back({1, Var->Hash, A.ClassIndex, std::uint64_t(A.IntValue),
                       Bits(A.FloatValue), std::uint64_t(A.SlotCount)});
  for (const auto &[Var, Rep] : M.Reps)
    Entries.push_back({2, Var->Hash, Rep->Hash, 0, 0, 0});
  for (const auto &[Leaf, V] : M.IntLeaves)
    Entries.push_back({3, Leaf->Hash, std::uint64_t(V), 0, 0, 0});
  for (const auto &[Leaf, V] : M.FloatLeaves)
    Entries.push_back({4, Leaf->Hash, Bits(V), 0, 0, 0});
  std::sort(Entries.begin(), Entries.end());
  std::uint64_t H = Entries.size();
  for (const auto &E : Entries)
    for (std::uint64_t Field : E)
      H = hashCombine64(H, Field);
  return H;
}

TEST_F(ExperimentsTest, FullCatalogModelsAreExact) {
  // The work counts above pin how much the solver did; this pins what it
  // answered. A solver change that keeps every count but hands one path
  // another model moves the digest.
  // Session::explore runs one instruction at a time, as Jobs 1 does.
  Session S;
  std::uint64_t Digest = 0;
  std::size_t Paths = 0;
  for (const InstructionSpec &Spec : allInstructions()) {
    ExplorationResult R = S.explore(Spec);
    Digest = hashCombine64(Digest, stableHash64(Spec.Name));
    for (const PathSolution &P : R.Paths)
      Digest = hashCombine64(Digest, modelDigest(P.InputModel));
    Paths += R.Paths.size();
  }
  EXPECT_EQ(Paths, 710u);
  EXPECT_EQ(Digest, 0xbed3829066d6806cull) << toHex(Digest);
}

/// Folds every field of \p Code into \p H: each MInstr field, the
/// final-stack layout and the statistics the harness reports.
std::uint64_t compiledCodeDigest(std::uint64_t H, const CompiledCode &Code) {
  H = hashCombine64(H, Code.Code.size());
  for (const MInstr &I : Code.Code) {
    H = hashCombine64(H, std::uint64_t(I.Op) | std::uint64_t(I.Cond) << 8 |
                             std::uint64_t(I.A) << 16 |
                             std::uint64_t(I.B) << 24 |
                             std::uint64_t(I.FA) << 32 |
                             std::uint64_t(I.FB) << 40 |
                             std::uint64_t(I.Aux) << 48);
    H = hashCombine64(H, std::uint64_t(I.Imm));
    H = hashCombine64(H, std::uint64_t(std::int64_t(I.Target)));
  }
  H = hashCombine64(H, Code.FinalStack.size());
  for (const ValueLoc &L : Code.FinalStack) {
    H = hashCombine64(H, std::uint64_t(L.K) | std::uint64_t(L.Reg) << 8 |
                             std::uint64_t(L.Index) << 16);
    H = hashCombine64(H, L.Const);
  }
  H = hashCombine64(H, Code.SpillCount);
  H = hashCombine64(H, Code.IRLength);
  H = hashCombine64(H, Code.DynamicStack);
  return hashCombine64(H, Code.NotImplemented);
}

/// Compiles every replayable path of \p R with every compiler that
/// accepts it, on both back-ends, with no code cache, and folds each
/// CompiledCode (or its absence) into \p H.
std::uint64_t explorationCodeDigest(std::uint64_t H, const Session &S,
                                    const ExplorationResult &R,
                                    ReplayArena &Arena, std::size_t &Compiles) {
  static const CompilerKind Kinds[] = {
      CompilerKind::NativeMethod, CompilerKind::SimpleStack,
      CompilerKind::StackToRegister, CompilerKind::RegisterAllocating};
  bool Native = R.Spec && R.Spec->Kind == InstructionKind::NativeMethod;
  for (std::size_t PathIdx = 0; PathIdx < R.Paths.size(); ++PathIdx) {
    const PathSolution &P = R.Paths[PathIdx];
    if (!P.Curated || P.Exit == ExitKind::InvalidFrame ||
        P.Exit == ExitKind::InvalidMemoryAccess)
      continue;
    ObjectMemory &Mem = Arena.acquireHeap(nullptr);
    MaterializedFrame MF =
        FrameMaterializer(Mem, *R.Builder).materialize(P.InputModel, *R.Method);
    for (CompilerKind Kind : Kinds) {
      if (Native != (Kind == CompilerKind::NativeMethod))
        continue;
      for (bool Arm : {false, true}) {
        const MachineDesc &Desc = Arm ? armDesc() : x64Desc();
        CogitOptions Opts = S.diffConfig(Kind, Arm).Cogit;
        H = hashCombine64(H, PathIdx);
        H = hashCombine64(H, std::uint64_t(Kind) << 1 | Arm);
        std::optional<CompiledCode> Code;
        if (Native)
          Code = NativeMethodCogit(Mem, Desc, Opts)
                     .compile(R.Spec->PrimitiveIndex);
        else if (R.IsSequence)
          Code = BytecodeCogit(Kind, Mem, Desc, Opts)
                     .compileMethod(*R.Method, MF.Concrete.Stack);
        else
          Code = BytecodeCogit(Kind, Mem, Desc, Opts)
                     .compile(*R.Method, MF.Concrete.Stack);
        H = hashCombine64(H, Code.has_value());
        if (Code) {
          H = compiledCodeDigest(H, *Code);
          ++Compiles;
        }
      }
    }
  }
  return H;
}

TEST_F(ExperimentsTest, FullCatalogCompiledCodeIsExact) {
  // The work counts pin how often the front ends run; this pins what
  // they emit. Every replayable path of the catalog (and of the sequence
  // catalog, whose whole-method compiles branch forwards and backwards)
  // is compiled by every compiler on both back-ends, and every field of
  // each CompiledCode is folded into one digest. A lowering or
  // allocation change that moves one register, branch target or spill
  // slot moves it.
  Session S;
  ReplayArena Arena;
  std::uint64_t Digest = 0;
  std::size_t Compiles = 0;
  for (const InstructionSpec &Spec : allInstructions()) {
    Digest = hashCombine64(Digest, stableHash64(Spec.Name));
    Digest = explorationCodeDigest(Digest, S, S.explore(Spec), Arena,
                                   Compiles);
  }
  EXPECT_EQ(Compiles, 2022u);
  EXPECT_EQ(Digest, 0xb25a21d1eaadb34cull) << toHex(Digest);

  VMConfig VM;
  ConcolicExplorer Explorer(VM);
  std::uint64_t SeqDigest = 0;
  std::size_t SeqCompiles = 0;
  for (const SequenceSpec &Seq : allSequences()) {
    SeqDigest = hashCombine64(SeqDigest, stableHash64(Seq.Name));
    SeqDigest = explorationCodeDigest(
        SeqDigest, S, Explorer.exploreMethod(Seq.Method, Seq.Name), Arena,
        SeqCompiles);
  }
  EXPECT_EQ(SeqCompiles, 216u);
  EXPECT_EQ(SeqDigest, 0xed5826aa224a8c6full) << toHex(SeqDigest);
}

TEST_F(ExperimentsTest, ReplayLayersLeaveEveryRecordUnchanged) {
  // The pre-decoded engine is an accelerator, never an oracle: on the
  // switch engine every record is the same but for its wall clocks.
  SessionConfig Off;
  Off.sim().Engine = SimEngine::Switch;
  CampaignSummary Plain = Session(Off).runCampaign();
  const CampaignSummary &Layered = sharedSummary();
  EXPECT_EQ(Plain.Sim.PredecodedRuns, 0u);
  EXPECT_EQ(Plain.Sim.Runs, Layered.Sim.Runs);
  auto Untimed = [](InstructionRecord R) {
    R.ExploreMillis = 0;
    for (CompilerOutcome &C : R.Compilers)
      C.TestMillis = 0;
    return R.toJson();
  };
  ASSERT_EQ(Plain.Records.size(), Layered.Records.size());
  for (std::size_t I = 0; I < Plain.Records.size(); ++I)
    EXPECT_EQ(Untimed(Plain.Records[I]), Untimed(Layered.Records[I]))
        << Layered.Records[I].Instruction;
}

TEST_F(ExperimentsTest, Table1MentionsTheCanonicalPaths) {
  std::string T = renderTable1(addExploration());
  EXPECT_NE(T.find("isInteger(s0)"), std::string::npos);
  EXPECT_NE(T.find("isNotInteger"), std::string::npos);
  EXPECT_NE(T.find("message-send"), std::string::npos);
  EXPECT_NE(T.find("success"), std::string::npos);
}

TEST_F(ExperimentsTest, Figure2TraceShowsInputAndOutputFrames) {
  std::string T = renderFigure2Trace(addExploration());
  EXPECT_NE(T.find("Concolic Execution #1"), std::string::npos);
  EXPECT_NE(T.find("input operand stack: (empty)"), std::string::npos);
  EXPECT_NE(T.find("exit: invalid-frame"), std::string::npos);
  EXPECT_NE(T.find("intObject((s1 + s0))"), std::string::npos);
}

TEST_F(ExperimentsTest, Table2HasFourCompilerRowsPlusTotal) {
  std::string T = renderTable2(sharedRows());
  EXPECT_NE(T.find("Native Methods (primitives)"), std::string::npos);
  EXPECT_NE(T.find("Simple Stack BC Compiler"), std::string::npos);
  EXPECT_NE(T.find("Stack-to-Register BC Compiler"), std::string::npos);
  EXPECT_NE(T.find("Linear-Scan Allocator BC Compiler"),
            std::string::npos);
  EXPECT_NE(T.find("Total"), std::string::npos);
}

TEST_F(ExperimentsTest, Table2ShapeMatchesThePaper) {
  const auto &Rows = sharedRows();
  ASSERT_EQ(Rows.size(), 4u);
  const CompilerEvaluation &Native = Rows[0];
  const CompilerEvaluation &Simple = Rows[1];
  const CompilerEvaluation &StackToReg = Rows[2];
  const CompilerEvaluation &LinearScan = Rows[3];

  // All compilers find differences.
  EXPECT_GT(Native.DifferingPaths, 0u);
  EXPECT_GT(Simple.DifferingPaths, 0u);
  // The two production-shaped compilers find the same differences
  // (paper: 10 and 10), and fewer than the simple compiler (paper: 18).
  EXPECT_EQ(StackToReg.DifferingPaths, LinearScan.DifferingPaths);
  EXPECT_LT(StackToReg.DifferingPaths, Simple.DifferingPaths);
  // Native methods contribute the most defect causes.
  EXPECT_GT(Native.Causes.size(), StackToReg.Causes.size());
}

TEST_F(ExperimentsTest, Figure5NativeMethodsHaveMorePaths) {
  SampleStats BC = computeStats(
      samples(InstructionKind::Bytecode, &InstructionRecord::Paths));
  SampleStats NM = computeStats(
      samples(InstructionKind::NativeMethod, &InstructionRecord::Paths));
  // Paper: byte-codes average a few more than 2 paths, native methods
  // approach 10; the ratio (several times more) is the shape claim.
  EXPECT_GT(BC.Mean, 1.5);
  EXPECT_LT(BC.Mean, 5.0);
  EXPECT_GT(NM.Mean, BC.Mean * 1.5);
}

TEST_F(ExperimentsTest, Figure6NativeMethodsTakeLongerToExplore) {
  // Figure 6's shape in work, not wall time (a descheduled exploration
  // can flip a clock comparison; fig6_concolic_time shows the clocks):
  // native methods spend about 28 explore units on average, byte-codes
  // about 11.
  SampleStats BC = computeStats(
      samples(InstructionKind::Bytecode, &InstructionRecord::ExploreUnits));
  SampleStats NM = computeStats(samples(InstructionKind::NativeMethod,
                                        &InstructionRecord::ExploreUnits));
  EXPECT_GT(NM.Mean, BC.Mean * 2);
}

TEST_F(ExperimentsTest, Table3ListsAllSixFamilies) {
  std::string T = renderTable3(sharedRows());
  EXPECT_NE(T.find("Missing interpreter type check"), std::string::npos);
  EXPECT_NE(T.find("Missing compiled type check"), std::string::npos);
  EXPECT_NE(T.find("Optimisation difference"), std::string::npos);
  EXPECT_NE(T.find("Behavioural difference"), std::string::npos);
  EXPECT_NE(T.find("Missing Functionality"), std::string::npos);
  EXPECT_NE(T.find("Simulation Error"), std::string::npos);
}

TEST_F(ExperimentsTest, Figure7ReportsPerCompilerTimes) {
  std::string T = renderFigure7(sharedRows());
  EXPECT_NE(T.find("Native Methods"), std::string::npos);
  EXPECT_NE(T.find("ms"), std::string::npos);
}

TEST_F(ExperimentsTest, LimitedHarnessRespectsCaps) {
  SessionConfig Config;
  Config.harness().MaxBytecodes = 3;
  Config.harness().MaxNativeMethods = 2;
  CampaignSummary Small = Session(Config).runCampaign();
  EXPECT_EQ(Small.Records.size(), 5u);
}

} // namespace
