//===- tests/concolic/SequenceTest.cpp ---------------------------------------------===//
//
// The sequence-testing extension (the paper's future work): concolic
// exploration of whole byte-code sequences and differential replay
// against the byte-code compilers, TEST_P over the sequence catalog.
//
//===----------------------------------------------------------------------===//

#include "concolic/SequenceCatalog.h"

#include "differential/DifferentialTester.h"
#include "faults/DefectCatalog.h"

#include <gtest/gtest.h>
#include <ostream>

using namespace igdt;

namespace {

TEST(SequenceCatalogTest, CatalogIsWellFormed) {
  EXPECT_GE(allSequences().size(), 8u);
  for (const SequenceSpec &S : allSequences()) {
    EXPECT_FALSE(S.Method.Bytecodes.empty()) << S.Name;
    EXPECT_FALSE(S.Description.empty()) << S.Name;
  }
  EXPECT_NE(findSequence("seq_dup_square"), nullptr);
  EXPECT_EQ(findSequence("nonexistent"), nullptr);
}

TEST(SequenceExplorationTest, LocalPlusLiteralReturn) {
  VMConfig VM;
  ConcolicExplorer Explorer(VM);
  const SequenceSpec *S = findSequence("seq_local_plus_literal_return");
  ExplorationResult R = Explorer.exploreMethod(S->Method, S->Name);
  EXPECT_TRUE(R.IsSequence);
  // Paths: local is an int (+ in-range / overflow), local not an int, ...
  EXPECT_GE(R.Paths.size(), 3u);
  bool SawReturn = false;
  for (const PathSolution &P : R.Paths)
    if (P.Exit == ExitKind::MethodReturn)
      SawReturn = true;
  EXPECT_TRUE(SawReturn);
}

TEST(SequenceExplorationTest, ConstantAddHasSingleHotPath) {
  VMConfig VM;
  ConcolicExplorer Explorer(VM);
  const SequenceSpec *S = findSequence("seq_constant_add");
  ExplorationResult R = Explorer.exploreMethod(S->Method, S->Name);
  // Constants fold away symbolically: exactly one path, returning 1+2.
  ASSERT_EQ(R.Paths.size(), 1u);
  EXPECT_EQ(R.Paths[0].Exit, ExitKind::MethodReturn);
  EXPECT_EQ(R.Paths[0].Result.C, smallIntOop(3));
  EXPECT_TRUE(R.Paths[0].Constraints.empty());
}

TEST(SequenceExplorationTest, DiamondExploresBothArms) {
  VMConfig VM;
  ConcolicExplorer Explorer(VM);
  const SequenceSpec *S = findSequence("seq_diamond_pop");
  ExplorationResult R = Explorer.exploreMethod(S->Method, S->Name);
  unsigned Returns = 0;
  for (const PathSolution &P : R.Paths)
    Returns += P.Exit == ExitKind::MethodReturn;
  // true arm, false arm (and the mustBeBoolean + invalid-frame paths).
  EXPECT_GE(Returns, 2u);
  EXPECT_GE(R.Paths.size(), 4u);
}

struct SeqConfig {
  const char *Sequence;
  CompilerKind Kind;
  bool Arm;
};

class SequenceDifferentialTest
    : public ::testing::TestWithParam<SeqConfig> {};

TEST_P(SequenceDifferentialTest, CompiledSequenceMatchesInterpreter) {
  const SeqConfig &C = GetParam();
  // Defect-free configuration: only the structural optimisation
  // differences may remain (seeded defects have their own tests).
  VMConfig VM = cleanVMConfig();
  ConcolicExplorer Explorer(VM);
  const SequenceSpec *S = findSequence(C.Sequence);
  ASSERT_NE(S, nullptr);
  ExplorationResult R = Explorer.exploreMethod(S->Method, S->Name);

  DiffTestConfig Cfg;
  Cfg.Kind = C.Kind;
  Cfg.UseArmBackend = C.Arm;
  Cfg.Cogit = cleanCogitOptions();
  DifferentialTester Tester(Cfg);

  unsigned Matches = 0;
  unsigned Replayed = 0;
  for (std::size_t I = 0; I < R.Paths.size(); ++I) {
    PathTestOutcome O = Tester.testPath(R, I);
    if (O.Status == PathTestStatus::Match) {
      ++Matches;
      ++Replayed;
    }
    // Arithmetic inside sequences may hit the structural optimisation
    // differences (Simple sends everywhere; floats are not inlined);
    // anything else is a genuine bug in sequence compilation.
    if (O.Status == PathTestStatus::Difference) {
      ++Replayed;
      EXPECT_EQ(O.Family, DefectFamily::OptimisationDifference)
          << C.Sequence << " path " << I << ": " << O.Details;
    }
  }
  EXPECT_GT(Replayed, 0u) << C.Sequence;
  // The simple compiler sends for every arithmetic byte-code, so
  // arithmetic-only sequences may legitimately have no matching paths.
  if (C.Kind != CompilerKind::SimpleStack) {
    EXPECT_GT(Matches, 0u) << C.Sequence;
  }
}

std::string seqTestName(const ::testing::TestParamInfo<SeqConfig> &Info) {
  std::string Name = Info.param.Sequence;
  Name += Info.param.Kind == CompilerKind::SimpleStack ? "_simple"
          : Info.param.Kind == CompilerKind::StackToRegister
              ? "_stack2reg"
              : "_linearscan";
  Name += Info.param.Arm ? "_arm" : "_x64";
  return Name;
}

/// Prints a parameter as its test-name suffix, so gtest does not dump
/// the struct's raw bytes (a pointer and padding) into the test name.
void PrintTo(const SeqConfig &C, std::ostream *OS) {
  *OS << seqTestName(::testing::TestParamInfo<SeqConfig>(C, 0));
}

std::vector<SeqConfig> allSeqConfigs() {
  std::vector<SeqConfig> Out;
  for (const SequenceSpec &S : allSequences())
    for (CompilerKind Kind :
         {CompilerKind::SimpleStack, CompilerKind::StackToRegister,
          CompilerKind::RegisterAllocating})
      for (bool Arm : {false, true})
        Out.push_back({S.Name.c_str(), Kind, Arm});
  return Out;
}

INSTANTIATE_TEST_SUITE_P(AllSequences, SequenceDifferentialTest,
                         ::testing::ValuesIn(allSeqConfigs()),
                         seqTestName);

} // namespace
