//===- tests/evalkit/ExperimentsTest.cpp ------------------------------------------===//
//
// The paper's tables and figures: they render from one full-catalog
// campaign, and the paper's shape claims hold on it.
//
//===----------------------------------------------------------------------===//

#include "evalkit/Experiments.h"

#include "api/Session.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

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
  SampleStats BC = computeStats(
      samples(InstructionKind::Bytecode, &InstructionRecord::ExploreMillis));
  SampleStats NM = computeStats(samples(InstructionKind::NativeMethod,
                                        &InstructionRecord::ExploreMillis));
  EXPECT_GT(NM.Mean, BC.Mean);
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
