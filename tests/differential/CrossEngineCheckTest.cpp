//===- tests/differential/CrossEngineCheckTest.cpp -----------------------------===//
//
// The cross-engine oracle (--cross-engine-check): every path is run
// through the native tier and the simulator; clean configurations must
// report zero divergences, and a deliberately miscompiled native code
// generator (SimOptions::NativeMiscompileProbe) must surface as the
// CrossEngineDivergence defect family — a finding that indicts the
// x86-64 code generator rather than the VM under test.
//
//===----------------------------------------------------------------------===//

#include "differential/DifferentialTester.h"

#include "support/CpuFeatures.h"

#include <gtest/gtest.h>

using namespace igdt;

namespace {

struct Summary {
  unsigned Matches = 0;
  unsigned Differences = 0;
  unsigned Divergences = 0;
  std::string FirstDivergence;
};

Summary runWithCheck(const std::string &Name, bool MiscompileProbe) {
  const InstructionSpec *Spec = findInstruction(Name);
  EXPECT_NE(Spec, nullptr) << Name;
  VMConfig VM;
  ConcolicExplorer Explorer(VM);
  ExplorationResult R = Explorer.explore(*Spec);

  DiffTestConfig Cfg;
  Cfg.Kind = Spec->Kind == InstructionKind::Bytecode
                 ? CompilerKind::StackToRegister
                 : CompilerKind::NativeMethod;
  Cfg.CrossEngineCheck = true;
  Cfg.Sim.NativeMiscompileProbe = MiscompileProbe;
  DifferentialTester Tester(Cfg);

  Summary S;
  for (std::size_t I = 0; I < R.Paths.size(); ++I) {
    PathTestOutcome O = Tester.testPath(R, I);
    if (O.Status == PathTestStatus::Match)
      ++S.Matches;
    if (O.Status == PathTestStatus::Difference) {
      ++S.Differences;
      if (O.Family == DefectFamily::CrossEngineDivergence) {
        ++S.Divergences;
        if (S.FirstDivergence.empty())
          S.FirstDivergence = O.Details;
      }
    }
  }
  return S;
}

TEST(CrossEngineCheckTest, CleanInstructionsHaveZeroDivergences) {
  // Off x86-64 no probe runs, so "no divergence on clean code" holds
  // on every host.
  for (const char *Name :
       {"bytecodePrim_add", "pushLocal3", "primitiveAdd"}) {
    Summary S = runWithCheck(Name, /*MiscompileProbe=*/false);
    EXPECT_EQ(S.Divergences, 0u) << Name << ": " << S.FirstDivergence;
    EXPECT_GT(S.Matches, 0u) << Name;
  }
}

TEST(CrossEngineCheckTest, MiscompiledNativeTierIsDetected) {
  if (!nativeTierSupported())
    GTEST_SKIP() << "native tier unavailable on this host";
  // With the deliberate AddI off-by-one armed, at least one path of an
  // add-heavy instruction must diverge, and the divergence must be
  // attributed to the cross-engine family with a register diff in the
  // details.
  Summary S = runWithCheck("bytecodePrim_add", /*MiscompileProbe=*/true);
  EXPECT_GT(S.Divergences, 0u);
  EXPECT_NE(S.FirstDivergence.find("native tier diverged"),
            std::string::npos)
      << S.FirstDivergence;
}

TEST(CrossEngineCheckTest, DivergenceFamilyHasAName) {
  EXPECT_STREQ(defectFamilyName(DefectFamily::CrossEngineDivergence),
               "Cross-engine divergence");
}

} // namespace
