//===- perfbench/cpp/BenchCoreTest.cpp - Tests of the benchmark helpers ----===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
// Run: cmake --build .bench_build/perfbench --target perfbench_core_test
//      && .bench_build/perfbench/perfbench_core_test
//
//===----------------------------------------------------------------------===//

#include "BenchCore.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace perfbench;

TEST(Percentile, NearestRank) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 0.5), 50);
  EXPECT_EQ(percentile(V, 0.9), 90);
  EXPECT_EQ(percentile(V, 1.0), 100);
  EXPECT_EQ(percentile({7}, 0.9), 7);
  EXPECT_EQ(percentile({}, 0.5), 0);
  EXPECT_EQ(percentile({1, 2, 3}, 0.5), 2);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 0.5), 2);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(tailSupported(100, 0.9));
  EXPECT_FALSE(tailSupported(99, 0.9));
  EXPECT_EQ(minSamplesFor(0.9), 100u);
  EXPECT_EQ(minSamplesFor(0.5), 20u);
  EXPECT_EQ(minSamplesFor(0.99), 1000u);
  EXPECT_EQ(samplesBeyond(0, 0.9), 0u);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // unit [0,100) with children a [10,30) and b [20,50) (overlapping)
  // and c [60,70); c has a grandchild d [62,65).
  std::vector<Span> S = {{"unit", 0, 100, -1, 0},
                         {"a", 10, 30, 0, 0},
                         {"b", 20, 50, 0, 0},
                         {"c", 60, 70, 0, 0},
                         {"d", 62, 65, 3, 0}};
  std::vector<std::int64_t> Self = selfTimes(S);
  EXPECT_EQ(Self[0], 100 - 40 - 10);
  EXPECT_EQ(Self[1], 20);
  EXPECT_EQ(Self[2], 30);
  EXPECT_EQ(Self[3], 10 - 3);
  EXPECT_EQ(Self[4], 3);
}

TEST(Spans, ChildIsClippedToParent) {
  std::vector<Span> S = {{"p", 10, 20, -1, 0}, {"c", 5, 15, 0, 0}};
  EXPECT_EQ(selfTimes(S)[0], 5);
}

TEST(Spans, RecorderNestsAndFoldsUnits) {
  SpanRecorder R(/*KeepUnits=*/2);
  for (int Unit = 0; Unit < 3; ++Unit) {
    {
      SpanScope Outer(&R, "outer");
      { SpanScope Inner(&R, "inner"); }
      { SpanScope Inner(&R, "inner"); }
    }
    SpanScope Sibling(&R, "after");
    R.endUnit(); // closes "after" too
  }
  EXPECT_EQ(R.units(), 3u);
  ASSERT_EQ(R.totals().at("outer").Count, 3u);
  EXPECT_EQ(R.totals().at("inner").Count, 6u);
  EXPECT_EQ(R.totals().at("after").Count, 3u);
  const SpanTotals &O = R.totals().at("outer");
  const SpanTotals &In = R.totals().at("inner");
  EXPECT_EQ(O.SelfNanos, O.TotalNanos - In.TotalNanos);
  EXPECT_EQ(In.SelfNanos, In.TotalNanos);
  // The first two units' spans are kept, parents rebased.
  ASSERT_EQ(R.kept().size(), 8u);
  EXPECT_EQ(R.kept()[1].Parent, 0);
  EXPECT_EQ(R.kept()[3].Parent, -1);
  EXPECT_EQ(R.kept()[5].Parent, 4);
  EXPECT_EQ(R.kept()[4].Unit, 1u);
}

TEST(Spans, NullRecorderIsFree) { SpanScope S(nullptr, "nothing"); }

TEST(Seeded, PermutationIsAPermutationAndRepeats) {
  std::vector<std::size_t> A = seededPermutation(187, 42);
  std::vector<std::size_t> B = seededPermutation(187, 42);
  std::vector<std::size_t> C = seededPermutation(187, 43);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  std::sort(A.begin(), A.end());
  for (std::size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], I);
}

TEST(Seeded, FixedStreamAcrossPlatforms) {
  // splitmix64's published first output for seed 0.
  SeededRng Rng(0);
  EXPECT_EQ(Rng.next(), 0xe220a8397b1dcdafULL);
}

TEST(Seeded, DaemonMixHasExactShape) {
  std::vector<DaemonOp> Ops = daemonMix(7, 187, 3);
  ASSERT_EQ(Ops.size(), 187u * 4);
  std::vector<unsigned> Writes(187);
  std::size_t WriteCount = 0;
  for (const DaemonOp &Op : Ops)
    if (Op.Write) {
      ++WriteCount;
      ++Writes[Op.Target];
    }
  EXPECT_EQ(WriteCount, 187u);
  for (unsigned W : Writes)
    EXPECT_EQ(W, 1u);

  // Same seed, same mix; another seed moves the writes.
  std::vector<DaemonOp> Again = daemonMix(7, 187, 3);
  std::vector<DaemonOp> Other = daemonMix(8, 187, 3);
  bool SameAsAgain = true, SameAsOther = true;
  for (std::size_t I = 0; I < Ops.size(); ++I) {
    SameAsAgain &= Ops[I].Write == Again[I].Write &&
                   Ops[I].Target == Again[I].Target;
    SameAsOther &= Ops[I].Write == Other[I].Write &&
                   Ops[I].Target == Other[I].Target;
  }
  EXPECT_TRUE(SameAsAgain);
  EXPECT_FALSE(SameAsOther);
}

TEST(WorkCounts, DiffNamesEveryMismatch) {
  WorkCounts Want = {{"a", 1}, {"b", 2}};
  EXPECT_EQ(diffCounts(Want, {{"a", 1}, {"b", 2}, {"extra", 9}}), "");
  EXPECT_EQ(diffCounts(Want, {{"a", 1}, {"b", 3}}), "b expected 2 got 3");
  EXPECT_EQ(diffCounts(Want, {{"b", 2}}), "a expected 1 got nothing");
}
