//===- perfbench/cpp/BenchCore.cpp - Benchmark statistics and spans --------===//

#include "BenchCore.h"

#include <algorithm>
#include <cmath>
#include <utility>

using namespace perfbench;

namespace {

/// 1-based nearest rank of the \p Q percentile of \p N samples. The
/// epsilon keeps 0.9 * 100 at rank 90 despite binary rounding.
std::size_t nearestRank(std::size_t N, double Q) {
  if (N == 0)
    return 0;
  double Rank = std::ceil(Q * double(N) - 1e-9);
  return std::clamp<std::size_t>(std::size_t(std::max(Rank, 1.0)), 1, N);
}

} // namespace

double perfbench::percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::size_t Rank = nearestRank(Samples.size(), Q);
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

std::size_t perfbench::samplesBeyond(std::size_t N, double Q) {
  return N - nearestRank(N, Q);
}

bool perfbench::tailSupported(std::size_t N, double Q) {
  return samplesBeyond(N, Q) >= 10;
}

std::size_t perfbench::minSamplesFor(double Q) {
  std::size_t N = 10;
  while (!tailSupported(N, Q))
    ++N;
  return N;
}

std::vector<std::int64_t> perfbench::selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && std::size_t(S.Parent) < Spans.size()) {
      const Span &P = Spans[std::size_t(S.Parent)];
      std::int64_t Lo = std::max(S.Start, P.Start);
      std::int64_t Hi = std::min(S.End, P.End);
      if (Hi > Lo)
        Children[std::size_t(S.Parent)].push_back({Lo, Hi});
    }

  std::vector<std::int64_t> Self(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    std::int64_t Covered = 0, RunLo = 0, RunHi = 0;
    bool InRun = false;
    for (auto [Lo, Hi] : Kids) {
      if (InRun && Lo <= RunHi) {
        RunHi = std::max(RunHi, Hi);
        continue;
      }
      if (InRun)
        Covered += RunHi - RunLo;
      RunLo = Lo;
      RunHi = Hi;
      InRun = true;
    }
    if (InRun)
      Covered += RunHi - RunLo;
    Self[I] = (Spans[I].End - Spans[I].Start) - Covered;
  }
  return Self;
}

std::int64_t SpanRecorder::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

int SpanRecorder::begin(const std::string &Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Unit = Unit;
  S.Start = now();
  Current.push_back(std::move(S));
  int Handle = int(Current.size() - 1);
  Open.push_back(Handle);
  return Handle;
}

void SpanRecorder::end(int Handle) {
  std::int64_t T = now();
  while (!Open.empty()) {
    int Top = Open.back();
    Open.pop_back();
    Current[std::size_t(Top)].End = T;
    if (Top == Handle)
      break;
  }
}

void SpanRecorder::endUnit() {
  while (!Open.empty())
    end(Open.back());
  std::vector<std::int64_t> Self = selfTimes(Current);
  for (std::size_t I = 0; I < Current.size(); ++I) {
    SpanTotals &T = Totals[Current[I].Name];
    ++T.Count;
    T.TotalNanos += Current[I].End - Current[I].Start;
    T.SelfNanos += Self[I];
  }
  if (Unit < KeepUnits) {
    int Base = int(Kept.size());
    for (Span &S : Current) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Kept.push_back(std::move(S));
    }
  }
  Current.clear();
  ++Unit;
}

std::uint64_t SeededRng::next() {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::uint64_t SeededRng::below(std::uint64_t Bound) {
  // Rejection sampling keeps the draw exactly uniform.
  std::uint64_t Limit = ~0ULL - (~0ULL % Bound);
  std::uint64_t X;
  do
    X = next();
  while (X >= Limit);
  return X % Bound;
}

std::vector<std::size_t> perfbench::seededPermutation(std::size_t N,
                                                      std::uint64_t Seed) {
  std::vector<std::size_t> P(N);
  for (std::size_t I = 0; I < N; ++I)
    P[I] = I;
  SeededRng Rng(Seed);
  for (std::size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[std::size_t(Rng.below(I))]);
  return P;
}

std::vector<DaemonOp> perfbench::daemonMix(std::uint64_t Seed,
                                           std::size_t NumInstructions,
                                           unsigned ReadsPerWrite) {
  std::vector<std::size_t> Targets =
      seededPermutation(NumInstructions, Seed * 31);
  std::size_t Writes = Targets.size();
  std::vector<DaemonOp> Ops(Writes * (1 + ReadsPerWrite));
  // Which slots are writes: a seeded permutation of the slots, first
  // Writes of them, so the count is exact and the positions are mixed.
  std::vector<std::size_t> Slots = seededPermutation(Ops.size(), ~Seed);
  std::vector<std::size_t> WriteSlots(Slots.begin(), Slots.begin() + Writes);
  std::sort(WriteSlots.begin(), WriteSlots.end());
  for (std::size_t W = 0; W < Writes; ++W) {
    Ops[WriteSlots[W]].Write = true;
    Ops[WriteSlots[W]].Target = Targets[W];
  }
  return Ops;
}

std::string perfbench::diffCounts(const WorkCounts &Expected,
                                  const WorkCounts &Actual) {
  std::string Out;
  for (const auto &[Key, Want] : Expected) {
    auto It = Actual.find(Key);
    std::uint64_t Got = It == Actual.end() ? 0 : It->second;
    if (It != Actual.end() && Got == Want)
      continue;
    if (!Out.empty())
      Out += ", ";
    Out += Key + " expected " + std::to_string(Want) + " got " +
           (It == Actual.end() ? std::string("nothing") : std::to_string(Got));
  }
  return Out;
}
