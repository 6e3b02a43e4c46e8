//===- support/RNG.h - Deterministic pseudo random numbers ----------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic xorshift128+ generator. The constraint solver uses it
/// for sampling-based search; every run of the test suite must be
/// reproducible, so no std::random_device anywhere.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SUPPORT_RNG_H
#define IGDT_SUPPORT_RNG_H

#include <cstdint>

namespace igdt {

/// xorshift128+ pseudo random generator with a fixed default seed.
class RNG {
public:
  explicit RNG(std::uint64_t Seed = 0x9E3779B97F4A7C15ull) {
    State0 = Seed ? Seed : 1;
    State1 = splitMix(State0);
    State0 = splitMix(State1);
  }

  /// Returns the next raw 64-bit value.
  std::uint64_t next() {
    std::uint64_t X = State0;
    std::uint64_t Y = State1;
    State0 = Y;
    X ^= X << 23;
    State1 = X ^ Y ^ (X >> 17) ^ (Y >> 26);
    return State1 + Y;
  }

  /// Returns a value uniformly in [Lo, Hi] (inclusive). Requires Lo <= Hi.
  /// The span and the offset add are computed in uint64_t, where they
  /// wrap instead of overflowing a signed type.
  std::int64_t nextInRange(std::int64_t Lo, std::int64_t Hi) {
    std::uint64_t Span =
        static_cast<std::uint64_t>(Hi) - static_cast<std::uint64_t>(Lo);
    if (Span == ~0ull)
      return static_cast<std::int64_t>(next());
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(Lo) +
                                     next() % (Span + 1));
  }

  /// Returns a double uniformly in [Lo, Hi).
  double nextDouble(double Lo, double Hi) {
    double Unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return Lo + Unit * (Hi - Lo);
  }

  /// Returns true with probability Num/Den.
  bool chance(unsigned Num, unsigned Den) { return next() % Den < Num; }

private:
  static std::uint64_t splitMix(std::uint64_t X) {
    X += 0x9E3779B97F4A7C15ull;
    X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
    X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
    return X ^ (X >> 31);
  }

  std::uint64_t State0;
  std::uint64_t State1;
};

} // namespace igdt

#endif // IGDT_SUPPORT_RNG_H
