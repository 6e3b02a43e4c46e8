//===- solver/SolverCache.h - Campaign-scope index of Unsat proofs ----------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SharedUnsatIndex: a campaign-scope record of proven-Unsat cases,
/// shared across explorations. Catalog instructions of one family pose
/// structurally identical type-check cases, so Unsat proofs recur
/// campaign-wide even though they never recur within one exploration.
/// Only Unsat entries are shared: they carry no model (nothing points
/// into a foreign term arena), and an Unsat proof is derived purely
/// from class conflicts, empty candidate sets and interval propagation
/// — never from the seeded numeric search — so any worker with the same
/// caps and class table would reprove it identically. A hit is
/// therefore transparent: results are byte-identical whether or not it
/// fires, which keeps campaign rows independent of worker scheduling.
/// Keys are built from each atom's precomputed structural hash
/// (solver/Term.h), so they agree across arenas. Entries are keyed by a
/// caps fingerprint so ladder rungs and ablation configurations never
/// serve each other. The index takes one mutex per case lookup / store
/// — off the hot search path, which runs lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SOLVER_SOLVERCACHE_H
#define IGDT_SOLVER_SOLVERCACHE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace igdt {

/// Campaign-scope index of proven-Unsat cases (see the file comment
/// for why only Unsat may cross exploration and thread boundaries).
/// Thread-safe: workers of a parallel campaign consult and populate one
/// instance concurrently.
class SharedUnsatIndex {
public:
  /// Sorted literal hashes of one conjunctive case.
  using QueryKey = std::vector<std::uint64_t>;

  /// The deterministic cost of the original Unsat proof. Charged to the
  /// hitting solver's statistics in place of re-running the proof, so
  /// per-instruction counters (cases, nodes) stay identical whether the
  /// hit fires or not — only the hit/miss counters themselves depend on
  /// scheduling.
  struct Proof {
    std::uint64_t CasesExplored = 0;
    std::uint64_t NodesExplored = 0;
  };

  /// Looks up a case proven Unsat under the same caps fingerprint.
  bool lookup(std::uint64_t CapsFingerprint, const QueryKey &Key,
              Proof &Out) const;

  /// Records an Unsat proof. No-op once the entry cap is reached (the
  /// index is an accelerator, not ground truth).
  void store(std::uint64_t CapsFingerprint, const QueryKey &Key,
             const Proof &P);

  std::size_t size() const;

private:
  mutable std::mutex Lock;
  std::map<std::pair<std::uint64_t, QueryKey>, Proof> Entries;
  static constexpr std::size_t MaxEntries = 1u << 16;
};

} // namespace igdt

#endif // IGDT_SOLVER_SOLVERCACHE_H
