//===- solver/SolverCache.cpp - Campaign-scope index of Unsat proofs ---------===//

#include "solver/SolverCache.h"

using namespace igdt;

bool SharedUnsatIndex::lookup(std::uint64_t CapsFingerprint,
                              const QueryKey &Key, Proof &Out) const {
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = Entries.find({CapsFingerprint, Key});
  if (It == Entries.end())
    return false;
  Out = It->second;
  return true;
}

void SharedUnsatIndex::store(std::uint64_t CapsFingerprint,
                             const QueryKey &Key, const Proof &P) {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Entries.size() >= MaxEntries)
    return;
  // A concurrent worker may have proved the same case first; both
  // proofs are identical (the proof is deterministic), so emplace's
  // keep-first semantics are fine.
  Entries.emplace(std::make_pair(CapsFingerprint, Key), P);
}

std::size_t SharedUnsatIndex::size() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Entries.size();
}
