//===- symbolic/PathRecorder.h - Path-condition recording --------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records the sequence of branch decisions of one concolic execution
/// (paper §2.3: "path conditions"). Each entry stores the condition term
/// and whether the concrete execution took it. Concretisation pins
/// (introduced when a symbolic value must be fixed, e.g. slot indices)
/// are recorded non-negatable so the explorer never tries to flip them.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SYMBOLIC_PATHRECORDER_H
#define IGDT_SYMBOLIC_PATHRECORDER_H

#include "solver/Term.h"

#include <utility>
#include <vector>

namespace igdt {

/// One recorded branch decision.
struct PathEntry {
  const BoolTerm *Condition;
  /// True if the concrete execution satisfied Condition.
  bool Taken;
  /// False for concretisation pins that must not be negated.
  bool Negatable;
};

/// Identity of a recorded path: every condition with the outcome the
/// execution observed. Conditions are hash-consed terms, so two paths
/// share a signature exactly when they decided the same conditions the
/// same way; unlike rendered text, the key loses nothing (a float
/// constant past %g's six digits, an allocation's size).
using PathSignature = std::vector<std::pair<const BoolTerm *, bool>>;

/// Accumulates the path condition of one concolic execution.
class PathRecorder {
public:
  /// Records \p Condition with concrete outcome \p Taken.
  void record(const BoolTerm *Condition, bool Taken, bool Negatable = true) {
    Entries.push_back({Condition, Taken, Negatable});
  }

  const std::vector<PathEntry> &entries() const { return Entries; }

  void clear() { Entries.clear(); }

  /// The key the explorer deduplicates paths by.
  PathSignature signature() const {
    PathSignature Sig;
    Sig.reserve(Entries.size());
    for (const PathEntry &E : Entries)
      Sig.emplace_back(E.Condition, E.Taken);
    return Sig;
  }

  /// The path condition as a conjunction: entry terms with the polarity
  /// the execution observed.
  std::vector<const BoolTerm *> conjunction(TermBuilder &B) const {
    std::vector<const BoolTerm *> Out;
    Out.reserve(Entries.size());
    for (const PathEntry &E : Entries)
      Out.push_back(E.Taken ? E.Condition : B.notB(E.Condition));
    return Out;
  }

private:
  std::vector<PathEntry> Entries;
};

} // namespace igdt

#endif // IGDT_SYMBOLIC_PATHRECORDER_H
