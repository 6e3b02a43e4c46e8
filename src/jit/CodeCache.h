//===- jit/CodeCache.h - Compile-once code caching ------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile-once caching of front-end output. Compilation in IGDT is a
/// pure function: the cogits read nothing from the heap except the
/// nil/true/false singletons (identical in every fresh ObjectMemory)
/// and embed the input-stack Oops as immediates, so CompiledCode is
/// fully determined by (compiler kind, back-end, CogitOptions seeds,
/// compilation unit, input-stack values). The differential tester
/// re-compiles that same unit for every replayed path; with the paths
/// of one instruction differing only in their models, most replays
/// share the key and the cache turns O(paths) compiles into O(distinct
/// input shapes).
///
/// Keys are exact (an injective encoding, not a hash), so a hit can
/// never alias two different compilation units: the entries live in a
/// hashed table, but the hash only picks the bucket and the whole key
/// is the equality test. Entries are shared and immutable: a hit hands
/// out the stored pointer and copies nothing, so the engine forms built
/// on the miss (jit/PredecodedCode.h) serve every later hit.
///
/// Only *successful* compiles are stored: a std::nullopt from the
/// byte-code cogit (operand-stack underflow) is cheap to re-derive, and
/// the armed InjectFrontEndThrow fault throws before anything reaches
/// the cache — the tester additionally bypasses lookups while that
/// fault is armed so injected crashes fire deterministically on every
/// path.
///
/// On a hit the tester replays the cogit's Compile trace event with
/// identical fields, so deterministic traces are byte-identical with
/// the cache on or off; only filtered CacheLookup diagnostics
/// ("code-hit"/"code-miss") tell the difference.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_JIT_CODECACHE_H
#define IGDT_JIT_CODECACHE_H

#include "jit/CogitOptions.h"
#include "observe/Counters.h"
#include "jit/CompiledCode.h"
#include "vm/CompiledMethod.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace igdt {

/// Compile-once counters, reported next to SolverStats by the
/// evaluation harness. Never serialised into campaign checkpoints (a
/// resumed campaign skips the compiles a fresh one performs), and
/// config-dependent: with the code cache off every replay compiles.
struct JitCacheStats {
  /// Front-end invocations that actually ran (cache misses + runs with
  /// no cache configured count alike: a compile is a compile).
  std::uint64_t Compiles = 0;
  /// Replays served from the cache instead of re-compiling.
  std::uint64_t CodeCacheHits = 0;

  static constexpr Counter<JitCacheStats> Counters[] = {
      {"jit.compiles", &JitCacheStats::Compiles, MetricClass::ConfigDependent},
      {"jit.code_cache.hits", &JitCacheStats::CodeCacheHits,
       MetricClass::ConfigDependent},
  };
  void add(const JitCacheStats &Other) { addCounters(*this, Other); }
};
static_assert(declaresEveryMember<JitCacheStats>());

/// Compile-once cache of CompiledCode per compilation unit. Holds no
/// counters itself — the tester charges a JitCacheStats it is handed,
/// so compiles are counted identically with the cache on or off. Not
/// thread-safe: owners keep it worker-local (the campaign runner holds
/// one per instruction attempt, Session one per session).
class JitCodeCache {
public:
  /// An injective encoding of everything a compile depends on.
  using Key = std::vector<std::uint64_t>;

  /// The stored code, shared with every other lookup of \p K; null on
  /// miss.
  std::shared_ptr<const CompiledCode> lookup(const Key &K) const;

  /// Stores a successful compile under \p K.
  void store(Key &&K, std::shared_ptr<const CompiledCode> Code);

  std::size_t size() const { return Entries.size(); }

private:
  struct KeyHash {
    std::size_t operator()(const Key &K) const;
  };
  std::unordered_map<Key, std::shared_ptr<const CompiledCode>, KeyHash>
      Entries;
};

/// Key for a native-method (primitive) compile.
JitCodeCache::Key codeCacheKey(CompilerKind Kind, bool ArmBackend,
                               const CogitOptions &Opts,
                               std::int32_t PrimitiveIndex);

/// Key for a byte-code compile: the method body, literals, temps, the
/// input-stack Oops the preamble embeds, and whether the whole method
/// ran as one fragment (sequence mode) or a single instruction.
JitCodeCache::Key codeCacheKey(CompilerKind Kind, bool ArmBackend,
                               const CogitOptions &Opts,
                               const CompiledMethod &Method,
                               const std::vector<Oop> &InputStack,
                               bool IsSequence);

} // namespace igdt

#endif // IGDT_JIT_CODECACHE_H
