//===- jit/CodeCache.cpp - Compile-once code caching ----------------------===//

#include "jit/CodeCache.h"

#include "support/StringUtils.h"

using namespace igdt;

namespace {

/// The CogitOptions fields a compile's output depends on. Trace is
/// excluded (pure observation) and InjectFrontEndThrow never reaches a
/// key (the tester bypasses the cache while it is armed).
std::uint64_t optionBits(const CogitOptions &Opts) {
  return (Opts.SeedFloatReceiverCheckMissing ? 1u : 0u) |
         (Opts.SeedFFINotImplemented ? 2u : 0u) |
         (Opts.SeedBitOpsAcceptNegatives ? 4u : 0u);
}

constexpr std::size_t KeyPrefixWords = 4;

/// Starts a key of \p Size words with the prefix both key shapes share.
/// The leading tag keeps the two shapes disjoint regardless of what
/// follows.
JitCodeCache::Key keyPrefix(std::size_t Size, std::uint64_t Tag,
                            CompilerKind Kind, bool ArmBackend,
                            const CogitOptions &Opts) {
  JitCodeCache::Key K;
  K.reserve(Size);
  K.insert(K.end(), {Tag, static_cast<std::uint64_t>(Kind),
                     ArmBackend ? 1u : 0u, optionBits(Opts)});
  return K;
}

} // namespace

std::size_t JitCodeCache::KeyHash::operator()(const Key &K) const {
  std::uint64_t H = K.size();
  for (std::uint64_t Word : K)
    H = hashCombine64(H, Word);
  return static_cast<std::size_t>(H);
}

std::shared_ptr<const CompiledCode>
JitCodeCache::lookup(const Key &K) const {
  auto It = Entries.find(K);
  return It == Entries.end() ? nullptr : It->second;
}

void JitCodeCache::store(Key &&K, std::shared_ptr<const CompiledCode> Code) {
  Entries.emplace(std::move(K), std::move(Code));
}

JitCodeCache::Key igdt::codeCacheKey(CompilerKind Kind, bool ArmBackend,
                                     const CogitOptions &Opts,
                                     std::int32_t PrimitiveIndex) {
  JitCodeCache::Key K =
      keyPrefix(KeyPrefixWords + 1, 0, Kind, ArmBackend, Opts);
  K.push_back(static_cast<std::uint64_t>(PrimitiveIndex));
  return K;
}

JitCodeCache::Key igdt::codeCacheKey(CompilerKind Kind, bool ArmBackend,
                                     const CogitOptions &Opts,
                                     const CompiledMethod &Method,
                                     const std::vector<Oop> &InputStack,
                                     bool IsSequence) {
  JitCodeCache::Key K = keyPrefix(
      KeyPrefixWords + 6 + Method.Bytecodes.size() + Method.Literals.size() +
          InputStack.size(),
      1, Kind, ArmBackend, Opts);
  K.push_back(IsSequence ? 1u : 0u);
  K.push_back(Method.NumArgs);
  K.push_back(Method.NumTemps);
  // Each variable-length section is preceded by its length, keeping the
  // whole encoding injective.
  K.push_back(Method.Bytecodes.size());
  K.insert(K.end(), Method.Bytecodes.begin(), Method.Bytecodes.end());
  K.push_back(Method.Literals.size());
  K.insert(K.end(), Method.Literals.begin(), Method.Literals.end());
  K.push_back(InputStack.size());
  K.insert(K.end(), InputStack.begin(), InputStack.end());
  return K;
}
