//===- tests/jit/CodeCacheTest.cpp ----------------------------------------===//
//
// The compile-once code cache: hits share one immutable entry, and the
// exact keys keep every compilation unit apart, however the words of
// two units line up.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include "vm/Oop.h"

#include <gtest/gtest.h>

#include <memory>

using namespace igdt;

namespace {

CompiledMethod addMethod() {
  CompiledMethod M;
  M.Bytecodes = {0x40};
  M.Literals = {smallIntOop(1), smallIntOop(2)};
  return M;
}

JitCodeCache::Key byteCodeKey(const CompiledMethod &M,
                              const std::vector<Oop> &Stack) {
  return codeCacheKey(CompilerKind::StackToRegister, /*ArmBackend=*/false,
                      CogitOptions(), M, Stack, /*IsSequence=*/false);
}

std::shared_ptr<const CompiledCode> someCode(unsigned IRLength) {
  auto Code = std::make_shared<CompiledCode>();
  Code->IRLength = IRLength;
  return Code;
}

TEST(CodeCacheTest, LookupsOfOneKeyShareOneEntry) {
  JitCodeCache Cache;
  const std::vector<Oop> Stack = {smallIntOop(3), smallIntOop(4)};
  std::shared_ptr<const CompiledCode> Stored = someCode(7);
  Cache.store(byteCodeKey(addMethod(), Stack), Stored);

  // Each lookup builds its key afresh, as every replayed path does.
  std::shared_ptr<const CompiledCode> First =
      Cache.lookup(byteCodeKey(addMethod(), Stack));
  std::shared_ptr<const CompiledCode> Second =
      Cache.lookup(byteCodeKey(addMethod(), Stack));
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First.get(), Stored.get());
  EXPECT_EQ(Second.get(), First.get());
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(CodeCacheTest, KeysDifferingInTheLastInputStackWordMiss) {
  JitCodeCache Cache;
  Cache.store(byteCodeKey(addMethod(), {smallIntOop(3), smallIntOop(4)}),
              someCode(1));
  EXPECT_EQ(
      Cache.lookup(byteCodeKey(addMethod(), {smallIntOop(3), smallIntOop(5)})),
      nullptr);
  EXPECT_NE(
      Cache.lookup(byteCodeKey(addMethod(), {smallIntOop(3), smallIntOop(4)})),
      nullptr);
}

TEST(CodeCacheTest, AWordShiftedAcrossALengthPrefixMisses) {
  // The last literal of one unit becomes the first input-stack value of
  // the other: the same words in the same order, told apart only by the
  // length prefixes.
  CompiledMethod TwoLiterals = addMethod();
  CompiledMethod OneLiteral = addMethod();
  OneLiteral.Literals.pop_back();
  const std::vector<Oop> Stack = {smallIntOop(3)};
  std::vector<Oop> Shifted = {smallIntOop(2), smallIntOop(3)};

  JitCodeCache::Key A = byteCodeKey(TwoLiterals, Stack);
  JitCodeCache::Key B = byteCodeKey(OneLiteral, Shifted);
  ASSERT_EQ(A.size(), B.size());
  EXPECT_NE(A, B);

  JitCodeCache Cache;
  Cache.store(std::move(A), someCode(1));
  EXPECT_EQ(Cache.lookup(B), nullptr);
}

TEST(CodeCacheTest, NativeAndByteCodeKeysNeverMeet) {
  // A native-method key and a byte-code key start with different tags,
  // so no primitive index can alias a byte-code unit.
  JitCodeCache Cache;
  Cache.store(codeCacheKey(CompilerKind::NativeMethod, false, CogitOptions(),
                           1),
              someCode(1));
  EXPECT_EQ(Cache.lookup(byteCodeKey(addMethod(), {})), nullptr);
  EXPECT_NE(Cache.lookup(codeCacheKey(CompilerKind::NativeMethod, false,
                                      CogitOptions(), 1)),
            nullptr);
  EXPECT_EQ(Cache.lookup(codeCacheKey(CompilerKind::NativeMethod, true,
                                      CogitOptions(), 1)),
            nullptr);
}

} // namespace
