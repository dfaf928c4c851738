#include "common/hash.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

namespace lazysi {
namespace {

TEST(Fnv1aTest, KnownValues) {
  // FNV-1a 64-bit reference vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv1aTest, SeedChaining) {
  const auto h1 = Fnv1a64("ab");
  const auto h2 = Fnv1a64("b", Fnv1a64("a"));
  EXPECT_EQ(h1, h2);
}

TEST(HashMixTest, OrderSensitive) {
  const auto a = HashMix(HashMix(0, 1), 2);
  const auto b = HashMix(HashMix(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(StateChainTest, SameWritesSameOrderSameChain) {
  StateChain a, b;
  for (StateChain* c : {&a, &b}) {
    c->FoldWrite("x", "1", false);
    c->SealTransaction();
    c->FoldWrite("y", "2", false);
    c->FoldWrite("z", "3", true);
    c->SealTransaction();
  }
  EXPECT_EQ(a.value(), b.value());
}

TEST(StateChainTest, DifferentCommitOrderDiverges) {
  StateChain a, b;
  a.FoldWrite("x", "1", false);
  a.SealTransaction();
  a.FoldWrite("y", "2", false);
  a.SealTransaction();

  b.FoldWrite("y", "2", false);
  b.SealTransaction();
  b.FoldWrite("x", "1", false);
  b.SealTransaction();
  EXPECT_NE(a.value(), b.value());
}

TEST(StateChainTest, DeleteFlagMatters) {
  StateChain a, b;
  a.FoldWrite("x", "", false);
  a.SealTransaction();
  b.FoldWrite("x", "", true);
  b.SealTransaction();
  EXPECT_NE(a.value(), b.value());
}

TEST(StateChainTest, TransactionBoundaryMatters) {
  // Two writes in one transaction vs the same writes in two transactions.
  StateChain a, b;
  a.FoldWrite("x", "1", false);
  a.FoldWrite("y", "2", false);
  a.SealTransaction();

  b.FoldWrite("x", "1", false);
  b.SealTransaction();
  b.FoldWrite("y", "2", false);
  b.SealTransaction();
  EXPECT_NE(a.value(), b.value());
}

TEST(StateChainTest, KeyValueBoundaryMatters) {
  // Same bytes, split differently between key and value.
  StateChain a, b;
  a.FoldWrite("ab", "c", false);
  a.SealTransaction();
  b.FoldWrite("a", "bc", false);
  b.SealTransaction();
  EXPECT_NE(a.value(), b.value());
}

TEST(Digest64Test, EverySingleBitFlipOfAKibValueChangesTheDigest) {
  std::string value(1024, '\0');
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>(i * 131 + 7);
  }
  const std::uint64_t base = Digest64(value);
  const std::uint64_t base_write = WriteDigest("k", value, false);
  for (std::size_t byte = 0; byte < value.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      value[byte] = static_cast<char>(value[byte] ^ (1 << bit));
      ASSERT_NE(Digest64(value), base) << "byte " << byte << " bit " << bit;
      ASSERT_NE(WriteDigest("k", value, false), base_write)
          << "byte " << byte << " bit " << bit;
      value[byte] = static_cast<char>(value[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(Digest64(value), base);
}

TEST(Digest64Test, LengthsZeroToFortyCoverEveryTailPath) {
  // 0, 1-3, 4-7, 8-31 (words only) and 32+ (stripes, then words and a
  // tail) each take a different path. Every input sits in an exact-size
  // heap buffer so a sanitizer build catches any read past its end.
  std::set<std::uint64_t> zeros;
  for (std::size_t len = 0; len <= 40; ++len) {
    auto buf = std::make_unique<char[]>(len + 1);
    const std::string_view data(buf.get() + 1, len);  // unaligned start
    // All-zero inputs of different lengths differ: the length is mixed in.
    EXPECT_TRUE(zeros.insert(Digest64(data)).second) << "len " << len;
    // Every byte position reaches the digest.
    std::set<std::uint64_t> flips = {Digest64(data)};
    for (std::size_t i = 0; i < len; ++i) {
      buf[1 + i] = 'x';
      EXPECT_TRUE(flips.insert(Digest64(data)).second)
          << "len " << len << " byte " << i;
      buf[1 + i] = '\0';
    }
  }
}

}  // namespace
}  // namespace lazysi
