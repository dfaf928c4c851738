#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace lazysi {
namespace {

using crc32_internal::TableCrc32c;

/// The dispatching entry point, the table path and (when the CPU has
/// SSE4.2) the hardware path, so every known-answer case covers all three.
using CrcFn = std::uint32_t (*)(std::string_view, std::uint32_t);

void ExpectKnownVectors(CrcFn crc) {
  // Standard CRC-32C check value.
  EXPECT_EQ(crc("123456789", 0), 0xe3069283u);
  EXPECT_EQ(crc("", 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  EXPECT_EQ(crc(std::string(32, '\0'), 0), 0x8a9136aau);
  // 32 0xff bytes.
  EXPECT_EQ(crc(std::string(32, '\xff'), 0), 0x62a8ab43u);
}

TEST(Crc32Test, KnownVectors) {
  ExpectKnownVectors([](std::string_view data, std::uint32_t seed) {
    return Crc32c(data, seed);
  });
}

TEST(Crc32Test, KnownVectorsTablePath) { ExpectKnownVectors(&TableCrc32c); }

#if defined(__x86_64__)
TEST(Crc32Test, KnownVectorsHardwarePath) {
  if (!crc32_internal::HardwareCrc32cAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  ExpectKnownVectors(&crc32_internal::HardwareCrc32c);
}

TEST(Crc32Test, HardwareMatchesTableOnEveryLengthOffsetAndSeed) {
  if (!crc32_internal::HardwareCrc32cAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  std::mt19937_64 rng(0xc5c32);
  std::string buf(4096 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  // Every length 0..4096 at every start offset 0..7: covers the 8-byte
  // main loop, every tail length and every misalignment.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::string_view data(buf.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(crc32_internal::HardwareCrc32c(data, seed),
                TableCrc32c(data, seed))
          << "offset=" << offset << " len=" << len << " seed=" << seed;
    }
  }
}

TEST(Crc32Test, HardwareChainsOverRandomSplitsLikeTable) {
  if (!crc32_internal::HardwareCrc32cAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 500; ++round) {
    std::string data(rng() % 4097, '\0');
    for (char& c : data) c = static_cast<char>(rng());
    const auto seed = static_cast<std::uint32_t>(rng());
    const auto whole = TableCrc32c(data, seed);
    // Chain the hardware path over random chunks, each seeded with the
    // running result; it must land on the table path's one-shot value.
    std::uint32_t running = seed;
    std::string_view rest(data);
    while (!rest.empty()) {
      const std::size_t take = 1 + rng() % rest.size();
      running = crc32_internal::HardwareCrc32c(rest.substr(0, take), running);
      rest.remove_prefix(take);
    }
    ASSERT_EQ(running, whole) << "round=" << round << " len=" << data.size();
  }
}
#endif

TEST(Crc32Test, SeedChainsChunks) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const auto whole = Crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const auto first = Crc32c(std::string_view(data).substr(0, split));
    EXPECT_EQ(Crc32c(std::string_view(data).substr(split), first), whole)
        << "split=" << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  const std::string data = "frame payload bytes";
  const auto good = Crc32c(data);
  for (std::size_t pos = 0; pos < data.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = data;
      bad[pos] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(bad), good) << "pos=" << pos << " bit=" << bit;
    }
  }
}

TEST(Crc32Test, TrailerRoundTrip) {
  std::string frame = "payload";
  const auto crc = Crc32c(frame);
  AppendCrc32(&frame, crc);
  ASSERT_EQ(frame.size(), 7u + 4u);
  EXPECT_EQ(ReadCrc32(frame, 7), crc);
  EXPECT_EQ(Crc32c(std::string_view(frame).substr(0, 7)), crc);
}

}  // namespace
}  // namespace lazysi
