// Fuzz coverage for the propagation wire codec. DecodeRecord parses bytes
// that crossed a socket — in the fault suites, one whose frames are
// corrupted on purpose — so the codec sits on a trust boundary. Seeded
// mutations of valid encodings plus a directed corpus for the historic
// decoder bugs.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>

#include "common/random.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "net/framed_socket.h"
#include "replication/tcp_replication.h"
#include "replication/wire.h"

namespace lazysi {
namespace replication {
namespace {

std::vector<PropagationRecord> RandomBatch(Rng* rng, int n) {
  std::vector<PropagationRecord> batch;
  for (int i = 0; i < n; ++i) {
    switch (rng->Next(3)) {
      case 0:
        batch.push_back(PropStart{rng->Next(1 << 20), rng->Next(1 << 30),
                                  rng->Next(1 << 24)});
        break;
      case 1: {
        PropCommit c{rng->Next(1 << 20), rng->Next(1 << 30), {},
                     rng->Next(1 << 24), rng->Next(8)};
        const auto updates = rng->Next(4);
        for (std::uint64_t u = 0; u < updates; ++u) {
          c.updates.push_back(storage::Write{
              "k" + std::to_string(rng->Next(64)),
              std::string(rng->Next(32), 'x'), rng->Bernoulli(0.25)});
        }
        batch.push_back(std::move(c));
        break;
      }
      default:
        batch.push_back(PropAbort{rng->Next(1 << 20), rng->Next(1 << 24)});
    }
  }
  return batch;
}

TEST(WireFuzzTest, MutatedValidBatchesNeverCrashOrOverread) {
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string base = EncodeBatch(RandomBatch(&rng, 1 + rng.Next(6)));
    if (base.empty()) continue;
    // A handful of random byte flips / truncations / insertions per trial.
    std::string mutated = base;
    const auto mutations = 1 + rng.Next(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rng.Next(3)) {
        case 0:  // flip
          mutated[rng.Next(mutated.size())] ^=
              static_cast<char>(1 + rng.Next(255));
          break;
        case 1:  // truncate
          mutated.resize(rng.Next(mutated.size() + 1));
          break;
        default:  // insert
          mutated.insert(rng.Next(mutated.size() + 1), 1,
                         static_cast<char>(rng.Next(256)));
      }
      if (mutated.empty()) break;
    }
    std::size_t offset = 0;
    while (offset < mutated.size()) {
      const std::size_t before = offset;
      auto r = DecodeRecord(mutated, &offset);
      ASSERT_LE(offset, mutated.size());
      if (!r.ok()) break;
      // A successful decode must consume at least the tag byte.
      ASSERT_GT(offset, before);
    }
    (void)DecodeBatch(mutated);
  }
}

TEST(WireFuzzTest, RoundTripIsCanonical) {
  // decode(encode(x)) == x, and re-encoding the decoded records reproduces
  // the input bytes exactly — one accepted encoding per batch.
  Rng rng(1717);
  for (int trial = 0; trial < 200; ++trial) {
    const auto batch = RandomBatch(&rng, 1 + rng.Next(8));
    const std::string encoded = EncodeBatch(batch);
    auto decoded = DecodeBatch(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->size(), batch.size());
    EXPECT_EQ(EncodeBatch(*decoded), encoded);
  }
}

// --- directed corpus: one entry per historic decoder bug ---

TEST(WireFuzzTest, HugeStringLengthRejectedWithoutOverflow) {
  // Commit frame whose key length claims ~2^64: the old bounds check
  // computed `*offset + len` which wrapped around and passed, sending
  // std::string::assign off the end of the buffer.
  std::string buf;
  buf.push_back(2);          // kTagCommit
  PutVarint(&buf, 1);        // txn id
  PutVarint(&buf, 7);        // stream seq
  PutVarint(&buf, 10);       // commit ts
  PutVarint(&buf, 0);        // filtered count
  PutVarint(&buf, 1);        // one update
  PutVarint(&buf, std::numeric_limits<std::uint64_t>::max() - 2);  // key len
  buf.append("abc");
  std::size_t offset = 0;
  auto r = DecodeRecord(buf, &offset);
  EXPECT_FALSE(r.ok());
  EXPECT_LE(offset, buf.size());
}

TEST(WireFuzzTest, HugeUpdateCountRejectedBeforeAllocation) {
  // A ~14-byte commit frame claiming 2^32 updates: reserve(count) used to
  // attempt a multi-GB allocation before the per-update reads could fail.
  std::string buf;
  buf.push_back(2);                   // kTagCommit
  PutVarint(&buf, 1);                 // txn id
  PutVarint(&buf, 7);                 // stream seq
  PutVarint(&buf, 10);                // commit ts
  PutVarint(&buf, 0);                 // filtered count
  PutVarint(&buf, std::uint64_t{1} << 32);  // update count
  std::size_t offset = 0;
  auto r = DecodeRecord(buf, &offset);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("update count"), std::string::npos)
      << r.status();
}

TEST(WireFuzzTest, OverlongAndOverflowingVarintsRejected) {
  // 10 continuation bytes: an 11-byte varint can never be needed for a
  // 64-bit value.
  std::string overlong(10, '\x80');
  overlong.push_back('\x01');
  std::size_t offset = 0;
  std::uint64_t v = 0;
  EXPECT_FALSE(GetVarint(overlong, &offset, &v));

  // 10 bytes, but the last contributes bits beyond the 64th: the old
  // decoder silently shifted them out, so two different encodings decoded
  // to the same value.
  std::string overflow(9, '\xff');
  overflow.push_back('\x02');  // bit at position 64
  offset = 0;
  EXPECT_FALSE(GetVarint(overflow, &offset, &v));

  // The maximal legal encoding still decodes: 2^64 - 1 is nine 0xff bytes
  // and a final 0x01.
  std::string max_legal(9, '\xff');
  max_legal.push_back('\x01');
  offset = 0;
  ASSERT_TRUE(GetVarint(max_legal, &offset, &v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(offset, max_legal.size());
}

TEST(WireFuzzTest, TruncatedHugeLengthStopsAtBufferEnd) {
  // Fuzz variant of the overflow case: every prefix of a huge-length frame
  // must fail cleanly too.
  std::string buf;
  buf.push_back(2);
  PutVarint(&buf, 7);
  PutVarint(&buf, 9);
  PutVarint(&buf, 1);
  PutVarint(&buf, 0);
  PutVarint(&buf, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    std::size_t offset = 0;
    EXPECT_FALSE(DecodeRecord(buf.substr(0, cut), &offset).ok())
        << "cut=" << cut;
  }
}

// --- TCP length-prefixed framing corpus ---
//
// Every TCP frame carries a 4-byte length prefix; TcpFramer reassembles
// frames from arbitrary socket fragmentation. Same trust boundary as the
// record codec: the prefix crosses the wire unprotected (the CRC covers only
// the payload), so a flipped length bit must never crash, over-allocate, or
// desynchronize silently.

TEST(WireFuzzTest, TcpFramingSurvivesRandomFragmentation) {
  Rng rng(9090);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n_frames = 1 + rng.Next(8);
    std::vector<std::string> payloads;
    std::string wire;
    for (std::uint64_t f = 0; f < n_frames; ++f) {
      std::string p(rng.Next(512), '\0');
      for (auto& c : p) c = static_cast<char>(rng.Next(256));
      net::AppendTcpFrame(&wire, p);
      payloads.push_back(std::move(p));
    }
    net::TcpFramer framer;
    std::vector<std::string> out;
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.Next(64), wire.size() - offset);
      ASSERT_TRUE(
          framer.Feed(std::string_view(wire).substr(offset, chunk)));
      offset += chunk;
      while (auto frame = framer.Next()) out.push_back(std::move(*frame));
    }
    ASSERT_EQ(out, payloads);
    EXPECT_EQ(framer.buffered(), 0u);
  }
}

TEST(WireFuzzTest, TcpFramingTruncatedPrefixNeverYieldsAFrame) {
  // A connection that dies mid-prefix (the kill -9 case) must leave the
  // framer waiting, not emitting a garbage frame.
  std::string wire;
  net::AppendTcpFrame(&wire, "payload");
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    net::TcpFramer framer;
    ASSERT_TRUE(framer.Feed(std::string_view(wire).substr(0, cut)));
    EXPECT_FALSE(framer.Next().has_value()) << "cut=" << cut;
    EXPECT_FALSE(framer.poisoned()) << "cut=" << cut;
  }
}

TEST(WireFuzzTest, TcpFramingOversizedLengthPoisonsWithoutAllocating) {
  // Mutate each byte of a legal prefix toward "huge": any length above the
  // clamp must poison the stream immediately — no waiting for 4 GiB of
  // payload that will never come, no allocation proportional to the claim.
  Rng rng(4321);
  for (int trial = 0; trial < 100; ++trial) {
    std::string wire;
    net::AppendTcpFrame(&wire, "tiny");
    // Force the top byte high: lengths >= 2^24 always exceed the clamp.
    wire[3] = static_cast<char>(1 + rng.Next(255));
    net::TcpFramer framer;
    framer.Feed(wire);
    EXPECT_FALSE(framer.Next().has_value());
    EXPECT_TRUE(framer.poisoned());
    // Poisoned streams reject further bytes: the caller must drop the
    // connection, there is no resynchronization point.
    EXPECT_FALSE(framer.Feed("x"));
  }
}

TEST(WireFuzzTest, TcpFramingMidFrameCloseLeavesCleanRemainder) {
  // Close after a complete frame plus part of the next: the complete frame
  // is delivered, the partial one is reported as buffered residue (the
  // transport counts it as lost in flight), and nothing crashes.
  std::string wire;
  net::AppendTcpFrame(&wire, "complete");
  std::string second;
  net::AppendTcpFrame(&second, std::string(100, 'z'));
  for (std::size_t cut = 1; cut < second.size(); ++cut) {
    net::TcpFramer framer;
    ASSERT_TRUE(framer.Feed(wire));
    ASSERT_TRUE(framer.Feed(std::string_view(second).substr(0, cut)));
    auto first = framer.Next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, "complete");
    EXPECT_FALSE(framer.Next().has_value());
    EXPECT_EQ(framer.buffered(), cut);
  }
}

// --- BATCH frame corpus ---
//
// The batched propagation wire coalesces records into 'B' frames: tag +
// varint(count) + count encoded records. The count and every record cross
// the wire unverified, so the decoder sits on the same trust boundary as
// DecodeRecord itself: a lying count or a truncated record must reject
// cleanly, never over-read, and never allocate proportional to the claim.

TEST(WireFuzzTest, BatchFrameRoundTripsThroughRandomFragmentation) {
  // End-to-end over the real reassembly path: batch payloads wrapped in
  // TCP length prefixes, fed to the framer in random fragments, decoded by
  // the receiver's batch decoder.
  Rng rng(2026);
  for (int trial = 0; trial < 100; ++trial) {
    const auto n_frames = 1 + rng.Next(5);
    std::vector<std::string> payloads;
    std::string wire;
    for (std::uint64_t f = 0; f < n_frames; ++f) {
      payloads.push_back(
          EncodeBatchFramePayload(RandomBatch(&rng, 1 + rng.Next(8))));
      net::AppendTcpFrame(&wire, payloads.back());
    }
    net::TcpFramer framer;
    std::vector<std::string> out;
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.Next(96), wire.size() - offset);
      ASSERT_TRUE(framer.Feed(std::string_view(wire).substr(offset, chunk)));
      offset += chunk;
      while (auto frame = framer.Next()) out.push_back(std::move(*frame));
    }
    ASSERT_EQ(out, payloads);
    for (const auto& frame : out) {
      std::size_t off = 0;
      std::vector<PropagationRecord> records;
      ASSERT_TRUE(DecodeBatchFramePayload(frame, &off, &records));
      ASSERT_EQ(off, frame.size());
      // Canonical codec: re-encoding the decoded records reproduces the
      // frame exactly.
      EXPECT_EQ(EncodeBatchFramePayload(records), frame);
    }
  }
}

TEST(WireFuzzTest, BatchFrameMutationsNeverCrashOrOverread) {
  Rng rng(3131);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated =
        EncodeBatchFramePayload(RandomBatch(&rng, 1 + rng.Next(6)));
    const auto mutations = 1 + rng.Next(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rng.Next(3)) {
        case 0:
          mutated[rng.Next(mutated.size())] ^=
              static_cast<char>(1 + rng.Next(255));
          break;
        case 1:
          mutated.resize(rng.Next(mutated.size() + 1));
          break;
        default:
          mutated.insert(rng.Next(mutated.size() + 1), 1,
                         static_cast<char>(rng.Next(256)));
      }
      if (mutated.empty()) break;
    }
    std::size_t offset = 0;
    std::vector<PropagationRecord> records;
    (void)DecodeBatchFramePayload(mutated, &offset, &records);
    ASSERT_LE(offset, mutated.size());
  }
}

TEST(WireFuzzTest, BatchFrameEveryTruncationRejects) {
  // count says N records; any byte shaved off the end must fail the whole
  // frame — the receiver drops the connection and replays, it never applies
  // a half-decoded batch as if it were complete.
  Rng rng(5150);
  const std::string payload = EncodeBatchFramePayload(RandomBatch(&rng, 5));
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::size_t offset = 0;
    std::vector<PropagationRecord> records;
    EXPECT_FALSE(
        DecodeBatchFramePayload(payload.substr(0, cut), &offset, &records))
        << "cut=" << cut;
    EXPECT_LE(offset, cut) << "cut=" << cut;
  }
  std::size_t offset = 0;
  std::vector<PropagationRecord> records;
  EXPECT_TRUE(DecodeBatchFramePayload(payload, &offset, &records));
  EXPECT_EQ(records.size(), 5u);
}

TEST(WireFuzzTest, BatchFrameHugeCountRejectedWithoutAllocation) {
  // A ~15-byte frame claiming 2^40 records: the decoder must fail at the
  // first missing record, not reserve memory for the claim.
  Rng rng(6001);
  std::string payload(1, kReplBatchTag);
  PutVarint(&payload, std::uint64_t{1} << 40);
  EncodeRecord(RandomBatch(&rng, 1)[0], &payload);
  std::size_t offset = 0;
  std::vector<PropagationRecord> records;
  EXPECT_FALSE(DecodeBatchFramePayload(payload, &offset, &records));
  EXPECT_LE(records.size(), 1u);
}

TEST(WireFuzzTest, BatchFrameTrailingGarbageRejected) {
  // Bytes after the declared count mean the stream is desynchronized; a
  // decoder that silently ignored them would mask framing bugs forever.
  Rng rng(7002);
  std::string payload = EncodeBatchFramePayload(RandomBatch(&rng, 3));
  payload.push_back('\x00');
  std::size_t offset = 0;
  std::vector<PropagationRecord> records;
  EXPECT_FALSE(DecodeBatchFramePayload(payload, &offset, &records));
}

TEST(WireFuzzTest, BatchFrameAnySingleFlippedByteIsRejected) {
  // The codec alone accepts many damaged frames — a flipped byte inside a
  // key or value still decodes — so the receiver must never see one. Flip
  // each byte of a sealed BATCH frame on the wire, length prefix and CRC
  // trailer included: the framer either yields nothing or a frame that
  // fails its CRC.
  Rng rng(9004);
  std::string payload = EncodeBatchFramePayload(RandomBatch(&rng, 6));
  SealReplFrame(&payload);
  std::string wire;
  net::AppendTcpFrame(&wire, payload);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::string damaged = wire;
    damaged[i] ^= static_cast<char>(1 + rng.Next(255));
    net::TcpFramer framer;
    framer.Feed(damaged);
    auto frame = framer.Next();
    if (frame.has_value()) {
      EXPECT_FALSE(UnsealReplFrame(&*frame)) << "flipped byte " << i;
    }
  }
  std::string intact = payload;
  ASSERT_TRUE(UnsealReplFrame(&intact));
  std::size_t offset = 0;
  std::vector<PropagationRecord> records;
  EXPECT_TRUE(DecodeBatchFramePayload(intact, &offset, &records));
  EXPECT_EQ(records.size(), 6u);
}

using Rows = std::map<std::string, std::string>;

Rows RandomRows(Rng* rng, int n) {
  Rows rows;
  for (int i = 0; i < n; ++i) {
    rows.emplace("k" + std::to_string(i) + "/" +
                     std::to_string(rng->Next(1 << 16)),
                 std::string(rng->Next(48), 'v'));
  }
  return rows;
}

/// A SNAPSHOT frame payload at `as_of` carrying `rows` in one chunk, encoded
/// by the snapshot chunk encoder the listener streams with.
std::string SnapshotPayload(Timestamp as_of, const Rows& rows) {
  engine::DatabaseOptions options;
  options.store_shards = 1;  // one shard: one chunk
  engine::Database db(options);
  for (const auto& [key, value] : rows) EXPECT_TRUE(db.Put(key, value).ok());
  const engine::Database::CheckpointPin pin = db.PinCheckpoint();
  std::string payload(1, kReplSnapshotTag);
  PutVarint(&payload, as_of);
  const auto encoded = engine::EncodeSnapshotChunks(
      &db, pin, SIZE_MAX, nullptr, [&payload](std::string chunk) {
        payload += chunk;
        return Status::OK();
      });
  EXPECT_TRUE(encoded.ok());
  return payload;
}

/// Decodes a SNAPSHOT frame payload into *rows.
bool DecodeSnapshot(const std::string& payload, std::size_t* offset,
                    Timestamp* as_of, Rows* rows) {
  return DecodeSnapshotFramePayload(
      payload, offset, as_of,
      [rows](std::string_view key, std::string_view value) {
        (*rows)[std::string(key)] = std::string(value);
      });
}

TEST(WireFuzzTest, SnapshotFrameRoundTrips) {
  Rng rng(9101);
  const Rows rows = RandomRows(&rng, 20);
  const std::string payload = SnapshotPayload(77, rows);
  std::size_t offset = 0;
  Timestamp as_of = 0;
  Rows decoded;
  ASSERT_TRUE(DecodeSnapshot(payload, &offset, &as_of, &decoded));
  EXPECT_EQ(as_of, 77u);
  EXPECT_EQ(decoded, rows);
  // Every proper prefix is rejected, and so are trailing bytes.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::size_t off = 0;
    Rows out;
    EXPECT_FALSE(DecodeSnapshot(payload.substr(0, cut), &off, &as_of, &out))
        << "prefix " << cut;
    EXPECT_LE(off, cut);
  }
  std::size_t off = 0;
  Rows out;
  EXPECT_FALSE(DecodeSnapshot(payload + "x", &off, &as_of, &out));
}

TEST(WireFuzzTest, SnapshotFrameAnySingleFlippedByteIsRejected) {
  // A flipped byte inside a snapshot row still decodes, and the receiver
  // would install the damaged value: the CRC must catch every one. Flip
  // each byte of a sealed SNAPSHOT frame on the wire, length prefix and
  // trailer included.
  Rng rng(9102);
  std::string payload = SnapshotPayload(1234, RandomRows(&rng, 8));
  SealReplFrame(&payload);
  std::string wire;
  net::AppendTcpFrame(&wire, payload);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::string damaged = wire;
    damaged[i] ^= static_cast<char>(1 + rng.Next(255));
    net::TcpFramer framer;
    framer.Feed(damaged);
    auto frame = framer.Next();
    if (frame.has_value()) {
      EXPECT_FALSE(UnsealReplFrame(&*frame)) << "flipped byte " << i;
    }
  }
  std::string intact = payload;
  ASSERT_TRUE(UnsealReplFrame(&intact));
  std::size_t offset = 0;
  Timestamp as_of = 0;
  Rows rows;
  EXPECT_TRUE(DecodeSnapshot(intact, &offset, &as_of, &rows));
  EXPECT_EQ(rows.size(), 8u);
}

TEST(WireFuzzTest, SnapshotFrameMutationsNeverCrashOrOverread) {
  Rng rng(9103);
  const std::string payload = SnapshotPayload(5, RandomRows(&rng, 12));
  for (int round = 0; round < 2000; ++round) {
    std::string damaged = payload;
    const int flips = 1 + static_cast<int>(rng.Next(4));
    for (int f = 0; f < flips; ++f) {
      damaged[rng.Next(damaged.size())] ^=
          static_cast<char>(1 + rng.Next(255));
    }
    std::size_t offset = 0;
    Timestamp as_of = 0;
    Rows rows;
    if (!DecodeSnapshot(damaged, &offset, &as_of, &rows)) {
      EXPECT_LE(offset, damaged.size());
    }
  }
}

TEST(WireFuzzTest, BatchFrameOversizedLengthPrefixPoisons) {
  // Same clamp as every other frame: a corrupted length prefix on a BATCH
  // frame poisons the framer before any payload is buffered.
  Rng rng(8003);
  std::string wire;
  net::AppendTcpFrame(&wire, EncodeBatchFramePayload(RandomBatch(&rng, 4)));
  wire[3] = static_cast<char>(0x7f);  // claimed length >= 2^23
  net::TcpFramer framer;
  framer.Feed(wire);
  EXPECT_FALSE(framer.Next().has_value());
  EXPECT_TRUE(framer.poisoned());
  EXPECT_FALSE(framer.Feed("x"));
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
