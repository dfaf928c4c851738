#include "replication/wire.h"

namespace lazysi {
namespace replication {

namespace {

constexpr std::uint8_t kTagStart = 1;
constexpr std::uint8_t kTagCommit = 2;
constexpr std::uint8_t kTagAbort = 3;

}  // namespace

void EncodeRecord(const PropagationRecord& record, std::string* out) {
  if (const auto* s = std::get_if<PropStart>(&record)) {
    out->push_back(static_cast<char>(kTagStart));
    PutVarint(out, s->txn_id);
    PutVarint(out, s->seq);
    PutVarint(out, s->start_ts);
  } else if (const auto* c = std::get_if<PropCommit>(&record)) {
    out->push_back(static_cast<char>(kTagCommit));
    PutVarint(out, c->txn_id);
    PutVarint(out, c->seq);
    PutVarint(out, c->commit_ts);
    PutVarint(out, c->filtered);
    PutVarint(out, c->updates.size());
    for (const auto& w : c->updates) {
      PutString(out, w.key);
      PutString(out, w.value);
      out->push_back(w.deleted ? 1 : 0);
    }
  } else if (const auto* a = std::get_if<PropAbort>(&record)) {
    out->push_back(static_cast<char>(kTagAbort));
    PutVarint(out, a->txn_id);
    PutVarint(out, a->seq);
  }
}

Result<PropagationRecord> DecodeRecord(const std::string& data,
                                       std::size_t* offset) {
  if (*offset >= data.size()) {
    return Status::InvalidArgument("wire: truncated tag");
  }
  const auto tag = static_cast<std::uint8_t>(data[*offset]);
  ++(*offset);
  std::uint64_t txn_id = 0, seq = 0;
  if (!GetVarint(data, offset, &txn_id) || !GetVarint(data, offset, &seq)) {
    return Status::InvalidArgument("wire: truncated record header");
  }
  switch (tag) {
    case kTagStart: {
      std::uint64_t ts = 0;
      if (!GetVarint(data, offset, &ts)) {
        return Status::InvalidArgument("wire: truncated start ts");
      }
      return PropagationRecord(PropStart{txn_id, ts, seq});
    }
    case kTagCommit: {
      std::uint64_t ts = 0, filtered = 0, count = 0;
      if (!GetVarint(data, offset, &ts) ||
          !GetVarint(data, offset, &filtered) ||
          !GetVarint(data, offset, &count)) {
        return Status::InvalidArgument("wire: truncated commit header");
      }
      // Each update needs at least 3 bytes (two length prefixes plus the
      // deleted flag), so a count the remaining bytes cannot possibly hold
      // is malformed input — reject it before reserve() turns a 12-byte
      // frame into a multi-GB allocation.
      if (count > (data.size() - *offset) / 3) {
        return Status::InvalidArgument("wire: update count exceeds payload");
      }
      PropCommit commit{txn_id, ts, {}, seq, filtered};
      commit.updates.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        storage::Write w;
        if (!GetString(data, offset, &w.key) ||
            !GetString(data, offset, &w.value) || *offset >= data.size()) {
          return Status::InvalidArgument("wire: truncated update");
        }
        w.deleted = data[*offset] != 0;
        ++(*offset);
        commit.updates.push_back(std::move(w));
      }
      return PropagationRecord(std::move(commit));
    }
    case kTagAbort:
      return PropagationRecord(PropAbort{txn_id, seq});
    default:
      return Status::InvalidArgument("wire: unknown tag");
  }
}

std::string EncodeBatch(const std::vector<PropagationRecord>& records) {
  std::string out;
  for (const auto& r : records) EncodeRecord(r, &out);
  return out;
}

Result<std::vector<PropagationRecord>> DecodeBatch(const std::string& data) {
  std::vector<PropagationRecord> out;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto record = DecodeRecord(data, &offset);
    if (!record.ok()) return record.status();
    out.push_back(std::move(record).value());
  }
  return out;
}

}  // namespace replication
}  // namespace lazysi
