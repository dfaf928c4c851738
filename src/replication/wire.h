#ifndef LAZYSI_REPLICATION_WIRE_H_
#define LAZYSI_REPLICATION_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "replication/messages.h"

namespace lazysi {
namespace replication {

/// Wire codec for propagation records. The in-process system hands records
/// between threads directly; a networked deployment ships them through this
/// encoding instead (length-free, self-delimiting, same varint scheme as the
/// logical log). The paper assumes reliable FIFO delivery ("propagated
/// messages are not lost or reordered", Section 3.2), i.e. one TCP stream
/// per secondary carries EncodeRecord outputs back-to-back.

/// Appends `v` to `out` as a base-128 varint (same scheme as the logical
/// log). Exposed for the replication stream's frame headers.
void PutVarint(std::string* out, std::uint64_t v);

/// Decodes a varint at *offset, advancing it. Rejects encodings longer than
/// 10 bytes and encodings whose high bits overflow 64 bits, so every value
/// has exactly one accepted encoding.
bool GetVarint(const std::string& data, std::size_t* offset,
               std::uint64_t* out);

/// Appends `s` as varint(length) + bytes. Exposed for the snapshot frames of
/// the replication stream.
void PutString(std::string* out, std::string_view s);

/// Decodes a string written by PutString at *offset, advancing it. False on
/// a malformed length or one that runs past the end of `data`.
bool GetString(const std::string& data, std::size_t* offset,
               std::string* out);

/// GetString into a fresh shared value: the one copy of a decoded value's
/// bytes that the receiving site keeps.
bool GetString(const std::string& data, std::size_t* offset,
               storage::Value* out);

/// Appends the encoding of `record` to `out`.
void EncodeRecord(const PropagationRecord& record, std::string* out);

/// Decodes one record from `data` at *offset, advancing it.
Result<PropagationRecord> DecodeRecord(const std::string& data,
                                       std::size_t* offset);

/// Encodes a batch (one propagation cycle) of records.
std::string EncodeBatch(const std::vector<PropagationRecord>& records);

/// Decodes a full batch; fails on any trailing garbage.
Result<std::vector<PropagationRecord>> DecodeBatch(const std::string& data);

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_WIRE_H_
