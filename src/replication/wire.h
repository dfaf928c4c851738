#ifndef LAZYSI_REPLICATION_WIRE_H_
#define LAZYSI_REPLICATION_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
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

/// The varint and length-prefixed string codec (common/codec.h), exposed
/// here for the replication stream's frame headers and snapshot frames and
/// for the client protocol.
using codec::GetString;
using codec::GetVarint;
using codec::PutString;
using codec::PutVarint;

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
