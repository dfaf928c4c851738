#ifndef LAZYSI_STORAGE_WRITE_SET_H_
#define LAZYSI_STORAGE_WRITE_SET_H_

#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "storage/value.h"

namespace lazysi {
namespace storage {

/// One buffered write of a transaction.
struct Write {
  std::string key;
  Value value;  // empty when deleted
  bool deleted = false;
  /// WriteDigest(key, value, deleted). WriteSet fills it in as the write is
  /// buffered — on the request or decode thread — so the state chain folds
  /// it under the commit-ordering lock without reading the value again.
  /// Writes built elsewhere (log and wire records) leave it 0.
  std::uint64_t digest = 0;

  /// Compares the write itself; the digest is derived from it.
  bool operator==(const Write& other) const {
    return key == other.key && value == other.value &&
           deleted == other.deleted;
  }
};

/// A transaction's buffered writes, in application order with last-write-wins
/// per key. Under SI a transaction must see its own updates (Section 2.1), so
/// reads consult the write set before the snapshot.
class WriteSet {
 public:
  /// Records a put; overwrites any earlier buffered write of the same key.
  /// Passing a std::string copies its bytes into a new Value; passing a
  /// Value shares its buffer.
  void Put(const std::string& key, Value value) {
    const std::uint64_t digest = WriteDigest(key, value, /*deleted=*/false);
    writes_[key] = Write{key, std::move(value), /*deleted=*/false, digest};
  }

  /// Records a delete.
  void Delete(const std::string& key) {
    writes_[key] =
        Write{key, Value(), /*deleted=*/true, WriteDigest(key, {}, true)};
  }

  /// Returns the buffered write for `key`, or nullptr.
  const Write* Find(const std::string& key) const {
    auto it = writes_.find(key);
    return it == writes_.end() ? nullptr : &it->second;
  }

  bool empty() const { return writes_.empty(); }
  std::size_t size() const { return writes_.size(); }
  void Clear() { writes_.clear(); }

  /// Key-ordered view (deterministic iteration is what makes state-hash
  /// chains comparable across sites).
  const std::map<std::string, Write>& entries() const { return writes_; }

  /// Flattened copy, key-ordered (values are shared, not copied).
  std::vector<Write> ToVector() const {
    std::vector<Write> out;
    out.reserve(writes_.size());
    for (const auto& [k, w] : writes_) out.push_back(w);
    return out;
  }

  /// True if the two write sets update at least one common key — the paper's
  /// write-write conflict test (Section 2.4: ws_i ∩ ws_j != ∅).
  bool Intersects(const WriteSet& other) const {
    const WriteSet* small = this;
    const WriteSet* big = &other;
    if (small->size() > big->size()) std::swap(small, big);
    for (const auto& [k, w] : small->writes_) {
      if (big->writes_.count(k)) return true;
    }
    return false;
  }

 private:
  std::map<std::string, Write> writes_;
};

}  // namespace storage
}  // namespace lazysi

#endif  // LAZYSI_STORAGE_WRITE_SET_H_
