#ifndef LAZYSI_STORAGE_VALUE_H_
#define LAZYSI_STORAGE_VALUE_H_

#include <atomic>
#include <compare>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace lazysi {
namespace storage {

/// An immutable, reference-counted byte string: the one copy of a written
/// value that a site holds. A single allocation carries the count, the
/// length and the bytes; copying a Value bumps the count and never copies
/// bytes. A write set, the logical log, the store's version chain, the
/// propagator's update list and every replication sink's queue hold handles
/// to the same buffer, which is freed when the last of them lets go.
///
/// Bytes are copied only at the edges: in once, when a value is built from
/// a request, a frame or a file (the string_view constructor), and out once,
/// when it is encoded into a reply, a frame, a WAL buffer or a checkpoint.
/// The empty value needs no allocation. Handles are safe to copy and drop
/// from any thread; the bytes never change after construction.
class Value {
 public:
  Value() noexcept = default;
  /// Copies `bytes` into a fresh buffer. Implicit, so a std::string, a
  /// string literal or a string_view can be passed wherever a Value is
  /// taken; that call is where the bytes come in.
  Value(std::string_view bytes) : rep_(Allocate(bytes)) {}
  Value(const std::string& bytes) : Value(std::string_view(bytes)) {}
  Value(const char* bytes) : Value(std::string_view(bytes)) {}

  Value(const Value& other) noexcept : rep_(other.rep_) { Ref(); }
  Value(Value&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Value& operator=(const Value& other) noexcept {
    Value(other).swap(*this);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value(std::move(other)).swap(*this);
    return *this;
  }
  ~Value() { Unref(); }

  void swap(Value& other) noexcept { std::swap(rep_, other.rep_); }

  const char* data() const noexcept {
    return rep_ == nullptr ? "" : reinterpret_cast<const char*>(rep_ + 1);
  }
  std::size_t size() const noexcept {
    return rep_ == nullptr ? 0 : rep_->size;
  }
  bool empty() const noexcept { return size() == 0; }

  std::string_view view() const noexcept { return {data(), size()}; }
  operator std::string_view() const noexcept { return view(); }
  /// A private copy of the bytes (the one conversion that copies).
  std::string ToString() const { return std::string(view()); }

  /// True when both handles hold the same buffer.
  bool SharesBufferWith(const Value& other) const noexcept {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  // One overload per operand type, so no comparison needs a conversion that
  // another overload could match equally well.
  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.rep_ == b.rep_ || a.view() == b.view();
  }
  friend bool operator==(const Value& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend bool operator==(const Value& a, const std::string& b) noexcept {
    return a.view() == b;
  }
  friend bool operator==(const Value& a, const char* b) noexcept {
    return a.view() == b;
  }
  /// Byte-wise order, as std::string orders (sorted scan results).
  friend std::strong_ordering operator<=>(const Value& a,
                                          const Value& b) noexcept {
    return a.view() <=> b.view();
  }
  friend std::ostream& operator<<(std::ostream& os, const Value& v) {
    return os << v.view();
  }

 private:
  /// Header of the buffer; the bytes follow it in the same allocation.
  /// 8 bytes, so a 1 KiB value costs what a 1 KiB std::string's buffer does.
  struct Rep {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
  };
  static_assert(sizeof(Rep) == 8);

  static Rep* Allocate(std::string_view bytes) {
    if (bytes.empty()) return nullptr;
    if (bytes.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("storage::Value: value of 4 GiB or more");
    }
    void* mem = ::operator new(sizeof(Rep) + bytes.size());
    Rep* rep = new (mem) Rep{{1}, static_cast<std::uint32_t>(bytes.size())};
    std::memcpy(reinterpret_cast<char*>(rep + 1), bytes.data(),
                bytes.size());
    return rep;
  }

  void Ref() noexcept {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Unref() noexcept {
    // Release on every drop, acquire on the last: whoever frees the buffer
    // has seen every other holder's reads of it finish.
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      rep_->~Rep();
      ::operator delete(rep_);
    }
  }

  Rep* rep_ = nullptr;
};

}  // namespace storage
}  // namespace lazysi

#endif  // LAZYSI_STORAGE_VALUE_H_
