#ifndef LAZYSI_COMMON_BACKOFF_H_
#define LAZYSI_COMMON_BACKOFF_H_

#include <algorithm>
#include <chrono>

#include "common/random.h"

namespace lazysi {

/// Exponential backoff between retries, clamped to [initial, max]. The
/// replication receiver uses this for its redial timer: each failed dial
/// doubles the wait, and a completed handshake resets it, so a flaky but
/// alive primary is redialed quickly while a dead one is not flooded.
class ExponentialBackoff {
 public:
  ExponentialBackoff(std::chrono::milliseconds initial,
                     std::chrono::milliseconds max)
      : initial_(initial.count() > 0 ? initial : std::chrono::milliseconds(1)),
        max_(max > initial_ ? max : initial_),
        current_(initial_) {}

  /// The delay to wait before the next retry; doubles the stored delay for
  /// the retry after that (clamped to the maximum).
  std::chrono::milliseconds Next() {
    const auto delay = current_;
    current_ = std::min(max_, current_ * 2);
    return delay;
  }

  /// Delay the next Next() call would return, without advancing.
  std::chrono::milliseconds current() const { return current_; }

  /// Back to the initial delay (call on success/progress).
  void Reset() { current_ = initial_; }

 private:
  std::chrono::milliseconds initial_;
  std::chrono::milliseconds max_;
  std::chrono::milliseconds current_;
};

/// Randomizes a delay to `delay * (1 ± fraction)` (clamped to ≥ 1ms).
/// Fleet-wide retry loops (replication re-dial, client reconnect) jitter
/// their backoff so a primary outage doesn't synchronize every secondary
/// into lock-step reconnect storms when it returns.
inline std::chrono::milliseconds Jittered(std::chrono::milliseconds delay,
                                          double fraction, Rng* rng) {
  if (fraction <= 0.0 || rng == nullptr) return delay;
  fraction = std::min(fraction, 1.0);
  const double scale = rng->Uniform(1.0 - fraction, 1.0 + fraction);
  const auto jittered = std::chrono::milliseconds(
      static_cast<std::int64_t>(static_cast<double>(delay.count()) * scale));
  return std::max(jittered, std::chrono::milliseconds(1));
}

}  // namespace lazysi

#endif  // LAZYSI_COMMON_BACKOFF_H_
