#ifndef LAZYSI_REPLICATION_FAULT_SHIM_H_
#define LAZYSI_REPLICATION_FAULT_SHIM_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/random.h"

namespace lazysi {
namespace replication {

/// Fault rates of an injected replication stream, each applied
/// independently per frame. All zero (the default) models the paper's
/// assumed network: "propagated messages are not lost or reordered"
/// (Section 3.2).
struct FaultProfile {
  /// P(frame dropped). A TCP stream cannot lose one frame and deliver the
  /// next, so a drop cuts the connection.
  double drop_probability = 0.0;
  /// P(frame written twice back to back).
  double duplicate_probability = 0.0;
  /// P(one random byte of the sealed frame is flipped before the write).
  double corrupt_probability = 0.0;
  /// P(the connection is severed instead of the frame being written).
  double disconnect_probability = 0.0;

  bool any() const {
    return drop_probability > 0 || duplicate_probability > 0 ||
           corrupt_probability > 0 || disconnect_probability > 0;
  }
};

/// Violates Section 3.2's reliability assumption on purpose, one outgoing
/// frame at a time, from a seeded RNG so every failure run replays its fault
/// schedule exactly. The replication listener runs each sealed frame (payload
/// + CRC trailer) through Apply before writing it; the stream's own repair
/// machinery — CRC rejection, seq dedup, HELLO/WELCOME resync — must make the
/// faults invisible. Thread-safe: one shim serves every connection of a
/// listener.
class FaultShim {
 public:
  struct Counters {
    std::uint64_t dropped = 0;  // frames lost, including disconnects
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t disconnects = 0;
  };

  FaultShim(FaultProfile faults, std::uint64_t seed)
      : faults_(faults), rng_(seed) {}

  /// Decides the fate of one sealed frame, possibly flipping one of its
  /// bytes. Returns how many copies to write: 0 = cut the connection
  /// instead, 1 = write it, 2 = write it twice.
  int Apply(std::string* frame) {
    std::lock_guard<std::mutex> lock(mu_);
    if (faults_.disconnect_probability > 0 &&
        rng_.Bernoulli(faults_.disconnect_probability)) {
      ++counters_.disconnects;
      ++counters_.dropped;
      return 0;
    }
    if (faults_.drop_probability > 0 &&
        rng_.Bernoulli(faults_.drop_probability)) {
      ++counters_.dropped;
      return 0;
    }
    if (!frame->empty() && faults_.corrupt_probability > 0 &&
        rng_.Bernoulli(faults_.corrupt_probability)) {
      (*frame)[rng_.Next(frame->size())] ^=
          static_cast<char>(1 + rng_.Next(255));
      ++counters_.corrupted;
    }
    if (faults_.duplicate_probability > 0 &&
        rng_.Bernoulli(faults_.duplicate_probability)) {
      ++counters_.duplicated;
      return 2;
    }
    return 1;
  }

  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

 private:
  const FaultProfile faults_;
  mutable std::mutex mu_;
  Rng rng_;             // guarded by mu_
  Counters counters_;   // guarded by mu_
};

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_FAULT_SHIM_H_
