#include "src/msg/coalesce.h"

#include <algorithm>

namespace cxlpool::msg {

std::optional<uint64_t> DoorbellCoalescer::Take() {
  if (!dirty_) {
    return std::nullopt;
  }
  uint64_t value = pending_;
  uint64_t folded = since_flush_;
  dirty_ = false;
  since_flush_ = 0;
  if (value <= last_rung_) {
    // Nothing beyond what the consumer already saw — e.g. a forced flush
    // after a watermark flush. Ringing a non-advancing value would break
    // the monotone contract, so drop it.
    stats_.skipped_stale += 1;
    stats_.coalesced += folded;
    return std::nullopt;
  }
  stats_.rings += 1;
  stats_.coalesced += folded > 0 ? folded - 1 : 0;
  last_rung_ = value;
  return value;
}

std::optional<uint64_t> DoorbellCoalescer::Offer(uint64_t value) {
  stats_.offered += 1;
  pending_ = std::max(pending_, value);
  since_flush_ += 1;
  dirty_ = true;
  if (since_flush_ < watermark_) {
    return std::nullopt;
  }
  stats_.watermark_flushes += 1;
  return Take();
}

std::optional<uint64_t> DoorbellCoalescer::ForceFlush() {
  if (dirty_) {
    stats_.forced_flushes += 1;
  }
  return Take();
}

void DoorbellCoalescer::Reset() {
  pending_ = 0;
  last_rung_ = 0;
  since_flush_ = 0;
  dirty_ = false;
}

}  // namespace cxlpool::msg
