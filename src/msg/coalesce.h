// DoorbellCoalescer: folds N pending doorbell rings into one ring of the
// maximum value.
//
// A doorbell carries no payload — only "progress advanced to N" — so
// consecutive rings are perfectly mergeable: ringing the max once is
// observationally identical to ringing every intermediate value, at one
// MMIO write (or one forwarded MMIO RPC) instead of N. VirtualNic's RX
// doorbell folds its buffer posts through one of these.
//
// The coalescer is a synchronous fold: Offer() and ForceFlush() return
// the value the caller must ring now, or nothing. The caller performs the
// ring itself. Offers flush when `watermark` of them have accumulated
// (pure count batching); ForceFlush() forces the pending value out.
//
// Values are folded with max() and a flush that would not advance past
// the last rung value is skipped entirely — rung values are strictly
// increasing whenever offered values are monotone, which downstream
// consumers (contiguous-prefix doorbells) rely on.
#ifndef SRC_MSG_COALESCE_H_
#define SRC_MSG_COALESCE_H_

#include <cstdint>
#include <optional>

namespace cxlpool::msg {

class DoorbellCoalescer {
 public:
  struct Stats {
    uint64_t offered = 0;
    uint64_t rings = 0;             // values returned to ring
    uint64_t coalesced = 0;         // offers folded into another ring
    uint64_t watermark_flushes = 0;
    uint64_t forced_flushes = 0;    // ForceFlush() with pending state
    uint64_t skipped_stale = 0;     // flushes dropped: value not beyond last rung
  };

  // Flush after `watermark` offers; 1 = ring-through (no count batching).
  // Clamped to >= 1.
  explicit DoorbellCoalescer(uint32_t watermark)
      : watermark_(watermark == 0 ? 1 : watermark) {}

  // Folds `value` into the pending batch (max). Returns the value to ring
  // when this offer reaches the watermark and advances past the last rung.
  [[nodiscard]] std::optional<uint64_t> Offer(uint64_t value);

  // Forces the pending value out now (e.g. before blocking on
  // completions). Returns nothing when no advancing value is pending.
  [[nodiscard]] std::optional<uint64_t> ForceFlush();

  // Drops pending state and the last-rung watermark without ringing —
  // for rebind/reprogram, where the device's doorbell state restarted.
  void Reset();

  const Stats& stats() const { return stats_; }
  bool dirty() const { return dirty_; }
  uint64_t last_rung() const { return last_rung_; }

 private:
  std::optional<uint64_t> Take();

  uint32_t watermark_;
  uint64_t pending_ = 0;
  uint64_t last_rung_ = 0;
  uint32_t since_flush_ = 0;  // offers folded into the pending batch
  bool dirty_ = false;
  Stats stats_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_COALESCE_H_
