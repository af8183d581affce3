// Shared-memory message ring over non-coherent CXL pool memory (paper
// §4.1: "The channel is implemented as a ring buffer, with each message
// slot sized at 64 B to match the cacheline granularity. It manages cache
// coherence in software by using non-temporal stores to send messages.")
//
// Wire layout of one ring (all in one pool segment):
//   [slot 0 .. slot N-1]    N x 64 B message slots
//   [consumer cursor]       one 64 B line holding a u64 consumed count
//
// Slot format (64 B):
//   u32 seq        message index + 1; the publish flag. A slot is valid
//                  for message k iff seq == k+1. Written last (the whole
//                  line goes out in one non-temporal store).
//   u16 chunk_len  payload bytes in this slot (<= 54)
//   u16 msg_len    total message bytes (set in every chunk)
//   u8  payload[54]
//
// Messages longer than one slot span consecutive slots (the common case —
// doorbells, control messages — is single-slot, which is the configuration
// measured in Figure 4).
//
// Coherence protocol:
//   sender:   StoreNt(slot)                      -> immediately visible
//   receiver: Invalidate(slot); Load(slot)       -> never reads stale seq
//   receiver: StoreNt(cursor) every N/4 messages -> flow control
//   sender:   Invalidate(cursor); Load(cursor) when the ring looks full
#ifndef SRC_MSG_RING_H_
#define SRC_MSG_RING_H_

#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/cxl/host_adapter.h"
#include "src/sim/poll.h"
#include "src/sim/task.h"

namespace cxlpool::netsim {
class FaultPlane;
}  // namespace cxlpool::netsim

namespace cxlpool::msg {

inline constexpr uint64_t kSlotSize = kCachelineSize;
inline constexpr uint64_t kSlotHeaderSize = 10;  // seq(4) chunk_len(2) msg_len(2) + pad(2)
inline constexpr uint64_t kSlotPayload = kSlotSize - kSlotHeaderSize;  // 54
inline constexpr uint64_t kMaxMessageSize = 8 * kKiB;

// Bytes of pool memory a ring with `slots` slots occupies.
constexpr uint64_t RingFootprint(uint32_t slots) {
  return static_cast<uint64_t>(slots) * kSlotSize + kCachelineSize;
}

// Receiver burst-window cap: the most consecutive slots one fresh poll
// invalidates+loads at once. A published slot cannot be overwritten until
// the consumer cursor passes it, so the valid prefix of a window is
// immutable and safe to consume from cache without re-invalidating per
// message — this is what makes burst drain cheap (the CXL read pipelines
// extra lines at per_line_pipelined instead of paying the full first-line
// latency per slot). The actual window adapts between 1 and this cap: it
// widens while scans come back fully valid (burst) and collapses to 1 when
// the receiver is caught up, so ping-pong traffic never pays for
// speculative lines.
inline constexpr uint32_t kRecvWindowCap = 8;

struct RingConfig {
  uint64_t base = 0;    // pool address of slot 0
  uint32_t slots = 64;  // must be a power of two
  // Receiver busy-poll cadence; decays by 2x to max while idle.
  Nanos poll_min = 100;
  Nanos poll_max = 2 * kMicrosecond;
  // Bound on how long Send waits for free slots while the ring is full.
  // 0 = wait forever (legacy). >0 turns a full ring into an explicit
  // kOverloaded after that much simulated time — the innermost
  // backpressure point of the whole forwarding path.
  Nanos full_wait = 0;
  // Directed fault injection (partitions / asymmetric / lossy links).
  // When set, every message the RECEIVER consumes is judged against the
  // plane's (src_host → dst_host) state AFTER its slots are reclaimed:
  // a dropped message vanishes without stalling the sender's seq/cursor
  // flow (sender-side dropping would wedge the SPSC publish protocol), a
  // duplicated one is delivered twice, and a delayed one is held past
  // later messages — which is also how reorder happens. nullptr (the
  // default) is the perfectly reliable legacy fabric, with zero cost.
  netsim::FaultPlane* fault_plane = nullptr;
  HostId src_host;  // the host publishing into this ring
  HostId dst_host;  // the host consuming it
};

// Producer endpoint. Exactly one sender and one receiver per ring (SPSC);
// the bidirectional Channel in channel.h pairs two rings.
class RingSender {
 public:
  RingSender(cxl::HostAdapter& host, const RingConfig& config);

  // Publishes one message (<= kMaxMessageSize). Blocks (in simulated time)
  // while the ring is full — bounded by config.full_wait when nonzero, in
  // which case a still-full ring yields kOverloaded. Fails if the CXL path
  // is unhealthy.
  sim::Task<Status> Send(std::span<const std::byte> payload);

  // Publishes several messages with ONE space reservation (at most one
  // consumer-cursor refresh) and write-combined non-temporal stores: runs
  // of ring-contiguous slots go out as single multi-line StoreNt calls,
  // paying the first-line CXL write latency once and per_line_pipelined
  // for every further line. All-or-nothing on space: a ring that cannot
  // fit the whole batch within full_wait rejects it with kOverloaded.
  // Slots are published in order, so the receiver's valid-prefix scan
  // never observes message k+1 before message k.
  sim::Task<Status> SendBatch(std::span<const std::span<const std::byte>> payloads);

  struct Stats {
    uint64_t batch_sends = 0;      // SendBatch calls with >= 2 messages
    uint64_t batched_messages = 0; // messages published via SendBatch
    uint64_t nt_store_runs = 0;    // write-combined StoreNt issues
    uint64_t cursor_refreshes = 0; // consumer-cursor invalidate+loads
  };
  const Stats& stats() const { return stats_; }

  uint64_t messages_sent() const { return head_; }
  // Sends refused with kOverloaded because the ring stayed full past
  // full_wait.
  uint64_t full_rejects() const { return full_rejects_; }
  cxl::HostAdapter& host() { return host_; }

 private:
  sim::Task<Status> WaitForSpace(uint32_t chunks_needed);

  cxl::HostAdapter& host_;
  RingConfig config_;
  uint64_t cursor_addr_;
  uint64_t head_ = 0;         // next slot index to write
  uint64_t cached_tail_ = 0;  // last observed consumer cursor
  uint64_t full_rejects_ = 0;
  Stats stats_;
  sim::PollBackoff backoff_;
};

// Consumer endpoint.
class RingReceiver {
 public:
  RingReceiver(cxl::HostAdapter& host, const RingConfig& config);

  // Receives the next message, waiting until `deadline` (absolute sim
  // time). Returns kDeadlineExceeded on timeout, kUnavailable if the CXL
  // path died. On success the message bytes are appended to *out.
  sim::Task<Status> Recv(std::vector<std::byte>* out, Nanos deadline);

  // Non-blocking single poll: kNotFound if no message is ready right now.
  // (Still charges the invalidate+load cost of inspecting the head slot.)
  sim::Task<Status> TryRecv(std::vector<std::byte>* out);

  uint64_t messages_received() const { return messages_; }

  struct Stats {
    uint64_t window_loads = 0;  // fresh windowed invalidate+load rounds
    uint64_t window_hits = 0;   // slots consumed from the cached window
    // Fault-plane outcomes applied by this receiver (subset of the
    // plane-wide counters, per ring direction).
    uint64_t faults_dropped = 0;
    uint64_t faults_duplicated = 0;
    uint64_t faults_delayed = 0;
  };
  const Stats& stats() const { return stats_; }
  cxl::HostAdapter& host() { return host_; }

 private:
  // Reads slot `index`'s line, serving from the cached burst window when
  // it covers the index; otherwise does a fresh windowed invalidate+load
  // and caches the valid prefix. Returns seq.
  sim::Task<Result<uint32_t>> LoadSlot(uint64_t index,
                                       std::array<std::byte, kSlotSize>* line);
  sim::Task<Status> PublishCursor();
  // Pops one full message whose first chunk line is already loaded.
  sim::Task<Status> ConsumeMessage(std::array<std::byte, kSlotSize> first_line,
                                   std::vector<std::byte>* out);
  // True when a fault plane is wired AND carries at least one edge — the
  // per-message Judge cost is only paid while faults are live.
  bool FaultActive() const;
  // Delivers a stashed duplicate or matured delayed message, if any.
  bool DeliverStashed(std::vector<std::byte>* out);
  // Judges the just-consumed scratch_ message; true = appended to *out
  // (possibly also stashed as a duplicate), false = dropped or delayed.
  bool JudgeConsumed(std::vector<std::byte>* out);
  // Earliest release among delayed messages, or 0 when none pending.
  Nanos NextDelayedRelease() const;

  cxl::HostAdapter& host_;
  RingConfig config_;
  uint64_t cursor_addr_;
  uint64_t tail_ = 0;  // next slot index to read
  uint64_t messages_ = 0;
  uint64_t last_published_cursor_ = 0;
  Stats stats_;
  // Burst-drain cache: slots [win_start_, win_start_ + win_valid_) were
  // observed published (seq == index+1) by one windowed load. Published
  // slots are immutable until the consumer cursor passes them, so these
  // bytes can be consumed without touching the pool again. Slots that
  // were NOT yet published are never cached — they must be re-read.
  std::vector<std::byte> window_;
  uint64_t win_start_ = 0;
  uint32_t win_valid_ = 0;
  // Adaptive window size in [1, kRecvWindowCap]: doubles after a fully-valid
  // scan (a burst is in progress — wider loads amortize), shrinks back to
  // 1 after a scan that found at most one slot (ping-pong / idle, where
  // extra lines per load would only add pipelined-read latency).
  uint32_t cur_window_ = 1;
  sim::PollBackoff backoff_;
  // Fault-plane stashes: a consumed message judged kDuplicate is
  // redelivered from dup_pending_ on the next receive; one judged kDelay
  // waits in delayed_ until its release time (delivered before any new
  // ring message, earliest release first — stable on ties).
  std::vector<std::byte> scratch_;
  std::deque<std::vector<std::byte>> dup_pending_;
  std::vector<std::pair<Nanos, std::vector<std::byte>>> delayed_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_RING_H_
