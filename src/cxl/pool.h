// CxlPool: the set of multi-headed devices plus the segment allocator that
// hands out pool memory to hosts (private segments) and to the datapath
// (shared, software-coherent segments). Also owns address routing,
// including 256 B interleaving across several MHDs' links, and the commit
// of posted writes to pool media.
#ifndef SRC_CXL_POOL_H_
#define SRC_CXL_POOL_H_

#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/cxl/mhd.h"
#include "src/cxl/params.h"
#include "src/mem/address_map.h"
#include "src/mem/cache.h"
#include "src/sim/event_loop.h"

namespace cxlpool::cxl {

// A range of pool memory handed out by Allocate*. Interleaved segments
// stripe consecutive 256 B granules across `mhds`.
struct PoolSegment {
  uint64_t base = 0;
  uint64_t size = 0;
  std::vector<MhdId> mhds;  // size 1 for non-interleaved

  bool interleaved() const { return mhds.size() > 1; }
  uint64_t end() const { return base + size; }
};

class CxlPool {
 public:
  // Registers pool regions into `map` so devices and hosts resolve pool
  // addresses through the same address space. Posted writes commit to
  // media as events on `loop`.
  CxlPool(sim::EventLoop& loop, mem::AddressMap& map) : loop_(loop), map_(map) {}
  CxlPool(const CxlPool&) = delete;
  CxlPool& operator=(const CxlPool&) = delete;

  // Adds an MHD of the given capacity; returns its id.
  MhdId AddMhd(uint64_t capacity_bytes);

  MultiHeadedDevice& mhd(MhdId id);
  const MultiHeadedDevice& mhd(MhdId id) const;
  size_t mhd_count() const { return mhds_.size(); }

  // Allocates `size` bytes on a single MHD. With no `preferred`, picks the
  // least-utilized healthy MHD (capacity-based). Sizes are rounded up to
  // 4 KiB.
  Result<PoolSegment> Allocate(uint64_t size, MhdId preferred = MhdId::Invalid());

  // Allocates `size` bytes striped across the given MHDs at the CPU
  // interleave granule (256 B). Used to aggregate link bandwidth (§3).
  Result<PoolSegment> AllocateInterleaved(uint64_t size, std::vector<MhdId> mhds);

  // Returns the segment's bytes to the utilization accounting. Address
  // space is not recycled (monotone bump allocation keeps routing simple;
  // the 1 TiB window is far larger than any experiment).
  Status Free(const PoolSegment& segment);

  // Which MHD serves the byte at `addr` (granule-accurate for interleaved
  // segments). kNotFound if the address is not pool memory.
  Result<MhdId> RouteAddress(uint64_t addr) const;

  uint64_t used_bytes(MhdId id) const;
  uint64_t total_capacity() const;
  uint64_t total_used() const;

  // Poisoned 64B lines across all pool media (MHD media plus the dedicated
  // backends of interleaved segments). End-of-storm assertions use this to
  // prove the scrubber drained every injected poison.
  size_t PoisonedLineCount() const;

  // --- CXL 3.0 Back-Invalidate emulation (paper §3) ---
  // When enabled on a pod, the pool keeps a snoop filter of which hosts
  // cache each line; a pool write (nt-store or device DMA) back-invalidates
  // every remote cached copy, so consumers may use plain cached loads. No
  // shipping CPU or MHD supports this today — it exists here as the
  // ablation the paper contrasts software coherence against.
  void set_back_invalidate(bool enabled) { back_invalidate_ = enabled; }
  bool back_invalidate() const { return back_invalidate_; }

  // Registers a host's cache for snooping (wired by CxlPod).
  void RegisterSnoopTarget(HostId host, mem::WriteBackCache* cache);
  // Records that `host` holds a copy of `line_addr`.
  void TrackCacher(uint64_t line_addr, HostId host);
  void UntrackCacher(uint64_t line_addr, HostId host);
  // Drops every remote copy of the lines in [addr, addr+len); returns the
  // number of snoop invalidations issued (each costs snoop latency at the
  // writer).
  int BackInvalidate(uint64_t addr, uint64_t len, HostId writer);

  // --- Posted writes (same-address ordering) ---
  // A posted write (nt-store or device DMA) is accepted at once, but its
  // bytes reach pool media only when it commits. PostWrite copies `data`,
  // picks the commit time, writes the bytes to media at that time and then
  // forgets the commit. The commit time is `visible_at` or, if later, the
  // latest still-pending commit to any of the same lines: back-to-back
  // posted writes to one address drain per-address FIFO, so jitter cannot
  // let an older write land after (and silently revert) a newer one.
  void PostWrite(uint64_t addr, std::span<const std::byte> data, Nanos visible_at);
  // Latest pending commit time overlapping [addr, addr+len), or 0 if none
  // is pending. Readers of such a line are served from the controller's
  // write buffer: they complete no earlier than the commit and then observe
  // the new data. Unrelated lines are unaffected (CXL.mem has no
  // cross-address ordering).
  Nanos PendingCommitTime(uint64_t addr, uint64_t len) const;

 private:
  struct SegmentInfo {
    PoolSegment segment;
    bool freed = false;
  };

  sim::EventLoop& loop_;
  mem::AddressMap& map_;
  std::vector<std::unique_ptr<MultiHeadedDevice>> mhds_;
  std::vector<uint64_t> mhd_used_;        // bytes allocated per MHD
  std::vector<uint64_t> mhd_bump_;        // media bump offset per MHD
  // Interleaved segments get dedicated striped backends (bytes contiguous,
  // timing routed per-granule to member MHDs' links).
  std::vector<std::unique_ptr<mem::MemoryBackend>> striped_backends_;
  std::map<uint64_t, SegmentInfo> segments_;  // keyed by base
  // Last segment RouteAddress resolved, tried before the map walk. Sound
  // because segments are never erased (Free only marks them) and std::map
  // nodes never move; code that erases a segment must reset it.
  mutable const PoolSegment* last_route_ = nullptr;
  uint64_t next_base_ = kPoolWindowBase;
  // line address -> commit time of the newest posted write still pending
  // on the line; erased when that write lands.
  std::unordered_map<uint64_t, Nanos> pending_commits_;

  // Back-Invalidate snoop filter state.
  bool back_invalidate_ = false;
  std::vector<std::pair<HostId, mem::WriteBackCache*>> snoop_targets_;
  std::unordered_map<uint64_t, uint32_t> cacher_bits_;  // line -> host bitmap
};

}  // namespace cxlpool::cxl

#endif  // SRC_CXL_POOL_H_
