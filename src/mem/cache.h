// Per-host write-back cache model for CXL pool memory.
//
// CXL memory pool devices shipping today are not cache-coherent across
// hosts (paper §3): each host's CPU caches lines of pool memory privately,
// and nothing invalidates them when another host (or a device DMA) writes
// the same line in the pool. This class models exactly that hazard: cached
// lines hold real byte copies that can go stale, dirty lines are invisible
// to other hosts until written back, and the software-coherence primitives
// (non-temporal store, flush, invalidate) are the only remedies.
#ifndef SRC_MEM_CACHE_H_
#define SRC_MEM_CACHE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/units.h"

namespace cxlpool::mem {

class WriteBackCache {
 public:
  struct Line {
    std::array<std::byte, kCachelineSize> data;
    bool dirty = false;
  };

  struct EvictedLine {
    uint64_t line_addr = 0;
    bool dirty = false;
    std::array<std::byte, kCachelineSize> data;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;   // dirty evictions + flush writebacks
    uint64_t invalidations = 0;
  };

  // capacity_lines == 0 means "no caching" (every access misses); useful
  // for modeling uncached mappings.
  explicit WriteBackCache(size_t capacity_lines);

  // Returns the cached line (bumping LRU) or nullptr on miss. `line_addr`
  // must be 64-byte aligned. The returned pointer is valid until the next
  // mutating call.
  Line* Find(uint64_t line_addr);
  const Line* Peek(uint64_t line_addr) const;  // no LRU bump, no stats

  // Installs a line copy; returns the evicted victim when the set is full.
  // Installing over an existing line replaces its content.
  std::optional<EvictedLine> Install(uint64_t line_addr,
                                     const std::byte* data64, bool dirty);

  // Removes a line, returning its content so callers can write back dirty
  // data. No-op (nullopt) if absent.
  std::optional<EvictedLine> Remove(uint64_t line_addr);

  // Drops everything; dirty lines are returned via repeated Remove by the
  // caller if it cares — this is the "power off" path used in failover
  // tests, so it intentionally loses dirty data.
  void DropAll();

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_lines_; }
  const Stats& stats() const { return stats_; }

 private:
  // Lines live in a slot vector that grows up to capacity and is then
  // reused in place, so installing a line allocates nothing. The LRU order
  // is an intrusive doubly-linked list of slot indices (head = most
  // recent); the lookup index is an open-addressing table with linear
  // probing and backward-shift deletion.
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr uint64_t kEmptyKey = UINT64_MAX;  // never 64 B aligned

  struct Slot {
    uint64_t line_addr;
    uint32_t prev;
    uint32_t next;  // also links the free-slot chain
    Line line;
  };
  struct IndexEntry {
    uint64_t line_addr = kEmptyKey;
    uint32_t slot = kNil;
  };

  size_t Home(uint64_t line_addr) const;
  // Index position holding `line_addr`, or of the empty entry ending its
  // probe sequence.
  size_t Probe(uint64_t line_addr) const;
  uint32_t Lookup(uint64_t line_addr) const;  // slot or kNil
  void IndexInsert(uint64_t line_addr, uint32_t slot);
  void IndexErase(uint64_t line_addr);
  void Unlink(uint32_t s);
  void PushFront(uint32_t s);
  EvictedLine Evict(uint32_t s);

  size_t capacity_lines_;
  size_t size_ = 0;
  std::vector<Slot> slots_;
  std::vector<IndexEntry> index_;  // power-of-two size, at most half full
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint32_t free_ = kNil;
  Stats stats_;
};

}  // namespace cxlpool::mem

#endif  // SRC_MEM_CACHE_H_
