#include "src/mem/cache.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace cxlpool::mem {

WriteBackCache::WriteBackCache(size_t capacity_lines)
    : capacity_lines_(capacity_lines) {
  CXLPOOL_CHECK(capacity_lines < kNil);
}

size_t WriteBackCache::Home(uint64_t line_addr) const {
  // Fibonacci hashing of the line number, taking the well-mixed upper half.
  uint64_t h = (line_addr / kCachelineSize) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h >> 32) & (index_.size() - 1);
}

size_t WriteBackCache::Probe(uint64_t line_addr) const {
  size_t mask = index_.size() - 1;
  size_t i = Home(line_addr);
  while (index_[i].line_addr != line_addr && index_[i].line_addr != kEmptyKey) {
    i = (i + 1) & mask;
  }
  return i;
}

uint32_t WriteBackCache::Lookup(uint64_t line_addr) const {
  if (size_ == 0) {
    return kNil;
  }
  return index_[Probe(line_addr)].slot;
}

void WriteBackCache::IndexInsert(uint64_t line_addr, uint32_t slot) {
  if ((size_ + 1) * 2 > index_.size()) {
    std::vector<IndexEntry> old(std::max<size_t>(16, index_.size() * 2));
    old.swap(index_);
    for (const IndexEntry& e : old) {
      if (e.line_addr != kEmptyKey) {
        index_[Probe(e.line_addr)] = e;
      }
    }
  }
  index_[Probe(line_addr)] = IndexEntry{line_addr, slot};
}

void WriteBackCache::IndexErase(uint64_t line_addr) {
  size_t mask = index_.size() - 1;
  size_t hole = Probe(line_addr);
  CXLPOOL_DCHECK(index_[hole].line_addr == line_addr);
  // Backward shift: pull later entries of the probe run into the hole
  // unless that would move one before its home position.
  for (size_t j = (hole + 1) & mask; index_[j].line_addr != kEmptyKey;
       j = (j + 1) & mask) {
    size_t home = Home(index_[j].line_addr);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexEntry{};
}

void WriteBackCache::Unlink(uint32_t s) {
  Slot& slot = slots_[s];
  (slot.prev == kNil ? head_ : slots_[slot.prev].next) = slot.next;
  (slot.next == kNil ? tail_ : slots_[slot.next].prev) = slot.prev;
}

void WriteBackCache::PushFront(uint32_t s) {
  Slot& slot = slots_[s];
  slot.prev = kNil;
  slot.next = head_;
  (head_ == kNil ? tail_ : slots_[head_].prev) = s;
  head_ = s;
}

WriteBackCache::EvictedLine WriteBackCache::Evict(uint32_t s) {
  Slot& slot = slots_[s];
  EvictedLine ev;
  ev.line_addr = slot.line_addr;
  ev.dirty = slot.line.dirty;
  ev.data = slot.line.data;
  if (ev.dirty) {
    ++stats_.writebacks;
  }
  Unlink(s);
  IndexErase(slot.line_addr);
  --size_;
  return ev;
}

WriteBackCache::Line* WriteBackCache::Find(uint64_t line_addr) {
  CXLPOOL_DCHECK(line_addr % kCachelineSize == 0);
  uint32_t s = Lookup(line_addr);
  if (s == kNil) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  if (s != head_) {
    Unlink(s);
    PushFront(s);
  }
  return &slots_[s].line;
}

const WriteBackCache::Line* WriteBackCache::Peek(uint64_t line_addr) const {
  uint32_t s = Lookup(line_addr);
  return s == kNil ? nullptr : &slots_[s].line;
}

std::optional<WriteBackCache::EvictedLine> WriteBackCache::Install(
    uint64_t line_addr, const std::byte* data64, bool dirty) {
  CXLPOOL_DCHECK(line_addr % kCachelineSize == 0);
  if (capacity_lines_ == 0) {
    return std::nullopt;  // uncached mapping: nothing retained
  }
  if (uint32_t s = Lookup(line_addr); s != kNil) {
    Line& line = slots_[s].line;
    std::memcpy(line.data.data(), data64, kCachelineSize);
    line.dirty = line.dirty || dirty;
    if (s != head_) {
      Unlink(s);
      PushFront(s);
    }
    return std::nullopt;
  }

  std::optional<EvictedLine> victim;
  uint32_t s;
  if (size_ >= capacity_lines_) {
    s = tail_;
    victim = Evict(s);
  } else if (free_ != kNil) {
    s = free_;
    free_ = slots_[s].next;
  } else {
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }

  Slot& slot = slots_[s];
  slot.line_addr = line_addr;
  std::memcpy(slot.line.data.data(), data64, kCachelineSize);
  slot.line.dirty = dirty;
  PushFront(s);
  IndexInsert(line_addr, s);
  ++size_;
  return victim;
}

std::optional<WriteBackCache::EvictedLine> WriteBackCache::Remove(uint64_t line_addr) {
  uint32_t s = Lookup(line_addr);
  if (s == kNil) {
    return std::nullopt;
  }
  EvictedLine ev = Evict(s);
  ++stats_.invalidations;
  slots_[s].next = free_;
  free_ = s;
  return ev;
}

void WriteBackCache::DropAll() {
  size_ = 0;
  slots_.clear();
  index_.clear();
  head_ = tail_ = free_ = kNil;
}

}  // namespace cxlpool::mem
