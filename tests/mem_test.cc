#include <gtest/gtest.h>
#include "src/common/check.h"

#include <cstring>
#include <list>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>

#include "src/mem/address_map.h"
#include "src/mem/backend.h"
#include "src/mem/cache.h"

namespace cxlpool::mem {
namespace {

std::array<std::byte, kCachelineSize> LinePattern(uint8_t fill) {
  std::array<std::byte, kCachelineSize> a;
  a.fill(std::byte{fill});
  return a;
}

// --- MemoryBackend ---

TEST(BackendTest, ZeroInitialized) {
  MemoryBackend b("test", 4096);
  std::array<std::byte, 16> buf;
  buf.fill(std::byte{0xff});
  b.Read(100, buf);
  for (std::byte x : buf) {
    EXPECT_EQ(x, std::byte{0});
  }
}

TEST(BackendTest, RoundTrip) {
  MemoryBackend b("test", 4096);
  std::array<std::byte, 8> in{std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
                              std::byte{5}, std::byte{6}, std::byte{7}, std::byte{8}};
  b.Write(1000, in);
  std::array<std::byte, 8> out{};
  b.Read(1000, out);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 8), 0);
}

TEST(BackendTest, EdgeOfCapacity) {
  MemoryBackend b("test", 128);
  std::array<std::byte, 128> buf{};
  b.Read(0, buf);  // exactly full range is legal
  std::array<std::byte, 1> one{std::byte{9}};
  b.Write(127, one);
  b.Read(127, one);
  EXPECT_EQ(one[0], std::byte{9});
}

TEST(BackendTest, BoundsCheckFailureNamesTheBackendAndOffsets) {
  // A bounds CHECK in a sim with dozens of backends is undebuggable
  // without context: the message must say WHICH backend, WHERE, and how
  // big the access and the backend are.
  MemoryBackend b("nic0-bar", 4096);
  std::array<std::byte, 16> buf{};
  EXPECT_DEATH(b.Read(5000, buf),
               "backend 'nic0-bar'.*16 bytes at offset 5000.*backend size 4096");
  EXPECT_DEATH(b.Write(4090, buf),
               "backend 'nic0-bar'.*16 bytes at offset 4090.*backend size 4096");
}

TEST(BackendTest, LargeBackendReadsZerosWhereNeverWrittenAndKeepsBoundsMessages) {
  constexpr uint64_t kSize = 64ull << 20;
  MemoryBackend b("mhd0-media", kSize);
  std::array<std::byte, 64> pattern;
  pattern.fill(std::byte{0x5a});
  b.Write(0, pattern);
  b.Write(kSize / 2 + 8, pattern);
  b.Write(kSize - pattern.size(), pattern);

  std::array<std::byte, 64> buf;
  for (uint64_t offset : {uint64_t{64}, uint64_t{4096}, kSize / 2 - 64,
                          kSize / 2 + 72, uint64_t{48} << 20, kSize - 128}) {
    buf.fill(std::byte{0xff});
    b.Read(offset, buf);
    for (std::byte x : buf) {
      ASSERT_EQ(x, std::byte{0}) << "offset " << offset;
    }
  }
  b.Read(kSize / 2 + 8, buf);
  EXPECT_EQ(buf, pattern);
  b.Read(kSize - buf.size(), buf);
  EXPECT_EQ(buf, pattern);

  std::array<std::byte, 16> small{};
  EXPECT_DEATH(b.Read(kSize - 8, small),
               "backend 'mhd0-media'.*16 bytes at offset 67108856.*backend "
               "size 67108864");
  EXPECT_DEATH(b.Write(kSize, small),
               "backend 'mhd0-media'.*16 bytes at offset 67108864.*backend "
               "size 67108864");
}

TEST(BackendTest, ZeroSizedBackendRejectsEveryAccess) {
  MemoryBackend b("empty", 0);
  EXPECT_EQ(b.size(), 0u);
  std::array<std::byte, 1> one{};
  EXPECT_DEATH(b.Read(0, one),
               "backend 'empty'.*1 bytes at offset 0.*backend size 0");
}

// --- Media poison (RAS) ---

TEST(BackendTest, PoisonTracksWholeLines) {
  MemoryBackend b("test", 4096);
  EXPECT_FALSE(b.RangePoisoned(0, 4096));
  b.PoisonLine(130);  // anywhere inside the line poisons [128, 192)
  EXPECT_TRUE(b.LinePoisoned(128));
  EXPECT_TRUE(b.LinePoisoned(191));
  EXPECT_FALSE(b.LinePoisoned(192));
  EXPECT_FALSE(b.LinePoisoned(64));
  EXPECT_TRUE(b.RangePoisoned(0, 4096));
  EXPECT_TRUE(b.RangePoisoned(190, 4));  // straddles into the poisoned line
  EXPECT_FALSE(b.RangePoisoned(192, 64));
  EXPECT_EQ(b.poisoned_line_count(), 1u);
}

TEST(BackendTest, FullLineWriteClearsPoisonPartialDoesNot) {
  MemoryBackend b("test", 4096);
  b.PoisonLine(128);
  // A partial write cannot re-establish ECC for the whole line.
  std::array<std::byte, 8> partial{};
  b.Write(128, partial);
  EXPECT_TRUE(b.LinePoisoned(128));
  // A full-line write is fresh data + fresh ECC: poison clears.
  std::array<std::byte, kCachelineSize> full{};
  b.Write(128, full);
  EXPECT_FALSE(b.LinePoisoned(128));
  EXPECT_EQ(b.poisoned_line_count(), 0u);
}

TEST(BackendTest, ClearPoisonIsExplicit) {
  MemoryBackend b("test", 4096);
  b.PoisonLine(0);
  b.PoisonLine(64);
  b.ClearPoison(0);
  EXPECT_FALSE(b.LinePoisoned(0));
  EXPECT_TRUE(b.LinePoisoned(64));
}

// --- AddressMap ---

class AddressMapTest : public ::testing::Test {
 protected:
  AddressMapTest() : dram_("dram", 64 * kKiB), pool_("pool", 64 * kKiB) {
    Region r1;
    r1.base = 0x1000;
    r1.size = 64 * kKiB;
    r1.kind = MemoryKind::kLocalDram;
    r1.dram_host = HostId(0);
    r1.backend = &dram_;
    CXLPOOL_CHECK_OK(map_.Register(r1));

    Region r2;
    r2.base = 0x1000000;
    r2.size = 64 * kKiB;
    r2.kind = MemoryKind::kCxlPool;
    r2.mhd = MhdId(0);
    r2.backend = &pool_;
    CXLPOOL_CHECK_OK(map_.Register(r2));
  }

  MemoryBackend dram_;
  MemoryBackend pool_;
  AddressMap map_;
};

TEST_F(AddressMapTest, LookupFindsRegion) {
  const Region* r = map_.Lookup(0x1000);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->kind, MemoryKind::kLocalDram);
  EXPECT_EQ(map_.Lookup(0x1000 + 64 * kKiB - 1)->kind, MemoryKind::kLocalDram);
  EXPECT_EQ(map_.Lookup(0x1000000)->kind, MemoryKind::kCxlPool);
}

TEST_F(AddressMapTest, LookupMissReturnsNull) {
  EXPECT_EQ(map_.Lookup(0), nullptr);
  EXPECT_EQ(map_.Lookup(0xfff), nullptr);
  EXPECT_EQ(map_.Lookup(0x1000 + 64 * kKiB), nullptr);
  EXPECT_EQ(map_.Lookup(0xffffffff), nullptr);
}

TEST_F(AddressMapTest, ResolveRejectsCrossRegion) {
  auto r = map_.Resolve(0x1000 + 64 * kKiB - 8, 16);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(AddressMapTest, ResolveRejectsUnmapped) {
  auto r = map_.Resolve(0x0, 8);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(AddressMapTest, LastHitNeverAnswersForAnotherRange) {
  const uint64_t r1_end = 0x1000 + 64 * kKiB;
  ASSERT_EQ(map_.Lookup(0x1000)->base, 0x1000u);  // last hit: r1
  // The gap right after the last hit stays unmapped, message unchanged.
  EXPECT_EQ(map_.Lookup(r1_end), nullptr);
  auto gap = map_.Resolve(r1_end, 8);
  EXPECT_EQ(gap.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(gap.status().message(), "address " + std::to_string(r1_end) + " is unmapped");

  // A region registered into that gap after r1 was the last hit.
  ASSERT_EQ(map_.Lookup(r1_end - 1)->base, 0x1000u);
  MemoryBackend next("next", 4 * kKiB);
  Region r3;
  r3.base = r1_end;
  r3.size = 4 * kKiB;
  r3.kind = MemoryKind::kCxlPool;
  r3.mhd = MhdId(1);
  r3.backend = &next;
  ASSERT_TRUE(map_.Register(r3).ok());
  // Alternating between the two adjacent regions, on both sides of the
  // shared boundary.
  for (uint64_t i = 0; i < 8; ++i) {
    const Region* below = map_.Lookup(r1_end - 1 - i);
    ASSERT_NE(below, nullptr);
    EXPECT_EQ(below->base, 0x1000u);
    const Region* above = map_.Lookup(r1_end + i);
    ASSERT_NE(above, nullptr);
    EXPECT_EQ(above->base, r1_end);
  }
  EXPECT_EQ(map_.Lookup(r1_end + 4 * kKiB), nullptr);  // past r3, last hit r3

  // A range crossing the boundary is still rejected, whichever side was
  // the last hit.
  for (uint64_t prime : {r1_end - 1, r1_end}) {
    ASSERT_NE(map_.Lookup(prime), nullptr);
    auto cross = map_.Resolve(r1_end - 8, 16);
    EXPECT_EQ(cross.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(cross.status().message(),
              "range crosses region boundary at " + std::to_string(r1_end));
  }
  auto tail = map_.Resolve(r1_end + 4 * kKiB - 8, 16);
  EXPECT_EQ(tail.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(tail.status().message(),
            "range crosses region boundary at " + std::to_string(r1_end + 4 * kKiB));
}

TEST_F(AddressMapTest, OverlapRejected) {
  MemoryBackend extra("x", 4096);
  Region r;
  r.base = 0x1800;  // inside the dram region
  r.size = 4096;
  r.backend = &extra;
  auto st = map_.Register(r);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);

  r.base = 0x1000 - 100;  // tail overlaps head of dram region
  st = map_.Register(r);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST_F(AddressMapTest, BackendCapacityValidated) {
  MemoryBackend small("s", 1024);
  Region r;
  r.base = 0x20000000;
  r.size = 4096;  // bigger than backend
  r.backend = &small;
  EXPECT_EQ(map_.Register(r).code(), StatusCode::kOutOfRange);
}

TEST_F(AddressMapTest, ReadWriteBytesRouteToBackend) {
  std::array<std::byte, 4> in{std::byte{0xde}, std::byte{0xad}, std::byte{0xbe},
                              std::byte{0xef}};
  map_.WriteBytes(0x1000000 + 128, in);
  std::array<std::byte, 4> direct{};
  pool_.Read(128, direct);
  EXPECT_EQ(std::memcmp(in.data(), direct.data(), 4), 0);

  std::array<std::byte, 4> out{};
  map_.ReadBytes(0x1000000 + 128, out);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 4), 0);
}

TEST_F(AddressMapTest, BackendOffsetApplied) {
  MemoryBackend shared("sh", 8192);
  Region r;
  r.base = 0x40000000;
  r.size = 4096;
  r.kind = MemoryKind::kCxlPool;
  r.backend = &shared;
  r.backend_offset = 4096;
  ASSERT_TRUE(map_.Register(r).ok());
  std::array<std::byte, 1> in{std::byte{7}};
  map_.WriteBytes(0x40000000, in);
  std::array<std::byte, 1> direct{};
  shared.Read(4096, direct);
  EXPECT_EQ(direct[0], std::byte{7});
}

TEST_F(AddressMapTest, PoisonRoutesThroughRegions) {
  // Poison by pod address, translated to the backing store (including
  // backend_offset), surfaced again by CheckPoison.
  ASSERT_TRUE(map_.PoisonLine(0x1000000 + 256).ok());
  EXPECT_TRUE(map_.RangePoisoned(0x1000000 + 256, 1));
  EXPECT_TRUE(pool_.LinePoisoned(256));
  EXPECT_FALSE(dram_.RangePoisoned(0, 64 * kKiB));

  Status st = map_.CheckPoison(0x1000000 + 256, 64);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(map_.CheckPoison(0x1000000, 64).ok());
  // Unmapped addresses are not poisoned (the access fails elsewhere).
  EXPECT_FALSE(map_.RangePoisoned(0, 8));
  EXPECT_TRUE(map_.CheckPoison(0, 8).ok());

  ASSERT_TRUE(map_.ClearPoison(0x1000000 + 256).ok());
  EXPECT_TRUE(map_.CheckPoison(0x1000000 + 256, 64).ok());
}

TEST_F(AddressMapTest, PoisonUnmappedAddressFails) {
  EXPECT_FALSE(map_.PoisonLine(0x0).ok());
  EXPECT_FALSE(map_.ClearPoison(0x0).ok());
}

// --- WriteBackCache ---

TEST(CacheTest, MissThenHit) {
  WriteBackCache cache(16);
  EXPECT_EQ(cache.Find(0), nullptr);
  auto data = LinePattern(0xaa);
  cache.Install(0, data.data(), false);
  WriteBackCache::Line* line = cache.Find(0);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->data[0], std::byte{0xaa});
  EXPECT_FALSE(line->dirty);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, DirtyBitSticky) {
  WriteBackCache cache(16);
  auto data = LinePattern(1);
  cache.Install(64, data.data(), true);
  // Re-installing clean does not clear dirty.
  cache.Install(64, data.data(), false);
  EXPECT_TRUE(cache.Find(64)->dirty);
}

TEST(CacheTest, LruEviction) {
  WriteBackCache cache(2);
  auto d = LinePattern(1);
  EXPECT_FALSE(cache.Install(0, d.data(), false).has_value());
  EXPECT_FALSE(cache.Install(64, d.data(), false).has_value());
  cache.Find(0);  // make line 0 most-recent
  auto ev = cache.Install(128, d.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 64u);  // 64 was least-recent
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CacheTest, EvictedDirtyLineCarriesData) {
  WriteBackCache cache(1);
  auto d1 = LinePattern(0x11);
  cache.Install(0, d1.data(), true);
  auto d2 = LinePattern(0x22);
  auto ev = cache.Install(64, d2.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
  EXPECT_EQ(ev->data[5], std::byte{0x11});
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheTest, RemoveReturnsContent) {
  WriteBackCache cache(4);
  auto d = LinePattern(0x33);
  cache.Install(192, d.data(), true);
  auto ev = cache.Remove(192);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
  EXPECT_EQ(ev->data[0], std::byte{0x33});
  EXPECT_EQ(cache.Find(192), nullptr);
  EXPECT_FALSE(cache.Remove(192).has_value());
}

TEST(CacheTest, ZeroCapacityNeverCaches) {
  WriteBackCache cache(0);
  auto d = LinePattern(1);
  EXPECT_FALSE(cache.Install(0, d.data(), true).has_value());
  EXPECT_EQ(cache.Find(0), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheTest, DropAllForgetsEverything) {
  WriteBackCache cache(8);
  auto d = LinePattern(1);
  cache.Install(0, d.data(), true);
  cache.Install(64, d.data(), false);
  cache.DropAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find(0), nullptr);
}

TEST(CacheTest, PeekDoesNotBumpLru) {
  WriteBackCache cache(2);
  auto d = LinePattern(1);
  cache.Install(0, d.data(), false);
  cache.Install(64, d.data(), false);
  cache.Peek(0);  // would make 0 MRU if it bumped
  auto ev = cache.Install(128, d.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0u);  // 0 still LRU: Peek had no effect
}

// Find vs Peek contrast on the same cache: Find's LRU bump protects a
// line from eviction, Peek's lack of one does not, and Peek never touches
// the hit/miss counters (it is the observer path — e.g. DMA snooping).
TEST(CacheTest, FindBumpsLruPeekDoesNotAndPeekIsStatFree) {
  WriteBackCache cache(2);
  auto d = LinePattern(1);
  cache.Install(0, d.data(), false);
  cache.Install(64, d.data(), false);
  WriteBackCache::Stats before = cache.stats();
  EXPECT_NE(cache.Peek(0), nullptr);
  EXPECT_EQ(cache.Peek(999 * kCachelineSize), nullptr);  // miss: no count
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);

  cache.Find(0);  // bump: 64 becomes LRU
  auto ev1 = cache.Install(128, d.data(), false);
  ASSERT_TRUE(ev1.has_value());
  EXPECT_EQ(ev1->line_addr, 64u);

  cache.Peek(0);  // no bump: 0 stays LRU behind 128
  auto ev2 = cache.Install(192, d.data(), false);
  ASSERT_TRUE(ev2.has_value());
  EXPECT_EQ(ev2->line_addr, 0u);
}

// Capacity 1 is the degenerate LRU: every distinct install evicts the
// previous line, re-installing the resident line evicts nothing, and the
// dirty victim's bytes ride out intact.
TEST(CacheTest, CapacityOneEvictsEveryNewcomerButNotReinstalls) {
  WriteBackCache cache(1);
  auto d1 = LinePattern(0x11);
  auto d2 = LinePattern(0x22);
  EXPECT_FALSE(cache.Install(0, d1.data(), true).has_value());
  EXPECT_FALSE(cache.Install(0, d2.data(), false).has_value());  // same line
  EXPECT_EQ(cache.size(), 1u);

  auto ev = cache.Install(64, d1.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0u);
  EXPECT_TRUE(ev->dirty);                     // sticky from the first install
  EXPECT_EQ(ev->data[3], std::byte{0x22});    // latest content, not first
  EXPECT_EQ(cache.size(), 1u);

  auto ev2 = cache.Install(128, d2.data(), true);
  ASSERT_TRUE(ev2.has_value());
  EXPECT_EQ(ev2->line_addr, 64u);
  EXPECT_FALSE(ev2->dirty);
  EXPECT_EQ(cache.stats().writebacks, 1u);  // only the dirty victim counted
}

// Install over an existing line replaces bytes in place: no victim, no
// size change, dirty stays sticky, and the line is bumped to MRU.
TEST(CacheTest, InstallOverExistingReplacesContentInPlace) {
  WriteBackCache cache(2);
  auto d1 = LinePattern(0x0d);
  auto d2 = LinePattern(0x0e);
  cache.Install(0, d1.data(), true);
  cache.Install(64, d1.data(), false);

  EXPECT_FALSE(cache.Install(0, d2.data(), false).has_value());
  EXPECT_EQ(cache.size(), 2u);
  const WriteBackCache::Line* line = cache.Peek(0);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->data[7], std::byte{0x0e});  // content replaced...
  EXPECT_TRUE(line->dirty);                   // ...dirty not cleared

  // The overwrite bumped line 0 to MRU, so 64 is the next victim.
  auto ev = cache.Install(128, d1.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 64u);
}

// DropAll is the power-off path: it must NOT count write-backs or
// invalidations for the dirty lines it destroys (those stats feed the
// coherence accounting; a crash is not a write-back), and counters keep
// accumulating normally afterwards.
TEST(CacheTest, DropAllCountsNoWritebacksOrInvalidations) {
  WriteBackCache cache(4);
  auto d = LinePattern(5);
  cache.Install(0, d.data(), true);
  cache.Install(64, d.data(), true);
  cache.Find(0);
  WriteBackCache::Stats before = cache.stats();

  cache.DropAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().writebacks, before.writebacks);
  EXPECT_EQ(cache.stats().invalidations, before.invalidations);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);

  EXPECT_EQ(cache.Find(0), nullptr);  // gone, and the miss still counts
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

// Parameterized capacity sweep: occupancy never exceeds capacity and the
// cache stays internally consistent under a deterministic access pattern.
class CacheCapacityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheCapacityTest, OccupancyBounded) {
  size_t cap = GetParam();
  WriteBackCache cache(cap);
  auto d = LinePattern(0x7f);
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t addr = (i * 37 % 256) * kCachelineSize;
    if (cache.Find(addr) == nullptr) {
      cache.Install(addr, d.data(), i % 3 == 0);
    }
    EXPECT_LE(cache.size(), cap);
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacityTest,
                         ::testing::Values(1, 2, 7, 64, 1024));

// The exact fully-associative LRU the cache must reproduce, kept in its
// original std::list + std::unordered_map form as the reference model.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  WriteBackCache::Line* Find(uint64_t addr) {
    auto it = lines_.find(addr);
    if (it == lines_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return &it->second.line;
  }

  const WriteBackCache::Line* Peek(uint64_t addr) const {
    auto it = lines_.find(addr);
    return it == lines_.end() ? nullptr : &it->second.line;
  }

  std::optional<WriteBackCache::EvictedLine> Install(uint64_t addr,
                                                     const std::byte* data,
                                                     bool dirty) {
    if (capacity_ == 0) {
      return std::nullopt;
    }
    auto it = lines_.find(addr);
    if (it != lines_.end()) {
      std::memcpy(it->second.line.data.data(), data, kCachelineSize);
      it->second.line.dirty = it->second.line.dirty || dirty;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return std::nullopt;
    }
    std::optional<WriteBackCache::EvictedLine> victim;
    if (lines_.size() >= capacity_) {
      victim = Take(lru_.back());
    }
    lru_.push_front(addr);
    Entry& e = lines_[addr];
    std::memcpy(e.line.data.data(), data, kCachelineSize);
    e.line.dirty = dirty;
    e.lru_it = lru_.begin();
    return victim;
  }

  std::optional<WriteBackCache::EvictedLine> Remove(uint64_t addr) {
    if (!lines_.contains(addr)) {
      return std::nullopt;
    }
    ++stats_.invalidations;
    return Take(addr);
  }

  void DropAll() {
    lines_.clear();
    lru_.clear();
  }

  size_t size() const { return lines_.size(); }
  const WriteBackCache::Stats& stats() const { return stats_; }

 private:
  struct Entry {
    WriteBackCache::Line line;
    std::list<uint64_t>::iterator lru_it;
  };

  WriteBackCache::EvictedLine Take(uint64_t addr) {
    auto it = lines_.find(addr);
    WriteBackCache::EvictedLine ev;
    ev.line_addr = addr;
    ev.dirty = it->second.line.dirty;
    ev.data = it->second.line.data;
    if (ev.dirty) {
      ++stats_.writebacks;
    }
    lru_.erase(it->second.lru_it);
    lines_.erase(it);
    return ev;
  }

  size_t capacity_;
  std::unordered_map<uint64_t, Entry> lines_;
  std::list<uint64_t> lru_;
  WriteBackCache::Stats stats_;
};

void ExpectSameLine(const WriteBackCache::Line* got,
                    const WriteBackCache::Line* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (got != nullptr) {
    EXPECT_EQ(got->dirty, want->dirty);
    EXPECT_EQ(got->data, want->data);
  }
}

void ExpectSameEvicted(const std::optional<WriteBackCache::EvictedLine>& got,
                       const std::optional<WriteBackCache::EvictedLine>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) {
    EXPECT_EQ(got->line_addr, want->line_addr);
    EXPECT_EQ(got->dirty, want->dirty);
    EXPECT_EQ(got->data, want->data);
  }
}

// Seeded differential test: random Find / Peek / Install / Remove /
// DropAll traffic must produce identical results, victims, dirty bits,
// occupancy and statistics in the cache and the reference LRU.
class CacheDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheDifferentialTest, MatchesReferenceLru) {
  const size_t cap = GetParam();
  WriteBackCache cache(cap);
  ReferenceLru ref(cap);
  std::mt19937_64 rng(0xC0FFEE + cap);
  // Lines drawn from a working set a bit larger than the cache, spread
  // over two far-apart windows so the index sees unrelated high bits.
  const uint64_t span = 2 * cap + 5;
  auto draw_addr = [&] {
    uint64_t line = rng() % span;
    uint64_t base = (rng() % 2 == 0) ? 0 : (uint64_t{0x3b} << 40);
    return base + line * kCachelineSize;
  };
  const int ops = cap >= 1024 ? 200000 : 20000;
  // Rare enough that the cache refills to capacity between drops.
  const uint64_t drop_every = 20 * span;
  uint64_t victims = 0;
  for (int i = 0; i < ops; ++i) {
    uint64_t addr = draw_addr();
    uint64_t roll = rng() % 1000;
    if (rng() % drop_every == 0) {
      roll = 1000;
    }
    if (roll < 400) {
      WriteBackCache::Line* got = cache.Find(addr);
      WriteBackCache::Line* want = ref.Find(addr);
      ExpectSameLine(got, want);
      if (got != nullptr && rng() % 2 == 0) {  // a store hit dirties the line
        auto b = std::byte{static_cast<uint8_t>(rng())};
        size_t at = rng() % kCachelineSize;
        got->data[at] = want->data[at] = b;
        got->dirty = want->dirty = true;
      }
    } else if (roll < 500) {
      ExpectSameLine(cache.Peek(addr), ref.Peek(addr));
    } else if (roll < 850) {
      auto data = LinePattern(static_cast<uint8_t>(rng()));
      bool dirty = rng() % 3 == 0;
      auto got = cache.Install(addr, data.data(), dirty);
      ExpectSameEvicted(got, ref.Install(addr, data.data(), dirty));
      victims += got.has_value() ? 1 : 0;
    } else if (roll < 1000) {
      ExpectSameEvicted(cache.Remove(addr), ref.Remove(addr));
    } else {
      cache.DropAll();
      ref.DropAll();
    }
    ASSERT_EQ(cache.size(), ref.size()) << "op " << i;
    ASSERT_EQ(cache.stats().hits, ref.stats().hits);
    ASSERT_EQ(cache.stats().misses, ref.stats().misses);
    ASSERT_EQ(cache.stats().writebacks, ref.stats().writebacks);
    ASSERT_EQ(cache.stats().invalidations, ref.stats().invalidations);
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged at op " << i;
    }
  }
  if (cap > 0) {
    EXPECT_GT(victims, 0u);  // the traffic did exercise eviction
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheDifferentialTest,
                         ::testing::Values(0, 1, 7, 4096));

}  // namespace
}  // namespace cxlpool::mem
