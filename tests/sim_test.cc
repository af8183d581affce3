#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "src/sim/bandwidth.h"
#include "src/sim/chaos.h"
#include "src/sim/event_loop.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace cxlpool::sim {
namespace {

// --- EventLoop ---

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(30, [&] { order.push_back(3); });
  loop.Schedule(10, [&] { order.push_back(1); });
  loop.Schedule(20, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
  EXPECT_EQ(loop.executed(), 3u);
}

TEST(EventLoopTest, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.Schedule(100, [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ReentrantScheduling) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(5, [&] {
    ++fired;
    loop.Schedule(5, [&] { ++fired; });
  });
  loop.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoopTest, RunUntilLeavesFutureEvents) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(10, [&] { ++fired; });
  loop.Schedule(100, [&] { ++fired; });
  loop.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 50);
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, PastSchedulingClampsToNow) {
  EventLoop loop;
  Nanos seen = -1;
  loop.Schedule(100, [&] {
    loop.ScheduleAt(5, [&] { seen = loop.now(); });  // 5 < now=100
  });
  loop.Run();
  EXPECT_EQ(seen, 100);
}

TEST(EventLoopTest, StopInterruptsRun) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(1, [&] {
    ++fired;
    loop.Stop();
  });
  loop.Schedule(2, [&] { ++fired; });
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, SameInstantFifoAcrossHandlesAndCallbacks) {
  EventLoop loop;
  std::vector<int> order;
  auto waiter = [](EventLoop& l, std::vector<int>& log, int tag) -> Task<> {
    co_await WaitUntil(l, 100);  // queued through EventLoop::ResumeAt
    log.push_back(tag);
  };
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      Spawn(waiter(loop, order, i));
    } else {
      loop.ScheduleAt(100, [&order, i] { order.push_back(i); });
    }
  }
  // Same-instant events queued while the burst runs go after it: an Event
  // wake-up (also a handle item) and a callback, in that order.
  Event ev(loop);
  auto event_waiter = [](Event& e, std::vector<int>& log) -> Task<> {
    co_await e.Wait();
    log.push_back(10);
  };
  Spawn(event_waiter(ev, order));
  loop.ScheduleAt(100, [&] {
    order.push_back(8);
    ev.Set();
    loop.ScheduleAt(100, [&order] { order.push_back(11); });
  });
  EXPECT_EQ(loop.pending(), 9u);
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11}));
  EXPECT_EQ(loop.now(), 100);
  EXPECT_EQ(loop.executed(), 11u);
}

TEST(EventLoopTest, CallbackCanReuseItsOwnSlotWhileRunning) {
  EventLoop loop;
  std::vector<std::string> seen;
  // The capture is long enough to live on the heap: if the running
  // callback were overwritten in place, reading it afterwards would fail.
  std::string tag = "first callback, long enough to need a heap buffer";
  loop.Schedule(10, [&loop, &seen, tag] {
    // The slot this callback came from is free again: the next schedule
    // takes it, and a burst grows the table underneath the running call.
    loop.Schedule(0, [&seen] { seen.push_back("reused slot"); });
    for (int i = 0; i < 64; ++i) {
      loop.Schedule(5, [&seen, i] { seen.push_back("burst " + std::to_string(i)); });
    }
    seen.push_back(tag);
  });
  loop.Run();
  ASSERT_EQ(seen.size(), 66u);
  EXPECT_EQ(seen[0], tag);
  EXPECT_EQ(seen[1], "reused slot");
  EXPECT_EQ(seen[2], "burst 0");
  EXPECT_EQ(seen[65], "burst 63");
  EXPECT_EQ(loop.now(), 15);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, RunUntilLeavesHandlesAndCallbacksQueued) {
  EventLoop loop;
  std::vector<int> order;
  auto waiter = [](EventLoop& l, std::vector<int>& log) -> Task<> {
    co_await Delay(l, 100);
    log.push_back(1);
  };
  Spawn(waiter(loop, order));
  loop.Schedule(100, [&order] { order.push_back(2); });
  loop.Schedule(20, [&order] { order.push_back(0); });
  loop.RunUntil(50);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(loop.now(), 50);
  EXPECT_EQ(loop.pending(), 2u);
  loop.RunUntil(99);
  EXPECT_EQ(loop.pending(), 2u);
  loop.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, StopInTheMiddleOfASameInstantBurst) {
  EventLoop loop;
  std::vector<int> order;
  auto waiter = [](EventLoop& l, std::vector<int>& log, int tag) -> Task<> {
    co_await Delay(l, 7);
    log.push_back(tag);
  };
  Spawn(waiter(loop, order, 0));
  loop.Schedule(7, [&order] { order.push_back(1); });
  loop.Schedule(7, [&] {
    order.push_back(2);
    loop.Stop();
  });
  Spawn(waiter(loop, order, 3));
  loop.Schedule(7, [&order] { order.push_back(4); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.executed(), 3u);
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.now(), 7);
  loop.Run();  // resumes the rest of the burst in order
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(loop.now(), 7);
}

TEST(EventLoopTest, PendingAndEmptyCountBothKinds) {
  EventLoop loop;
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
  auto waiter = [](EventLoop& l) -> Task<> { co_await Delay(l, 3); };
  Spawn(waiter(loop));
  EXPECT_FALSE(loop.empty());
  EXPECT_EQ(loop.pending(), 1u);
  loop.Schedule(1, [] {});
  loop.Schedule(2, [] {});
  EXPECT_EQ(loop.pending(), 3u);
  loop.RunUntil(1);
  EXPECT_EQ(loop.pending(), 2u);
  loop.Run();
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.executed(), 3u);
}

// --- Coroutine frame recycling ---

// Suspends for 1 ns and records the awaiting coroutine's frame address.
struct RecordFrame {
  EventLoop& loop;
  void*& frame;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    frame = h.address();
    loop.ResumeAt(loop.now() + 1, h);
  }
  void await_resume() const {}
};

// A coroutine whose frame holds an N-byte local across a suspension.
template <size_t N>
Task<int> FrameOf(EventLoop& loop, void*& frame) {
  std::array<char, N> buf{};
  buf[N - 1] = static_cast<char>(N % 100);
  co_await RecordFrame{loop, frame};
  co_return buf[N - 1] + buf[0];
}

// Runs FrameOf<N> to completion and returns its frame address.
template <size_t N>
void* RunFrameOf(EventLoop& loop) {
  void* frame = nullptr;
  EXPECT_EQ(RunBlocking(loop, FrameOf<N>(loop, frame)), static_cast<int>(N % 100));
  return frame;
}

TEST(FramePoolTest, ServesAFreedFrameToTheNextRequestOfItsClass) {
  using task_internal::FramePool;
  if (!FramePool::kEnabled) {
    GTEST_SKIP() << "frame recycling is compiled out under AddressSanitizer";
  }
  // 200 and 230 bytes share the 193..256 B class. The host allocator would
  // hand a freed block straight back to the next request of its size, so
  // one such request in between shows that the frame stayed in the pool.
  void* a = FramePool::Allocate(200);
  FramePool::Release(a, 200);
  void* host = ::operator new(200);
  void* b = FramePool::Allocate(230);
  EXPECT_EQ(b, a);
  EXPECT_NE(host, a);
  ::operator delete(host);
  FramePool::Release(b, 230);

  // An oversize block goes back to the host allocator, never onto a class
  // list: the largest class keeps handing out its own cached block.
  void* top = FramePool::Allocate(2048);
  FramePool::Release(top, 2048);
  void* big = FramePool::Allocate(4096);
  FramePool::Release(big, 4096);
  void* again = FramePool::Allocate(2000);
  EXPECT_EQ(again, top);
  EXPECT_NE(again, big);
  FramePool::Release(again, 2000);
}

TEST(FramePoolTest, RecyclesTaskFramesPerSizeClassAndPassesOversizeThrough) {
  constexpr bool kRecycles = task_internal::FramePool::kEnabled;
  EventLoop loop;
  RunFrameOf<8>(loop);  // warms the classes RunBlocking's own frames use
  // Sizes chosen to land in different 64 B classes, the last near the top.
  void* f200 = RunFrameOf<200>(loop);
  void* f700 = RunFrameOf<700>(loop);
  void* f1300 = RunFrameOf<1300>(loop);
  void* f1900 = RunFrameOf<1900>(loop);
  // A later run of the same size reuses the first run's frame.
  auto expect_reused = [&] {
    void* r200 = RunFrameOf<200>(loop);
    void* r700 = RunFrameOf<700>(loop);
    void* r1300 = RunFrameOf<1300>(loop);
    void* r1900 = RunFrameOf<1900>(loop);
    if (kRecycles) {
      EXPECT_EQ(r200, f200);
      EXPECT_EQ(r700, f700);
      EXPECT_EQ(r1300, f1300);
      EXPECT_EQ(r1900, f1900);
    }
  };
  expect_reused();

  // An oversize frame comes from the host allocator and goes back to it.
  // It lands on no class list, so every class still serves its own frame.
  void* big = RunFrameOf<8192>(loop);
  if (kRecycles) {
    for (void* f : {f200, f700, f1300, f1900}) {
      EXPECT_NE(big, f);
    }
  }
  expect_reused();
  EXPECT_EQ(loop.now(), 14);
}

// --- Task / coroutines ---

Task<int> Immediate() { co_return 7; }

TEST(TaskTest, ImmediateResult) {
  EventLoop loop;
  EXPECT_EQ(RunBlocking(loop, Immediate()), 7);
}

Task<int> DelayedValue(EventLoop& loop, Nanos d, int v) {
  co_await Delay(loop, d);
  co_return v;
}

TEST(TaskTest, DelayAdvancesTime) {
  EventLoop loop;
  int v = RunBlocking(loop, DelayedValue(loop, 250, 9));
  EXPECT_EQ(v, 9);
  EXPECT_EQ(loop.now(), 250);
}

Task<int> Nested(EventLoop& loop) {
  int a = co_await DelayedValue(loop, 100, 1);
  int b = co_await DelayedValue(loop, 50, 2);
  co_return a + b;
}

TEST(TaskTest, NestedAwaitsAccumulateTime) {
  EventLoop loop;
  EXPECT_EQ(RunBlocking(loop, Nested(loop)), 3);
  EXPECT_EQ(loop.now(), 150);
}

TEST(TaskTest, ZeroDelayDoesNotSuspend) {
  EventLoop loop;
  bool done = false;
  auto t = [](EventLoop& l, bool& flag) -> Task<> {
    co_await Delay(l, 0);
    co_await Delay(l, -5);
    flag = true;
  };
  Spawn(t(loop, done));
  // Spawn runs eagerly until first real suspension; zero delays are ready.
  EXPECT_TRUE(done);
  EXPECT_EQ(loop.now(), 0);
}

TEST(TaskTest, SpawnRunsConcurrently) {
  EventLoop loop;
  std::vector<int> order;
  auto actor = [](EventLoop& l, std::vector<int>& log, Nanos d, int tag) -> Task<> {
    co_await Delay(l, d);
    log.push_back(tag);
  };
  Spawn(actor(loop, order, 30, 3));
  Spawn(actor(loop, order, 10, 1));
  Spawn(actor(loop, order, 20, 2));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- Sync primitives ---

TEST(SyncTest, EventWakesWaiters) {
  EventLoop loop;
  Event e(loop);
  int woken = 0;
  auto waiter = [](Event& ev, int& count) -> Task<> {
    co_await ev.Wait();
    ++count;
  };
  Spawn(waiter(e, woken));
  Spawn(waiter(e, woken));
  loop.Run();
  EXPECT_EQ(woken, 0);  // nothing set yet
  e.Set();
  loop.Run();
  EXPECT_EQ(woken, 2);
}

TEST(SyncTest, SetEventDoesNotBlock) {
  EventLoop loop;
  Event e(loop);
  e.Set();
  bool done = false;
  auto waiter = [](Event& ev, bool& flag) -> Task<> {
    co_await ev.Wait();
    flag = true;
  };
  Spawn(waiter(e, done));
  EXPECT_TRUE(done);  // ready immediately, no suspension
}

TEST(SyncTest, SemaphoreLimitsConcurrency) {
  EventLoop loop;
  Semaphore sem(loop, 2);
  int active = 0;
  int max_active = 0;
  auto worker = [](EventLoop& l, Semaphore& s, int& act, int& peak) -> Task<> {
    co_await s.Acquire();
    ++act;
    peak = std::max(peak, act);
    co_await Delay(l, 100);
    --act;
    s.Release();
  };
  for (int i = 0; i < 6; ++i) {
    Spawn(worker(loop, sem, active, max_active));
  }
  loop.Run();
  EXPECT_EQ(active, 0);
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(loop.now(), 300);  // 6 workers, 2 at a time, 100 ns each
}

TEST(SyncTest, SemaphoreTryAcquire) {
  EventLoop loop;
  Semaphore sem(loop, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(SyncTest, QueueDeliversInOrder) {
  EventLoop loop;
  Queue<int> q(loop);
  std::vector<int> got;
  auto consumer = [](Queue<int>& queue, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      out.push_back(co_await queue.Pop());
    }
  };
  Spawn(consumer(q, got));
  q.Push(1);
  q.Push(2);
  loop.Run();
  q.Push(3);
  loop.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SyncTest, QueueTryPop) {
  EventLoop loop;
  Queue<int> q(loop);
  int v = 0;
  EXPECT_FALSE(q.TryPop(&v));
  q.Push(5);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 5);
}

// --- Random ---

TEST(RandomTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    uint64_t k = rng.UniformInt(uint64_t{10});
    EXPECT_LT(k, 10u);
    int64_t j = rng.UniformInt(int64_t{-5}, int64_t{5});
    EXPECT_GE(j, -5);
    EXPECT_LE(j, 5);
  }
}

TEST(RandomTest, ExponentialMean) {
  Rng rng(11);
  Summary s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Exponential(100.0));
  }
  EXPECT_NEAR(s.mean(), 100.0, 3.0);
}

TEST(RandomTest, NormalMoments) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Normal(50.0, 10.0));
  }
  EXPECT_NEAR(s.mean(), 50.0, 0.5);
  EXPECT_NEAR(s.stddev(), 10.0, 0.5);
}

TEST(RandomTest, CategoricalRespectsWeights) {
  Rng rng(17);
  double w[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.Categorical(w)];
  }
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.3);
}

TEST(RandomTest, ZipfIsSkewed) {
  Rng rng(19);
  ZipfGenerator zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[9] * 5);   // rank 0 ~10x rank 9 at s=1
  EXPECT_GT(counts[0], counts[99] * 30);
}

TEST(RandomTest, ZipfianSamplerDeterministicForFixedSeed) {
  ZipfianSampler zipf(1'000'000, 0.99);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    uint64_t va = zipf.Sample(a);
    uint64_t vb = zipf.Sample(b);
    ASSERT_EQ(va, vb);
    ASSERT_LT(va, zipf.n());
  }
}

TEST(RandomTest, ZipfianSamplerHeadMass) {
  // Empirical head mass vs. the analytic zipf(0.99) distribution over 10^5
  // keys: H = sum k^-0.99 ~= 12.3, so rank 0 carries ~8.1% of the mass and
  // the top-10 ranks together ~23.6%.
  ZipfianSampler zipf(100'000, 0.99);
  Rng rng(7);
  constexpr int kSamples = 200'000;
  int head = 0;
  int top10 = 0;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t r = zipf.Sample(rng);
    if (r == 0) {
      ++head;
    }
    if (r < 10) {
      ++top10;
    }
  }
  double head_frac = static_cast<double>(head) / kSamples;
  double top10_frac = static_cast<double>(top10) / kSamples;
  EXPECT_NEAR(head_frac, 0.081, 0.02);
  EXPECT_NEAR(top10_frac, 0.236, 0.04);
}

TEST(RandomTest, ZipfianSamplerMatchesCdfTableForSmallN) {
  // Rejection-inversion and the exact CDF table must agree on the head
  // frequencies for a key space small enough to tabulate.
  constexpr size_t kN = 1000;
  constexpr double kTheta = 0.99;
  constexpr int kSamples = 100'000;
  ZipfianSampler ri(kN, kTheta);
  ZipfGenerator table(kN, kTheta);
  Rng ra(23);
  Rng rb(29);
  std::vector<int> ca(kN, 0);
  std::vector<int> cb(kN, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++ca[ri.Sample(ra)];
    ++cb[table.Sample(rb)];
  }
  for (size_t rank : {size_t{0}, size_t{1}, size_t{5}}) {
    double fa = static_cast<double>(ca[rank]) / kSamples;
    double fb = static_cast<double>(cb[rank]) / kSamples;
    EXPECT_NEAR(fa, fb, 0.015) << "rank " << rank;
  }
}

TEST(RandomTest, ZipfianSamplerDegenerateSingleItem) {
  ZipfianSampler zipf(1, 0.99);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

// --- Stats ---

TEST(StatsTest, SummaryBasics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-9);
}

TEST(StatsTest, HistogramExactSmallValues) {
  Histogram h;
  for (int i = 0; i < 10; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 9);
}

TEST(StatsTest, HistogramPercentileAccuracy) {
  Histogram h;
  for (int64_t v = 1; v <= 100000; ++v) {
    h.Add(v);
  }
  // Relative error bound from sub-bucketing: 2^-6 ~ 1.6%.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.50)), 50000.0, 50000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 99000.0, 99000.0 * 0.02);
  EXPECT_EQ(h.Percentile(1.0), 100000);
}

TEST(StatsTest, HistogramMerge) {
  Histogram a;
  Histogram b;
  a.Add(100);
  b.Add(300);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100);
  EXPECT_EQ(a.max(), 300);
}

TEST(StatsTest, HistogramNegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(StatsTest, CounterDelta) {
  Counter c;
  c.Add(5);
  c.Add(3);
  EXPECT_EQ(c.total(), 8u);
  EXPECT_EQ(c.TakeDelta(), 8u);
  c.Add(2);
  EXPECT_EQ(c.TakeDelta(), 2u);
  EXPECT_EQ(c.TakeDelta(), 0u);
}

// --- Bandwidth ---

TEST(BandwidthTest, IdleLinkIsSerializationOnly) {
  BandwidthQueue q(10.0);  // 10 B/ns
  EXPECT_EQ(q.Acquire(0, 1000), 100);
  EXPECT_EQ(q.next_free(), 100);
}

TEST(BandwidthTest, BackToBackTransfersQueue) {
  BandwidthQueue q(10.0);
  EXPECT_EQ(q.Acquire(0, 1000), 100);
  EXPECT_EQ(q.Acquire(0, 1000), 200);  // queues behind the first
  EXPECT_EQ(q.Acquire(500, 1000), 600);  // link idle again by t=500
}

TEST(BandwidthTest, PeekDoesNotReserve) {
  BandwidthQueue q(10.0);
  EXPECT_EQ(q.Peek(0, 1000), 100);
  EXPECT_EQ(q.Peek(0, 1000), 100);  // unchanged
  EXPECT_EQ(q.next_free(), 0);
}

TEST(BandwidthTest, UtilizationTracksBusyFraction) {
  BandwidthQueue q(10.0);
  q.Acquire(0, 1000);  // busy 0..100
  EXPECT_NEAR(q.Utilization(200), 0.5, 1e-9);
  EXPECT_NEAR(q.Utilization(100), 1.0, 1e-9);
}

TEST(BandwidthTest, RateChangeAffectsLaterTransfers) {
  BandwidthQueue q(10.0);
  EXPECT_EQ(q.Acquire(0, 100), 10);
  q.set_bytes_per_ns(1.0);  // degraded link
  EXPECT_EQ(q.Acquire(10, 100), 110);
}

TEST(BandwidthTest, BacklogVisible) {
  BandwidthQueue q(1.0);
  q.Acquire(0, 500);
  EXPECT_EQ(q.Backlog(100), 400);
  EXPECT_EQ(q.Backlog(600), 0);
}

// --- ChaosInjector ---

TEST(ChaosInjectorTest, RandomScheduleIsDeterministicPerSeed) {
  EventLoop loop;
  auto make_plan = [&loop](uint64_t seed) {
    ChaosInjector::Options o;
    o.seed = seed;
    ChaosInjector chaos(loop, o);
    chaos.AddFault("a", [] {}, [] {});
    chaos.AddFault("b", [] {}, [] {});
    chaos.AddFault("c", [] {}, [] {});
    chaos.ScheduleRandom(0, 10 * kMillisecond);
    return chaos.plan();
  };
  auto p1 = make_plan(123);
  auto p2 = make_plan(123);
  auto other = make_plan(124);
  ASSERT_EQ(p1.size(), p2.size());
  ASSERT_GT(p1.size(), 0u);
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].at, p2[i].at);
    EXPECT_EQ(p1[i].fault, p2[i].fault);
    EXPECT_EQ(p1[i].outage, p2[i].outage);
    // Events are serialized: next failure never before the prior repair.
    if (i > 0) {
      EXPECT_GE(p1[i].at, p1[i - 1].at + p1[i - 1].outage);
    }
  }
  // A different seed produces a different storm.
  bool differs = other.size() != p1.size();
  for (size_t i = 0; !differs && i < p1.size(); ++i) {
    differs = other[i].at != p1[i].at || other[i].fault != p1[i].fault;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosInjectorTest, ScriptedFaultsMeasureMttr) {
  EventLoop loop;
  StopToken stop;
  bool down = false;
  ChaosInjector::Options o;
  o.probe_interval = kMicrosecond;
  ChaosInjector chaos(loop, o);
  chaos.AddFault("flag", [&down] { down = true; }, [&down] { down = false; });
  int invariant_checks = 0;
  chaos.AddInvariant("counted", [&invariant_checks]() -> std::string {
    ++invariant_checks;
    return "";
  });
  // Service is down exactly while the fault is active: MTTR == outage.
  chaos.SetRecoveryProbe([&down] { return !down; });
  chaos.ScheduleFail(10 * kMicrosecond, 0, 30 * kMicrosecond);
  chaos.ScheduleFail(100 * kMicrosecond, 0, 20 * kMicrosecond);
  chaos.Start(stop);
  loop.RunFor(kMillisecond);

  EXPECT_EQ(chaos.injections(), 2u);
  EXPECT_EQ(chaos.recoveries(), 2u);
  EXPECT_EQ(chaos.violations(), 0u);
  EXPECT_EQ(chaos.mttr().count(), 2u);
  EXPECT_EQ(chaos.mttr().max(), 30 * kMicrosecond);
  EXPECT_EQ(invariant_checks, 2);  // once after each recovery
}

TEST(ChaosInjectorTest, NoRecoveryWithinTimeoutIsViolation) {
  EventLoop loop;
  StopToken stop;
  ChaosInjector::Options o;
  o.probe_interval = kMicrosecond;
  o.probe_timeout = 50 * kMicrosecond;
  ChaosInjector chaos(loop, o);
  chaos.AddFault("wedge", [] {}, [] {});
  chaos.SetRecoveryProbe([] { return false; });  // never comes back
  chaos.ScheduleFail(10 * kMicrosecond, 0, 20 * kMicrosecond);
  chaos.Start(stop);
  loop.RunFor(kMillisecond);

  EXPECT_EQ(chaos.injections(), 1u);
  EXPECT_EQ(chaos.recoveries(), 0u);
  EXPECT_EQ(chaos.violations(), 1u);
  ASSERT_EQ(chaos.violation_log().size(), 1u);
  EXPECT_NE(chaos.violation_log()[0].find("no recovery"), std::string::npos);
}

TEST(ChaosInjectorTest, TraceDigestReproducible) {
  auto run = []() {
    EventLoop loop;
    StopToken stop;
    bool down = false;
    ChaosInjector::Options o;
    o.seed = 99;
    o.mean_interval = 100 * kMicrosecond;
    o.min_outage = 5 * kMicrosecond;
    o.max_outage = 40 * kMicrosecond;
    o.probe_interval = kMicrosecond;
    ChaosInjector chaos(loop, o);
    chaos.AddFault("flag", [&down] { down = true; }, [&down] { down = false; });
    chaos.SetRecoveryProbe([&down] { return !down; });
    chaos.ScheduleRandom(0, 2 * kMillisecond);
    chaos.Start(stop);
    loop.RunFor(5 * kMillisecond);
    return chaos.TraceDigest();
  };
  std::string d1 = run();
  std::string d2 = run();
  EXPECT_EQ(d1, d2);
  EXPECT_FALSE(d1.empty());
}

}  // namespace
}  // namespace cxlpool::sim
