// Discrete-event simulation core: a calendar keyed by simulated time
// (nanoseconds). Single-threaded by design — determinism is a feature;
// concurrency in the simulated system is expressed with coroutines
// (src/sim/task.h), not OS threads.
//
// The calendar holds small trivially-copyable items, and every item's
// target is a coroutine to resume: a Delay, an Event wake-up, or the
// one-shot frame ScheduleAt wraps a callable in. Those frames come from
// the recycled FramePool, so the loop itself allocates nothing per event.
//
// Events due within kWheelSize ns of now() sit in a timing wheel with one
// bucket per nanosecond; later ones wait in a binary heap. Every wheel
// event lies in [now, now + kWheelSize), so a bucket holds exactly one
// instant, and its events are appended in scheduling order. Popping the
// earlier of the first occupied bucket's head and the heap's top by
// (when, seq) therefore gives the heap-only order exactly.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/sim/frame_pool.h"

namespace cxlpool::sim {

namespace task_internal {
// A coroutine that starts suspended, runs once when resumed and frees its
// own frame when it ends: ScheduleAt's callback frames and Spawn's driver.
struct OneShot {
  struct promise_type : PooledFrame {
    OneShot get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  std::coroutine_handle<> handle;
};

// Runs `f` once when resumed.
template <typename F>
OneShot RunOnce(F f) {
  f();
  co_return;
}
}  // namespace task_internal

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time. Starts at 0.
  Nanos now() const { return now_; }

  // Runs `f()` at absolute simulated time `when` (clamped to now()).
  // Events scheduled for the same instant run in scheduling order. `f`
  // lives in a one-shot coroutine frame until it has run; a frame still
  // pending when the loop is destroyed is leaked, like a pending detached
  // actor. An exception escaping `f` terminates.
  template <typename F>
  void ScheduleAt(Nanos when, F f) {
    ResumeAt(when, task_internal::RunOnce(std::move(f)).handle);
  }

  // Runs `f()` after `delay` nanoseconds of simulated time.
  template <typename F>
  void Schedule(Nanos delay, F f) {
    ScheduleAt(now_ + delay, std::move(f));
  }

  // Resumes coroutine `h` at absolute simulated time `when` (clamped to
  // now()). Shares the same-instant FIFO order with ScheduleAt.
  void ResumeAt(Nanos when, std::coroutine_handle<> h);

  // Processes events until the calendar is empty or Stop() is called.
  void Run();

  // Processes events with time <= `deadline`; afterwards now() == deadline
  // (unless Stop() was called earlier). Events beyond the deadline stay
  // queued.
  void RunUntil(Nanos deadline);

  // RunUntil(now() + duration).
  void RunFor(Nanos duration) { RunUntil(now_ + duration); }

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  bool empty() const { return pending() == 0; }
  size_t pending() const { return wheel_count_ + overflow_.size(); }

  // Total number of events executed since construction. Useful for
  // detecting runaway simulations and for the DES micro-benchmarks.
  uint64_t executed() const { return executed_; }

 private:
  // Wheel span in ns (one bucket per ns); a power of two.
  static constexpr size_t kWheelSize = 4096;
  static constexpr size_t kWheelMask = kWheelSize - 1;
  static constexpr uint32_t kNil = UINT32_MAX;

  // `target` is the address of the coroutine frame to resume.
  struct Item {
    Nanos when;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    uintptr_t target;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  // A wheel entry, linked into its bucket's FIFO or into the free list.
  struct Node {
    uint64_t seq;
    uintptr_t target;
    uint32_t next;
  };
  // Valid only while the bucket's occupancy bit is set.
  struct Bucket {
    uint32_t head;
    uint32_t tail;
  };
  // The earliest pending event: a wheel bucket, or the heap's top when
  // `bucket` is kNil.
  struct Next {
    Nanos when;
    uint32_t bucket;
  };

  void Push(Nanos when, uintptr_t target);

  // Locates the earliest pending event. Returns false if none is pending.
  bool FindNext(Next& next) const;

  // Removes the event `next` names, advances now() to it and runs it.
  void RunOne(const Next& next);

  std::array<Bucket, kWheelSize> buckets_;
  std::array<uint64_t, kWheelSize / 64> occupied_{};
  std::vector<Node> nodes_;
  uint32_t free_node_ = kNil;
  size_t wheel_count_ = 0;
  std::priority_queue<Item, std::vector<Item>, Later> overflow_;

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace cxlpool::sim

#endif  // SRC_SIM_EVENT_LOOP_H_
