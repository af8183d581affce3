// Discrete-event simulation core: a binary-heap calendar keyed by simulated
// time (nanoseconds). Single-threaded by design — determinism is a feature;
// concurrency in the simulated system is expressed with coroutines
// (src/sim/task.h), not OS threads.
//
// The calendar holds small trivially-copyable items. An item's target is
// either a coroutine to resume (the common case: every Delay and every
// Event wake-up) or a slot in a recycled table of callbacks, so the
// per-event path neither allocates nor moves std::function objects around
// the heap.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/units.h"

namespace cxlpool::sim {

using Callback = std::function<void()>;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time. Starts at 0.
  Nanos now() const { return now_; }

  // Runs `cb` at absolute simulated time `when` (clamped to now()).
  // Events scheduled for the same instant run in scheduling order.
  void ScheduleAt(Nanos when, Callback cb);

  // Runs `cb` after `delay` nanoseconds of simulated time.
  void Schedule(Nanos delay, Callback cb) { ScheduleAt(now_ + delay, std::move(cb)); }

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

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

  // Total number of events executed since construction. Useful for
  // detecting runaway simulations and for the DES micro-benchmarks.
  uint64_t executed() const { return executed_; }

 private:
  // `target` is a coroutine frame address (frames are at least 8-byte
  // aligned, so bit 0 is clear) or (callback slot << 1) | 1.
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

  void Push(Nanos when, uintptr_t target);

  // Pops and runs the earliest event. Precondition: !empty().
  void RunOne();

  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::vector<Callback> callbacks_;
  std::vector<uintptr_t> free_slots_;
  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace cxlpool::sim

#endif  // SRC_SIM_EVENT_LOOP_H_
