// Coroutine synchronization primitives for the simulator: latched events,
// counting semaphores, and an awaitable FIFO queue. All are single-threaded
// (simulated concurrency only); wakeups go through the event loop at the
// current instant so resumption is never re-entrant.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/event_loop.h"
#include "src/sim/task.h"

namespace cxlpool::sim {

// A latched (manual-reset) event. Wait() returns immediately when the event
// is set; Set() latches and wakes all current waiters. Waiters that guard a
// condition should loop: `while (!cond) { co_await e.Wait(); e.Reset(); }`.
class Event {
 public:
  explicit Event(EventLoop& loop) : loop_(loop) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }

  void Set() {
    set_ = true;
    WakeAll();
  }

  void Reset() { set_ = false; }

  auto Wait() {
    struct Awaiter {
      Event& event;
      bool await_ready() const { return event.set_; }
      void await_suspend(std::coroutine_handle<> h) { event.waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  void WakeAll() {
    if (waiters_.empty()) {
      return;
    }
    std::vector<std::coroutine_handle<>> batch;
    batch.swap(waiters_);
    for (auto h : batch) {
      loop_.ResumeAt(loop_.now(), h);
    }
  }

  EventLoop& loop_;
  std::vector<std::coroutine_handle<>> waiters_;
  bool set_ = false;
};

// Counting semaphore. Used to model limited resources (worker cores, queue
// slots) inside simulated hosts.
class Semaphore {
 public:
  Semaphore(EventLoop& loop, int64_t initial)
      : count_(initial), available_(loop) {}

  Task<> Acquire(int64_t n = 1) {
    while (count_ < n) {
      co_await available_.Wait();
      available_.Reset();
    }
    count_ -= n;
  }

  // Non-blocking acquire; returns false if insufficient permits.
  bool TryAcquire(int64_t n = 1) {
    if (count_ < n) {
      return false;
    }
    count_ -= n;
    return true;
  }

  void Release(int64_t n = 1) {
    count_ += n;
    available_.Set();
  }

  int64_t count() const { return count_; }

 private:
  int64_t count_;
  Event available_;
};

// An awaitable unbounded FIFO queue. Any number of producers and consumers;
// consumers block (in simulated time) while the queue is empty.
template <typename T>
class Queue {
 public:
  explicit Queue(EventLoop& loop) : not_empty_(loop) {}

  void Push(T item) {
    items_.push_back(std::move(item));
    not_empty_.Set();
  }

  Task<T> Pop() {
    while (items_.empty()) {
      co_await not_empty_.Wait();
      not_empty_.Reset();
    }
    T v = std::move(items_.front());
    items_.pop_front();
    co_return v;
  }

  bool TryPop(T* out) {
    if (items_.empty()) {
      return false;
    }
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

 private:
  Event not_empty_;
  std::deque<T> items_;
};

}  // namespace cxlpool::sim

#endif  // SRC_SIM_SYNC_H_
