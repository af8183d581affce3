#include "src/sim/event_loop.h"

#include <utility>

#include "src/common/check.h"

namespace cxlpool::sim {

void EventLoop::Push(Nanos when, uintptr_t target) {
  if (when < now_) {
    when = now_;  // never travel back in time
  }
  heap_.push(Item{when, next_seq_++, target});
}

void EventLoop::ScheduleAt(Nanos when, Callback cb) {
  CXLPOOL_DCHECK(cb != nullptr);
  uintptr_t slot;
  if (free_slots_.empty()) {
    slot = callbacks_.size();
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  Push(when, (slot << 1) | 1);
}

void EventLoop::ResumeAt(Nanos when, std::coroutine_handle<> h) {
  CXLPOOL_DCHECK(h);
  auto target = reinterpret_cast<uintptr_t>(h.address());
  CXLPOOL_DCHECK((target & 1) == 0);
  Push(when, target);
}

void EventLoop::RunOne() {
  Item item = heap_.top();
  heap_.pop();
  now_ = item.when;
  ++executed_;
  if ((item.target & 1) == 0) {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(item.target))
        .resume();
    return;
  }
  // The callback may schedule more callbacks and grow the table, so it is
  // moved out and its slot freed before it runs.
  uintptr_t slot = item.target >> 1;
  Callback cb = std::move(callbacks_[slot]);
  callbacks_[slot] = nullptr;
  free_slots_.push_back(slot);
  cb();
}

void EventLoop::Run() {
  stopped_ = false;
  while (!heap_.empty() && !stopped_) {
    RunOne();
  }
}

void EventLoop::RunUntil(Nanos deadline) {
  stopped_ = false;
  while (!heap_.empty() && !stopped_ && heap_.top().when <= deadline) {
    RunOne();
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace cxlpool::sim
