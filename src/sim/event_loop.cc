#include "src/sim/event_loop.h"

#include <bit>

#include "src/common/check.h"

namespace cxlpool::sim {

void EventLoop::Push(Nanos when, uintptr_t target) {
  if (when < now_) {
    when = now_;  // never travel back in time
  }
  uint64_t seq = next_seq_++;
  if (static_cast<uint64_t>(when - now_) >= kWheelSize) {
    overflow_.push(Item{when, seq, target});
    return;
  }
  uint32_t n;
  if (free_node_ != kNil) {
    n = free_node_;
    free_node_ = nodes_[n].next;
    nodes_[n] = Node{seq, target, kNil};
  } else {
    CXLPOOL_CHECK(nodes_.size() < kNil);
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{seq, target, kNil});
  }
  size_t b = static_cast<size_t>(when) & kWheelMask;
  uint64_t bit = uint64_t{1} << (b & 63);
  Bucket& bucket = buckets_[b];
  if ((occupied_[b >> 6] & bit) != 0) {
    nodes_[bucket.tail].next = n;
  } else {
    occupied_[b >> 6] |= bit;
    bucket.head = n;
  }
  bucket.tail = n;
  ++wheel_count_;
}

void EventLoop::ResumeAt(Nanos when, std::coroutine_handle<> h) {
  CXLPOOL_DCHECK(h);
  Push(when, reinterpret_cast<uintptr_t>(h.address()));
}

bool EventLoop::FindNext(Next& next) const {
  if (wheel_count_ == 0) {
    if (overflow_.empty()) {
      return false;
    }
    next = Next{overflow_.top().when, kNil};
    return true;
  }
  // The first occupied bucket at or after now's bucket, wrapping around.
  size_t start = static_cast<size_t>(now_) & kWheelMask;
  size_t word = start >> 6;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (start & 63));
  while (bits == 0) {
    word = (word + 1) % occupied_.size();
    bits = occupied_[word];
  }
  size_t b = (word << 6) | static_cast<size_t>(std::countr_zero(bits));
  Nanos when = now_ + static_cast<Nanos>((b - start) & kWheelMask);
  if (!overflow_.empty()) {
    const Item& top = overflow_.top();
    if (top.when < when ||
        (top.when == when && top.seq < nodes_[buckets_[b].head].seq)) {
      next = Next{top.when, kNil};
      return true;
    }
  }
  next = Next{when, static_cast<uint32_t>(b)};
  return true;
}

void EventLoop::RunOne(const Next& next) {
  uintptr_t target;
  if (next.bucket == kNil) {
    target = overflow_.top().target;
    overflow_.pop();
  } else {
    Bucket& bucket = buckets_[next.bucket];
    uint32_t n = bucket.head;
    target = nodes_[n].target;
    if (n == bucket.tail) {
      occupied_[next.bucket >> 6] &= ~(uint64_t{1} << (next.bucket & 63));
    } else {
      bucket.head = nodes_[n].next;
    }
    nodes_[n].next = free_node_;
    free_node_ = n;
    --wheel_count_;
  }
  now_ = next.when;
  ++executed_;
  std::coroutine_handle<>::from_address(reinterpret_cast<void*>(target)).resume();
}

void EventLoop::Run() {
  stopped_ = false;
  Next next{};
  while (!stopped_ && FindNext(next)) {
    RunOne(next);
  }
}

void EventLoop::RunUntil(Nanos deadline) {
  stopped_ = false;
  Next next{};
  while (!stopped_ && FindNext(next) && next.when <= deadline) {
    RunOne(next);
  }
  // Only reached with nothing due by `deadline`, so every wheel event
  // still lies within the horizon of the new now().
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace cxlpool::sim
