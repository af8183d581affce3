// C++20 coroutine layer over the event loop.
//
// A Task<T> is a lazy coroutine: it starts running when first awaited (or
// when handed to Spawn for detached execution) and completes by resuming
// its awaiter through symmetric transfer. Actors in the simulation — hosts,
// DMA engines, the orchestrator — are written as Task-returning coroutines
// that await Delay(...) and each other.
//
//   sim::Task<int> Compute(sim::EventLoop& loop) {
//     co_await sim::Delay(loop, 50);   // 50 ns of simulated time
//     co_return 42;
//   }
//   sim::Spawn(Compute(loop));         // detached actor
//   int v = sim::RunBlocking(loop, Compute(loop));  // drive to completion
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/sim/event_loop.h"

namespace cxlpool::sim {

template <typename T>
class Task;

namespace task_internal {

// True when built with AddressSanitizer (GCC defines the macro, Clang
// answers __has_feature). Frame recycling is off then; see FramePool.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kUnderAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kUnderAsan = true;
#else
inline constexpr bool kUnderAsan = false;
#endif
#else
inline constexpr bool kUnderAsan = false;
#endif

// Coroutine frame allocator. An actor that awaits in a loop creates and
// destroys the same child frames millions of times per run, so frames are
// recycled through per-thread free lists in 64 B size classes; frames
// larger than the biggest class go straight to ::operator new. Cached
// frames are never returned to the host allocator. Under AddressSanitizer
// recycling is compiled out, so every frame is really freed and a use of a
// finished coroutine's frame is still reported.
class FramePool {
 public:
  static constexpr bool kEnabled = !kUnderAsan;
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kClasses = 32;  // frames up to 2 KiB

  static void* Allocate(size_t n) {
    if constexpr (kEnabled) {
      size_t c = (n - 1) / kClassBytes;
      if (c < kClasses) {
        if (FreeFrame* f = tls_.free[c]) {
          tls_.free[c] = f->next;
          return f;
        }
        return ::operator new((c + 1) * kClassBytes);
      }
    }
    return ::operator new(n);
  }

  static void Release(void* p, size_t n) noexcept {
    if constexpr (kEnabled) {
      size_t c = (n - 1) / kClassBytes;
      if (c < kClasses) {
        auto* f = static_cast<FreeFrame*>(p);
        f->next = tls_.free[c];
        tls_.free[c] = f;
        return;
      }
    }
    ::operator delete(p, n);
  }

 private:
  struct FreeFrame {
    FreeFrame* next;
  };
  struct State {
    FreeFrame* free[kClasses];
  };
  static constinit inline thread_local State tls_{};
};

// Routes a promise type's frame allocation through FramePool.
struct PooledFrame {
  static void* operator new(size_t n) { return FramePool::Allocate(n); }
  static void operator delete(void* p, size_t n) noexcept {
    FramePool::Release(p, n);
  }
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }

  T TakeResult() {
    if (exception) {
      std::rethrow_exception(exception);
    }
    CXLPOOL_CHECK(value.has_value());
    return std::move(*value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}

  void TakeResult() {
    if (exception) {
      std::rethrow_exception(exception);
    }
  }
};

}  // namespace task_internal

// Lazy, move-only, single-awaiter coroutine handle.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = task_internal::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  // co_await support: starts the coroutine and resumes the awaiter when it
  // finishes.
  auto operator co_await() && {
    struct Awaiter {
      Handle handle;
      bool await_ready() const { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        handle.promise().continuation = cont;
        return handle;  // symmetric transfer: start the child
      }
      T await_resume() { return handle.promise().TakeResult(); }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_ = nullptr;
};

namespace task_internal {
template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}
inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}
}  // namespace task_internal

namespace task_internal {
// Self-destroying driver coroutine used by Spawn().
struct Detached {
  struct promise_type : PooledFrame {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

inline Detached Drive(Task<> task) { co_await std::move(task); }
}  // namespace task_internal

// Runs `task` as a detached actor. The task starts immediately (it runs
// until its first suspension point before Spawn returns) and cleans itself
// up on completion. An exception escaping a detached task terminates.
inline void Spawn(Task<> task) { task_internal::Drive(std::move(task)); }

// Suspends the awaiting coroutine for `delay` nanoseconds of simulated
// time. A non-positive delay continues synchronously without a round trip
// through the event loop.
struct DelayAwaiter {
  EventLoop& loop;
  Nanos delay;
  bool await_ready() const { return delay <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    loop.ResumeAt(loop.now() + delay, h);
  }
  void await_resume() const {}
};

inline DelayAwaiter Delay(EventLoop& loop, Nanos delay) { return {loop, delay}; }

// Suspends until absolute simulated time `when`.
inline DelayAwaiter WaitUntil(EventLoop& loop, Nanos when) {
  return {loop, when - loop.now()};
}

// Drives `task` to completion by running the event loop, then returns its
// result. Intended for tests and benchmark mains. Aborts if the loop drains
// without the task finishing (i.e. the task deadlocked on an event that
// nobody will set).
template <typename T>
T RunBlocking(EventLoop& loop, Task<T> task) {
  std::optional<T> out;
  bool finished = false;
  auto driver = [](EventLoop& l, Task<T> t, std::optional<T>& slot,
                   bool& flag) -> Task<> {
    slot.emplace(co_await std::move(t));
    flag = true;
    l.Stop();  // return control even if background actors keep polling
  };
  Spawn(driver(loop, std::move(task), out, finished));
  while (!finished && !loop.empty()) {
    loop.Run();
  }
  CXLPOOL_CHECK(finished);
  return std::move(*out);
}

inline void RunBlocking(EventLoop& loop, Task<> task) {
  bool finished = false;
  auto driver = [](EventLoop& l, Task<> t, bool& flag) -> Task<> {
    co_await std::move(t);
    flag = true;
    l.Stop();
  };
  Spawn(driver(loop, std::move(task), finished));
  while (!finished && !loop.empty()) {
    loop.Run();
  }
  CXLPOOL_CHECK(finished);
}

}  // namespace cxlpool::sim

#endif  // SRC_SIM_TASK_H_
