// Recycled coroutine frames, shared by sim::Task coroutines and the
// self-freeing OneShot frames (ScheduleAt callbacks, Spawn's driver).
#ifndef SRC_SIM_FRAME_POOL_H_
#define SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <new>

namespace cxlpool::sim::task_internal {

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

}  // namespace cxlpool::sim::task_internal

#endif  // SRC_SIM_FRAME_POOL_H_
