#pragma once
// The lock of the runtime's short critical sections: a process's mailbox
// (ProcessState::mu) and exit waiters (exit_mu), the ready queue and the
// any-exit wait list.  Each is held for a few hundred instructions by a
// worker thread, so a worker that finds it taken does better to poll for a
// moment than to sleep in the kernel and be woken by the holder (two system
// calls and a thread switch on a hand-off that takes microseconds).
//
// The lock word is 0 (free), 1 (held) or 2 (held, and a thread may sleep on
// it).  lock() tries once, then polls a fixed number of times with `pause`
// (test and test-and-set: it reads the word and writes only to take it),
// then marks the word 2 and sleeps on it with C++20 std::atomic::wait until
// an exchange finds it free.  unlock() wakes one sleeper only when it finds
// the 2 (Drepper, "Futexes Are Tricky", mutex3).  TSan builds annotate it
// as a mutex, so TSan checks the data it guards and the park hand-off,
// which unlocks a rank's lock on the worker thread the rank switched to.

#include <atomic>
#include <cstdint>

#include "common/annotations.hpp"

#if defined(__SANITIZE_THREAD__)
#define FTR_LOCK_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FTR_LOCK_TSAN 1
#endif
#endif
#ifdef FTR_LOCK_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace ftmpi {

/// Tell the core that this thread is polling (x86 `pause`).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Spin-then-sleep mutex for the runtime's short critical sections; meets
/// the Lockable requirements (std::lock_guard, std::unique_lock,
/// std::condition_variable_any).
class SpinSleepLock {
 public:
  SpinSleepLock() {
#ifdef FTR_LOCK_TSAN
    __tsan_mutex_create(this, 0);
#endif
  }
  ~SpinSleepLock() {
#ifdef FTR_LOCK_TSAN
    __tsan_mutex_destroy(this, 0);
#endif
  }
  SpinSleepLock(const SpinSleepLock&) = delete;
  SpinSleepLock& operator=(const SpinSleepLock&) = delete;

  void lock() {
#ifdef FTR_LOCK_TSAN
    __tsan_mutex_pre_lock(this, 0);
#endif
    if (!take()) lock_contended();
#ifdef FTR_LOCK_TSAN
    __tsan_mutex_post_lock(this, 0, 0);
#endif
  }

  [[nodiscard]] bool try_lock() {
#ifdef FTR_LOCK_TSAN
    __tsan_mutex_pre_lock(this, __tsan_mutex_try_lock);
#endif
    const bool taken = take();
#ifdef FTR_LOCK_TSAN
    __tsan_mutex_post_lock(
        this, taken ? __tsan_mutex_try_lock : __tsan_mutex_try_lock | __tsan_mutex_try_lock_failed,
        0);
#endif
    return taken;
  }

  void unlock() {
#ifdef FTR_LOCK_TSAN
    __tsan_mutex_pre_unlock(this, 0);
#endif
    if (word_.exchange(kFree, std::memory_order_release) == kSleepers) word_.notify_one();
#ifdef FTR_LOCK_TSAN
    __tsan_mutex_post_unlock(this, 0);
#endif
  }

 private:
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kHeld = 1;
  static constexpr std::uint32_t kSleepers = 2;
  /// Polls before sleeping: a few microseconds of `pause`, longer than the
  /// critical sections this lock guards.
  static constexpr int kSpinPolls = 100;

  bool take() {
    std::uint32_t expected = kFree;
    return word_.compare_exchange_strong(expected, kHeld, std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  /// The sleep on the lock word is a worker thread's, not a rank's
  /// suspension: a critical section never parks, so the holder is running
  /// and will release the lock (ftlint FTL008 knows it by the marker).
  FTR_LOCK_SLEEP void lock_contended() {
    for (int i = 0; i < kSpinPolls; ++i) {
      cpu_relax();
      if (word_.load(std::memory_order_relaxed) == kFree && take()) return;
    }
    while (word_.exchange(kSleepers, std::memory_order_acquire) != kFree) {
      word_.wait(kSleepers, std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint32_t> word_{kFree};
};

}  // namespace ftmpi
