#pragma once
// Counts the calls of the global operator new (plain and array forms) whose
// size reaches a threshold, for tests that check that a path allocates no
// buffer of some size.  The replacement operators are defined here, so a
// test binary includes this header from exactly one of its source files.
// Counting is off until a test arms it, and it counts on every thread, so
// the ranks' fibers are counted wherever they run.  The aligned forms are
// not replaced (nothing on a message path uses them).

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace ftr_test {

inline std::atomic<std::size_t> g_alloc_threshold{0};  ///< 0: not counting
inline std::atomic<long> g_alloc_count{0};

/// Start counting the operator new calls of at least `bytes` bytes.
inline void arm_alloc_count(std::size_t bytes) {
  g_alloc_count = 0;
  g_alloc_threshold = bytes;
}

/// Stop counting; the number of calls counted since arm_alloc_count.
inline long disarm_alloc_count() {
  g_alloc_threshold = 0;
  return g_alloc_count.load();
}

inline void* counted_malloc(std::size_t n) noexcept {
  const std::size_t threshold = g_alloc_threshold.load(std::memory_order_relaxed);
  if (threshold != 0 && n >= threshold) g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace ftr_test

void* operator new(std::size_t n) {
  if (void* p = ftr_test::counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = ftr_test::counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return ftr_test::counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ftr_test::counted_malloc(n);
}
// The replaced new allocates with malloc, so free is the matching release;
// GCC cannot see that once it inlines these into their callers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
