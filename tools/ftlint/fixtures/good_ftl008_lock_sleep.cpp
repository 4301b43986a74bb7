// Clean FTR_LOCK_SLEEP shapes: a spin-then-sleep lock whose contended path
// sleeps on its lock word.  That sleep is a worker thread waiting for a
// running holder, not a rank suspending, so neither the wait itself nor a
// guard named `lock` (which the name-based call graph reads as a call to
// lock()) is a finding.
#include "api_stub.hpp"
#include <atomic>
#include <mutex>

#define FTR_LOCK_SLEEP

namespace lock_sleep_good {

class WordLock {
 public:
  void lock() {
    if (!take()) contended();
  }
  void unlock() {
    if (word_.exchange(0) == 2) word_.notify_one();
  }

 private:
  bool take() {
    unsigned expected = 0;
    return word_.compare_exchange_strong(expected, 1);
  }
  FTR_LOCK_SLEEP void contended() {
    while (word_.exchange(2) != 0) word_.wait(2);
  }
  std::atomic<unsigned> word_{0};
};

WordLock word_mu;
std::mutex table_mu;
int hits = 0;

// `lock(word_mu)` reads as a call to lock() -> contended(); the marker keeps
// that chain from making record() may-yield.
void record() {
  std::lock_guard<WordLock> lock(word_mu);
  ++hits;
}

void record_under_table_lock() {
  std::lock_guard<std::mutex> lock(table_mu);
  record();
}

}  // namespace lock_sleep_good
