// FTL008 seeds: FTR_LOCK_SLEEP exempts only the marked function's own
// blocking primitive.  A call from it to a suspension point still makes it
// may-yield, and a guard held across a blocking primitive or a suspension
// point is still a fiber deadlock.
#include "api_stub.hpp"
#include <mutex>
#include <thread>

#define FTR_LOCK_SLEEP

namespace lock_sleep_yield {

std::mutex mu;

// A sanctioned suspension point.
FTR_YIELD void drain_inbox();

// Case 1: a marked function that calls a suspension point is may-yield, so
// holding a guard across a call to it fires.
FTR_LOCK_SLEEP void backoff() { drain_inbox(); }

void hold_across_marked() {
  std::lock_guard<std::mutex> lk(mu);
  backoff();  // EXPECT: FTL008
}

// Case 2: inside a marked function, a guard held across a suspension point.
FTR_LOCK_SLEEP void backoff_locked() {
  std::lock_guard<std::mutex> lk(mu);
  drain_inbox();  // EXPECT: FTL008
}

// Case 3: inside a marked function, a guard held across its own sleep.
FTR_LOCK_SLEEP void nap_locked() {
  std::lock_guard<std::mutex> lk(mu);
  std::this_thread::sleep_for(5);  // EXPECT: FTL008
}

}  // namespace lock_sleep_yield
