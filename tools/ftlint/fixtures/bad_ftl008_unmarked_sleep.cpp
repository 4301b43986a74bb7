// FTL008 seed: a lock's sleep on its lock word without the FTR_LOCK_SLEEP
// marker is an unsanctioned blocking primitive like any other.
#include "api_stub.hpp"
#include <atomic>

namespace lock_sleep_unmarked {

std::atomic<unsigned> word{0};

void sleep_until_free() {
  while (word.exchange(2) != 0) word.wait(2);  // EXPECT: FTL008
}

}  // namespace lock_sleep_unmarked
