#pragma once
// Repetition budget for tests that hunt a thread-scheduling race by running
// a small scenario many times.  An optimised build runs the full count in a
// few seconds; Debug and sanitizer builds are far slower per run, so they
// run a tenth of it and stay well inside the ctest timeout.

namespace ftr_test {

#if defined(NDEBUG) && !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
inline constexpr int kRaceRuns = 20000;
#else
inline constexpr int kRaceRuns = 2000;
#endif

}  // namespace ftr_test
