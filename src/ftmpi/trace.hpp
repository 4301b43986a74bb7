#pragma once
// Lightweight event tracing for the simulated runtime.
//
// When enabled (Runtime::trace().enable()), every notable runtime
// event — kills, spawns, revokes, shrink/agree completions, repairs — is
// appended to a bounded in-memory ring with its virtual timestamp.  Tests
// assert on event sequences; humans dump the ring to understand a run:
//
//   rt.trace().enable();
//   ... run ...
//   for (const auto& e : rt.trace().events()) ...
//
// Tracing costs one mutexed append per event when on, and one relaxed
// atomic load when off.

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "ftmpi/types.hpp"

namespace ftmpi {

enum class TraceEvent : int {
  Kill,        ///< a process was killed (fail-stop)
  HostFail,    ///< a whole node failed
  Spawn,       ///< processes spawned (count in `value`)
  Revoke,      ///< a communicator was revoked (ctx id in `value`)
  Shrink,      ///< a shrink completed (new size in `value`)
  Agree,       ///< an agreement completed (flag in `value`)
  Merge,       ///< an intercommunicator merge completed (merged size)
  Split,       ///< a comm split completed (new ctx id)
};

const char* trace_event_name(TraceEvent e);

struct TraceRecord {
  double vtime = 0.0;   ///< virtual time of the acting process (0 if none)
  ProcId pid = kNullProc;
  TraceEvent event{};
  long long value = 0;
};

class Trace {
 public:
  void enable(std::size_t capacity = 65536) {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
    enabled_.store(true);
  }
  void disable() { enabled_.store(false); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  void record(double vtime, ProcId pid, TraceEvent event, long long value) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() >= capacity_) return;  // bounded: drop the tail
    events_.push_back(TraceRecord{vtime, pid, event, value});
  }

  [[nodiscard]] std::vector<TraceRecord> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  [[nodiscard]] std::vector<TraceRecord> events_of(TraceEvent e) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceRecord> out;
    for (const auto& r : events_) {
      if (r.event == e) out.push_back(r);
    }
    return out;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

  /// One line per event, for human consumption.
  [[nodiscard]] std::string format() const;

 private:
  mutable std::mutex mu_;  // guards capacity_ and events_
  std::atomic<bool> enabled_{false};
  std::size_t capacity_ = 65536;
  std::vector<TraceRecord> events_;
};

}  // namespace ftmpi
