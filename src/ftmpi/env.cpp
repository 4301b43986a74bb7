// Environment accessors: world/parent handles, virtual time, compute and
// disk charging, self-kill.

#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"

namespace ftmpi {

Comm& world() {
  ProcessState& ps = detail::self();
  if (!ps.world_handle.has_value()) {
    ps.world_handle.emplace(detail::rt().find_context(ps.world_ctx), 0, ps.pid);
  }
  return *ps.world_handle;
}

Comm& get_parent() {
  ProcessState& ps = detail::self();
  if (!ps.parent_handle.has_value()) {
    if (ps.parent_ctx == 0) {
      ps.parent_handle.emplace();  // null comm: an initial process
    } else {
      // Spawned children are side 1 of the parent intercommunicator.
      ps.parent_handle.emplace(detail::rt().find_context(ps.parent_ctx), 1, ps.pid);
    }
  }
  return *ps.parent_handle;
}

void set_parent(const Comm& parent) { detail::self().parent_handle = parent; }

double wtime() { return detail::now(); }

void advance(double seconds) { detail::charge(seconds); }

void charge_flops(double flops) { detail::charge(flops / detail::rt().cost().flops_rate); }

void charge_disk_write(std::size_t bytes) {
  // No-op off the ranks so shared stores (checkpoints) stay usable from
  // plain test code; there is no virtual clock to charge there anyway.
  if (Runtime::current() == nullptr) return;
  const CostModel& cm = detail::rt().cost();
  detail::charge(cm.disk_write_latency + static_cast<double>(bytes) / cm.disk_bandwidth);
}

void charge_disk_read(std::size_t bytes) {
  if (Runtime::current() == nullptr) return;
  const CostModel& cm = detail::rt().cost();
  detail::charge(cm.disk_read_latency + static_cast<double>(bytes) / cm.disk_bandwidth);
}

void abort_self() {
  ProcessState& ps = detail::self();
  ps.rt->kill(ps.pid);
  throw ProcessKilled{ps.pid};
}

ProcId self_pid() { return detail::self().pid; }

FTR_YIELD void yield() {
  detail::check_alive();
  Runtime::yield_rank();
}

Runtime& runtime() { return detail::rt(); }

void chaos_point(const char* phase) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || !ps->rt->has_chaos_hook()) return;
  ps->rt->fire_chaos(phase, ps->pid);
  detail::check_alive();
}

}  // namespace ftmpi
