#pragma once
// Nonblocking operation handles.
//
// The runtime's sends are eager (they buffer at the destination and never
// block), so an isend completes immediately.  An irecv defers the matching
// to wait()/test(); because a receive's virtual completion time is
// max(own clock, message arrival) + overhead regardless of when the receive
// was posted, deferred matching yields exactly the same virtual-time
// behaviour as a progressing receive would — the handle exists to give
// applications the familiar post-early/complete-late structure.

#include <cstddef>
#include <vector>

#include "ftmpi/comm.hpp"
#include "ftmpi/types.hpp"

namespace ftmpi {

class Request {
 public:
  Request() = default;

  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_recv() const { return kind_ == Kind::Recv; }

 private:
  enum class Kind { Null, SendComplete, Recv };

  friend int isend_bytes(std::vector<std::byte>&&, int, int, const Comm&, Request*);
  friend int irecv_bytes(void*, std::size_t, int, int, const Comm&, Request*);
  friend int wait(Request*, Status*);
  friend int test(Request*, int*, Status*);

  Kind kind_ = Kind::Null;
  int send_result = kSuccess;
  // Deferred receive parameters.
  Comm comm;
  void* buf = nullptr;
  std::size_t max_bytes = 0;
  int source = kAnySource;
  int tag = kAnyTag;
};

}  // namespace ftmpi
