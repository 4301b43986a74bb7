// Clean FTL001 shapes: an error-returning call in a conditional's
// else-branch whose value is returned or assigned is observed, comparisons
// in the condition notwithstanding.
#include "api_stub.hpp"

namespace {

int returned_conditional(ftmpi::Comm& world, int rc) {
  return rc == 0 ? 0 : ftmpi::barrier(world);
}

int assigned_conditional(ftmpi::Comm& world, int rc) {
  const int out = rc == 0 ? 0 : ftmpi::barrier(world);
  int again = 0;
  again = out != 0 ? out : ftmpi::barrier(world);
  return again;
}

}  // namespace
