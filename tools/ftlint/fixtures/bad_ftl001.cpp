// FTL001 seeds: discarded error-returning calls.  Every `// EXPECT:` marker
// names the rule the fixture driver must see reported on that exact line.
#include "api_stub.hpp"

namespace {

int drop_on_floor(ftmpi::Comm& world) {
  double buf[4] = {0, 0, 0, 0};
  ftmpi::send(buf, 4, 1, 7, world);  // EXPECT: FTL001
  int flag = 0;
  if (ftmpi::comm_agree(world, &flag) != 0) return 1;  // observed: no finding
  ftmpi::barrier(world);  // EXPECT: FTL001
  return flag;
}

int void_cast_dodge(ftmpi::Comm& world) {
  (void)ftmpi::barrier(world);  // EXPECT: FTL001
  return ftmpi::barrier(world);  // returned: no finding
}

int qualified_discard(ftmpi::Comm& world) {
  ::ftmpi::barrier(world);  // EXPECT: FTL001
  const int rc = ::ftmpi::barrier(world);  // assigned: no finding
  return rc;
}

// A conditional's else-branch is dropped only with the whole conditional;
// a label's colon is no conditional.
int conditional_discard(ftmpi::Comm& world, int rc) {
  rc == 0 ? 0 : ftmpi::barrier(world);  // EXPECT: FTL001
  const int out = rc == 0 ? 0 : ftmpi::barrier(world);  // assigned: no finding
  switch (out) {
    case 1: ftmpi::barrier(world);  // EXPECT: FTL001
      break;
    default: ftmpi::barrier(world);  // EXPECT: FTL001
  }
  return rc == 0 ? 0 : ftmpi::barrier(world);  // returned: no finding
}

}  // namespace
