// FTL003 seed: standard containers constructed with arguments allocate just
// as push_back does, in a declaration, as a temporary or from a brace list.
#include <map>
#include <string>
#include <vector>

#include "api_stub.hpp"

namespace ctor_fx_bad {

double sum(const std::vector<double>& v) {
  double acc = 0;
  for (double x : v) acc += x;
  return acc;
}

FTR_HOT double hot_sized(int n) {
  std::vector<double> scratch(4);  // EXPECT: FTL003
  scratch[0] = n;
  return sum(std::vector<double>(static_cast<unsigned>(n), 1.0)) + scratch[0];  // EXPECT: FTL003
}

FTR_HOT double hot_braced(double a, double b) {
  std::vector<double> pair{a, b};  // EXPECT: FTL003
  const std::vector<double> copied = {a};  // EXPECT: FTL003
  std::map<int, std::vector<double>> nested{{1, {a}}};  // EXPECT: FTL003
  return sum(pair) + sum(copied) + static_cast<double>(nested.size());
}

void make_label(std::string* out, int n) {
  *out = std::string(static_cast<unsigned>(n), 'x');  // EXPECT: FTL003
}

FTR_HOT void hot_label(std::string* out) { make_label(out, 3); }

}  // namespace ctor_fx_bad
