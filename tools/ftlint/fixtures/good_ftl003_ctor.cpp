// Clean container shapes on a hot path: declared empty, referenced, reached
// through a pointer or named in a type, a standard container allocates
// nothing.  Sized construction off the hot path is not checked.
#include <cstddef>
#include <vector>

#include "api_stub.hpp"

namespace ctor_fx_good {

std::vector<double> make_table(std::size_t n) { return std::vector<double>(n, 0.0); }

FTR_HOT double hot_views(const std::vector<double>& in, std::vector<double>* out) {
  std::vector<double> none;
  std::vector<double> braced{};
  const std::vector<double>& alias = in;
  std::vector<double>::size_type n = alias.size();
  using Row = std::vector<double>;
  const Row* row = out;
  double acc = static_cast<double>(n + none.size() + braced.size() + row->size());
  for (std::size_t i = 0; i < in.size(); ++i) (*out)[i] = in[i] * 0.5;
  return acc;
}

}  // namespace ctor_fx_good
