#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto n = static_cast<double>(samples.size());
  // Nearest rank, 1-based: ceil(p/100 * n), at least 1.
  auto rank = static_cast<std::size_t>(std::ceil(clamped / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double median(std::vector<double> samples) {
  return percentile(samples, 50.0);
}

}  // namespace perfbench
