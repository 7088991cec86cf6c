#pragma once

/// \file stats.hpp
/// \brief Order statistics over timing samples.

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// The \p q quantile (0..1) of \p v, interpolating linearly between the
/// two nearest order statistics. 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace perfbench
