#pragma once

/// \file gates.hpp
/// \brief The correctness gates. Each workload counts an op as failed when
/// its gate rejects the op's output; tests/gates_test.cpp feeds every gate
/// a perturbed reference to show that it fires.

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/runner.hpp"

namespace perfbench {

/// halo: the distributed rod equals the sequential solve to \p tol at every
/// cell.
inline bool halo_matches(const std::vector<double>& got, const std::vector<double>& ref,
                         double tol = 1e-9) {
  if (got.size() != ref.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - ref[i]) <= tol)) return false;
  }
  return true;
}

/// One rendered image row: escape-time iteration counts.
using Row = std::vector<std::uint16_t>;

/// farm: a farmed row equals the sequential render of the same row.
inline bool row_matches(const Row& got, const Row& ref) { return got == ref; }

/// bulk: rank r contributed base[i] + (r + 1) * salt, so every element of
/// the sum over \p ranks ranks is ranks * base[i] + salt * ranks(ranks+1)/2,
/// exactly (all values are small integers).
inline bool sums_exact(const std::vector<double>& got, const std::vector<double>& base,
                       int ranks, double salt) {
  if (got.size() > base.size()) return false;
  const double shift = salt * ranks * (ranks + 1) / 2;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != ranks * base[i] + shift) return false;
  }
  return true;
}

/// catalog: the run produced output, and when it ran with its race fix
/// applied its lost-update probe reads exact.
inline bool catalog_ok(const pml::RunResult& r, bool probe_must_be_exact) {
  if (r.output.empty()) return false;
  if (!probe_must_be_exact) return true;
  return r.expected_updates.has_value() && r.observed_updates.has_value() &&
         *r.expected_updates == *r.observed_updates;
}

}  // namespace perfbench
