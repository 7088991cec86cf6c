/// \file gates_test.cpp
/// \brief Shows that every correctness gate fires: each gate rejects a
/// perturbed reference, and each workload counts failed ops once its
/// reference is perturbed. Exit code 0 iff every check holds.

#include <cstdio>
#include <string>

#include "gates.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void pure_gates() {
  using namespace perfbench;
  const std::vector<double> ref{1.0, 2.0, 3.0};
  std::vector<double> got = ref;
  check(halo_matches(got, ref), "halo gate accepts the reference");
  got[1] += 2e-9;
  check(!halo_matches(got, ref), "halo gate rejects a 2e-9 error");

  const Row row{1, 2, 256};
  Row bad = row;
  bad[2] = 255;
  check(row_matches(row, row), "farm gate accepts the reference row");
  check(!row_matches(bad, row), "farm gate rejects a changed pixel");

  const std::vector<double> base{3.0, 5.0};
  const std::vector<double> sum{4 * 3.0 + 2 * 10, 4 * 5.0 + 2 * 10};
  check(sums_exact(sum, base, 4, 2.0), "bulk gate accepts the exact sum");
  check(!sums_exact(sum, base, 4, 3.0), "bulk gate rejects a wrong salt");

  pml::RunResult r;
  r.output.push_back({});
  r.expected_updates = 10;
  r.observed_updates = 10;
  check(catalog_ok(r, true), "catalog gate accepts an exact probe");
  r.observed_updates = 9;
  check(!catalog_ok(r, true), "catalog gate rejects a lost update");
  r.output.clear();
  check(!catalog_ok(r, false), "catalog gate rejects an empty output");
}

void workload_gates() {
  using perfbench::Mode;
  using perfbench::OpStats;
  const std::pair<const char*, std::unique_ptr<perfbench::Workload> (*)()> all[] = {
      {"catalog", perfbench::make_catalog},
      {"halo", perfbench::make_halo},
      {"farm", perfbench::make_farm},
      {"bulk", perfbench::make_bulk},
  };
  for (const auto& [name, make] : all) {
    auto w = make();
    w->setup(1, /*quick=*/true);
    OpStats good;
    w->episode(Mode::kPlain, good);
    check(good.attempted > 0 && good.failed == 0,
          std::string(name) + ": clean episode counts no failure");
    w->perturb_reference();
    OpStats bad;
    w->episode(Mode::kPlain, bad);
    check(bad.failed > 0, std::string(name) + ": perturbed reference counts " +
                              std::to_string(bad.failed) + " failed of " +
                              std::to_string(bad.attempted));
  }
}

}  // namespace

int main() {
  pure_gates();
  workload_gates();
  std::printf("%s\n", failures == 0 ? "all gates fire" : "GATE CHECK FAILED");
  return failures == 0 ? 0 : 1;
}
