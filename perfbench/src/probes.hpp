#pragma once

#include <vector>

#include "workload.hpp"

namespace perfbench {

/// Appends the floor probes: mp.run.empty_job_us.p{1,2,4},
/// mp.run.spawn_us/teardown_us, smp.parallel.empty_region_us.t4,
/// thread.fork_join.empty_us.t4 and thread.pool.{central,stealing}_drain_us.
void floor_probes(std::vector<Metric>& out, bool quick);

}  // namespace perfbench
