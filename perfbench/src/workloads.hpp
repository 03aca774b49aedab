// The benchmark's three day-long workloads, generated from seeds.
//
// Each workload is a scenario JSON document (the program's own input
// format) plus the fleet layout the benchmark drives it with. The
// program only ever sees the generated text: load_scenario parses it,
// FleetSession / ControlPlane run it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Seeds of the two random input sources. `diurnal` drives the
// per-minute demand noise, `market` the stochastic bid-price model.
struct Seeds {
  std::uint64_t diurnal = 0;
  std::uint64_t market = 0;
};

// The seeds for one --seed value: it sets the diurnal-noise seed, the
// market seed keeps its default (perfbench/README.md; both can be
// overridden on the command line).
Seeds seeds_from(std::uint64_t seed);

struct Workload {
  std::string name;
  std::string scenario_json;
  // 1 = one FleetSession driven on the benchmark's thread; more = a
  // ControlPlane with `fleets` copies of the scenario on `workers`.
  std::size_t fleets = 1;
  std::size_t workers = 1;
  // Every fleet is stopped at this step, checkpointed to JSON text and
  // resumed from that text (the operator's kill-and-resume path).
  std::uint64_t kill_step = 0;
  // Control steps per fleet over the whole window.
  std::uint64_t steps = 0;
};

// Names accepted by make_workload, in the order BENCHMARK.json lists
// them.
const std::vector<std::string>& workload_names();

// Builds workload `name`. `hours` shortens the simulated day for smoke
// runs and tests (the kill point moves to mid-window when the window is
// shorter than two hours). Throws std::invalid_argument on an unknown
// name or a non-positive length.
Workload make_workload(const std::string& name, const Seeds& seeds,
                       double hours = 24.0);

}  // namespace perfbench
