// Slow-loop server sleep (ON/OFF) control — the paper's eq. (35):
//
//   m_j = ceil( lambda_j / mu_j + 1 / (mu_j D_j) )
//
// the fewest servers that hold the simplified M/M/n latency under D_j.
// An optional ramp limit bounds |m_j(k) - m_j(k-1)| per invocation,
// modelling the physical reality that thousands of servers cannot be
// powered on instantaneously (the ablation benches quantify its effect).
#pragma once

#include <cstddef>
#include <vector>

#include "datacenter/idc.hpp"

namespace gridctl::control {

struct SleepControllerOptions {
  // Max servers switched per IDC per invocation; 0 disables ramping.
  std::size_t max_ramp_per_step = 0;
  // When true, provision with the exact M/M/n mean response time
  // (Erlang-C) instead of the paper's P_Q = 1 simplification. The exact
  // model queues less pessimistically, so it turns on fewer servers for
  // the same bound — the ablation quantifies the saving.
  bool exact_mmn = false;
};

class SleepController {
 public:
  SleepController(std::vector<datacenter::IdcConfig> idcs,
                  SleepControllerOptions options = {});

  // Target ON count for one IDC at load `lambda` (eq. 35, capped at M_j).
  std::size_t target_servers(std::size_t idc, double lambda_rps) const;

  // Full slow-loop step: desired counts for all IDCs given loads,
  // ramp-limited against `previous` when ramping is enabled.
  std::vector<std::size_t> step(const std::vector<double>& idc_loads,
                                const std::vector<std::size_t>& previous) const;
  // As step, into `next` (resized to the IDC count). Each entry depends
  // only on the same IDC's load and previous count, so `next` may be
  // `previous` itself.
  void step_into(const std::vector<double>& idc_loads,
                 const std::vector<std::size_t>& previous,
                 std::vector<std::size_t>& next) const;

  std::size_t num_idcs() const { return idcs_.size(); }

 private:
  std::vector<datacenter::IdcConfig> idcs_;
  SleepControllerOptions options_;
};

}  // namespace gridctl::control
