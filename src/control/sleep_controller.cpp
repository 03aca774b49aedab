#include "control/sleep_controller.hpp"

#include <algorithm>

#include "datacenter/latency.hpp"
#include "util/error.hpp"

namespace gridctl::control {

SleepController::SleepController(std::vector<datacenter::IdcConfig> idcs,
                                 SleepControllerOptions options)
    : idcs_(std::move(idcs)), options_(options) {
  require(!idcs_.empty(), "SleepController: need at least one IDC");
  for (const auto& idc : idcs_) idc.validate();
}

std::size_t SleepController::target_servers(std::size_t idc,
                                            double lambda_rps) const {
  require(idc < idcs_.size(), "SleepController: IDC index out of range");
  require(lambda_rps >= 0.0, "SleepController: negative load");
  const auto& cfg = idcs_[idc];
  const double mu = cfg.power.service_rate.value();
  const std::size_t simplified = datacenter::servers_for_latency(
      units::Rps{lambda_rps}, cfg.power.service_rate, cfg.latency_bound_s);
  if (!options_.exact_mmn) return std::min(simplified, cfg.max_servers);

  // The paper's D bounds the mean *wait* (eq. 14 with P_Q = 1); the
  // exact M/M/n wait C(n, a)/(n mu - lambda) is strictly smaller, so the
  // eq.-35 count is an upper bracket. Binary-search the smallest stable
  // m whose exact wait meets the bound.
  std::size_t lo = static_cast<std::size_t>(lambda_rps / mu) + 1;  // stability
  std::size_t hi = std::max(simplified, lo);
  const auto exact_wait = [&](std::size_t m) {
    return datacenter::mmn_response_time(m, cfg.power.service_rate,
                                         units::Rps{lambda_rps}) -
           units::Seconds{1.0 / mu};
  };
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (exact_wait(mid) <= cfg.latency_bound_s) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::min(hi, cfg.max_servers);
}

std::vector<std::size_t> SleepController::step(
    const std::vector<double>& idc_loads,
    const std::vector<std::size_t>& previous) const {
  std::vector<std::size_t> next;
  step_into(idc_loads, previous, next);
  return next;
}

void SleepController::step_into(const std::vector<double>& idc_loads,
                                const std::vector<std::size_t>& previous,
                                std::vector<std::size_t>& next) const {
  require(idc_loads.size() == idcs_.size(),
          "SleepController: load vector size mismatch");
  require(previous.size() == idcs_.size(),
          "SleepController: previous vector size mismatch");
  next.resize(idcs_.size());
  for (std::size_t j = 0; j < idcs_.size(); ++j) {
    std::size_t target = target_servers(j, idc_loads[j]);
    if (options_.max_ramp_per_step > 0) {
      const std::size_t prev = previous[j];
      const std::size_t ramp = options_.max_ramp_per_step;
      if (target > prev + ramp) {
        target = prev + ramp;
      } else if (target + ramp < prev) {
        target = prev - ramp;
      }
      target = std::min(target, idcs_[j].max_servers);
    }
    next[j] = target;
  }
}

}  // namespace gridctl::control
