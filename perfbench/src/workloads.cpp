#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

// Paper Table I portal demands (req/s) and the Sec. V-C power budgets.
constexpr double kTableI[5] = {30000, 15000, 15000, 20000, 20000};
constexpr const char* kBudgets = "[5.13e6, 10.26e6, 4.275e6]";

constexpr std::size_t kPlaneFleets = 8;
constexpr std::size_t kPlaneWorkers = 2;
constexpr std::size_t kPlanePortals = 40;
constexpr std::size_t kPlaneTenants = 4;
// Tenant quota over its offered rate at midnight; the diurnal peak is
// ~1.18x the midnight rate, so quotas clip in the afternoon.
constexpr double kQuotaHeadroom = 1.1;
constexpr double kDiurnalAmplitude = 0.1;
constexpr double kDiurnalPeakHour = 15.0;
// Default market seed. The bid-price model's spike draws switch the
// routed plane fleets between two QP regimes (~1300 vs ~300 iterations
// per tick), so one realization in the high-iteration regime the
// routing defect produces is held fixed across --seed values.
constexpr std::uint64_t kMarketSeed = 4;
std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// The paper's three IDCs (Table II, with the M_1 = 20000 the published
// trajectories imply). `battery` puts a demand_charge.json battery on
// Michigan and Wisconsin.
std::string paper_idcs(bool battery) {
  const char* names[3] = {"Michigan", "Minnesota", "Wisconsin"};
  const int servers[3] = {20000, 40000, 20000};
  const double rates[3] = {2.0, 1.25, 1.75};
  std::string out = "[";
  for (int j = 0; j < 3; ++j) {
    out += "{\"name\": \"" + std::string(names[j]) +
           "\", \"region\": " + std::to_string(j) +
           ", \"max_servers\": " + std::to_string(servers[j]) +
           ", \"service_rate\": " + num(rates[j]);
    if (battery && j != 1) {
      out += ", \"battery\": {\"capacity_kwh\": 2000, \"max_charge_kw\": 1000,"
             " \"max_discharge_kw\": 1500, \"round_trip_efficiency\": 0.9}";
    }
    out += j < 2 ? "}, " : "}";
  }
  return out + "]";
}

std::string diurnal_workload(const std::vector<double>& base,
                             std::uint64_t seed) {
  std::string rates = "[";
  for (std::size_t i = 0; i < base.size(); ++i) {
    rates += (i ? ", " : "") + num(base[i]);
  }
  return "{\"type\": \"diurnal\", \"base_rates\": " + rates +
         "], \"amplitude\": " + num(kDiurnalAmplitude) +
         ", \"peak_hour\": " + num(kDiurnalPeakHour) +
         ", \"noise_stddev\": 0.02, \"seed\": " + std::to_string(seed) + "}";
}

std::string window(double duration_s, double ts_s) {
  return "\"start_time_s\": 0, \"duration_s\": " + num(duration_s) +
         ", \"ts_s\": " + num(ts_s);
}

// One fleet, the paper's fleet and hourly prices, diurnal Table-I demand
// with per-minute noise, AR+RLS prediction and the per-step reference
// trajectory; every other control at its default (dense ADMM).
std::string predictive_day(const Seeds& seeds, double duration_s) {
  return "{\"idcs\": " + paper_idcs(false) +
         ", \"prices\": {\"type\": \"paper\"}, \"workload\": " +
         diurnal_workload({std::begin(kTableI), std::end(kTableI)},
                          seeds.diurnal) +
         ", " + window(duration_s, 10.0) +
         ", \"controller\": {\"predict_workload\": true,"
         " \"reference_trajectory\": true}}";
}

// The paper's Fig. 6/7 setting over a whole day: Sec. V-C budgets,
// constant Table-I demand, hourly paper prices, the paper's weights.
// No input is random, so the seeds do not change it.
std::string shaving_day(double duration_s) {
  std::string rates = "[";
  for (std::size_t i = 0; i < 5; ++i) rates += (i ? ", " : "") + num(kTableI[i]);
  return "{\"idcs\": " + paper_idcs(false) +
         ", \"prices\": {\"type\": \"paper\"}, \"workload\": {\"type\": "
         "\"constant\", \"rates\": " +
         rates + "]}, \"power_budgets_w\": " + kBudgets + ", " +
         window(duration_s, 10.0) +
         ", \"controller\": {\"prediction_horizon\": 8, \"control_horizon\": 2,"
         " \"q_weight\": 1.0, \"r_weight\": 3.0, \"cost_basis\": "
         "\"price_only\"}}";
}

// The plane template: one noisy diurnal source of 40 portals (Table I
// tiled, so the aggregate is Table I's), admission to 8 fleets under 4
// quota'd tenants with one mid-day re-assignment, demand-responsive
// stochastic prices, the demand_charge.json tariff and batteries, and
// the condensed backend so the shared factor cache engages.
std::string market_plane(const Seeds& seeds, double duration_s) {
  std::vector<double> base(kPlanePortals);
  for (std::size_t p = 0; p < kPlanePortals; ++p) {
    base[p] = kTableI[p % 5] * 5.0 / static_cast<double>(kPlanePortals);
  }
  const double kPi = 3.14159265358979323846;
  const double midnight =
      1.0 + kDiurnalAmplitude * std::cos(2.0 * kPi * (0.0 - kDiurnalPeakHour) / 24.0);
  std::vector<double> offered(kPlaneTenants, 0.0);
  for (std::size_t p = 0; p < kPlanePortals; ++p) {
    offered[p % kPlaneTenants] += base[p] * midnight;
  }
  std::string tenants = "[";
  for (std::size_t t = 0; t < kPlaneTenants; ++t) {
    tenants += (t ? ", " : "") + std::string("{\"id\": \"t") +
               std::to_string(t) + "\", \"quota_rps\": " +
               num(kQuotaHeadroom * offered[t]) + ", \"burst_s\": 60}";
  }
  std::string portals = "[";
  for (std::size_t p = 0; p < kPlanePortals; ++p) {
    portals += (p ? ", " : "") + std::string("{\"id\": \"p") +
               std::to_string(p) + "\", \"tenant\": \"t" +
               std::to_string(p % kPlaneTenants) +
               "\", \"fleet\": " + std::to_string(p % kPlaneFleets) + "}";
  }
  // Portal p0 moves from fleet 0 to fleet 1 at mid-window.
  const std::string reassign = "[{\"portal\": \"p0\", \"fleet\": 1, "
                               "\"at_time_s\": " +
                               num(std::floor(duration_s / 120.0) * 60.0) +
                               "}]";
  return "{\"idcs\": " + paper_idcs(true) +
         ", \"prices\": {\"type\": \"stochastic\", \"seed\": " +
         std::to_string(seeds.market) +
         ", \"regions\": [{}, {}, {}]}, \"workload\": " +
         diurnal_workload(base, seeds.diurnal) +
         ", \"billing\": {\"demand_rate_per_kw\": 15.0, \"cycle_hours\": 24.0,"
         " \"coincident_rate_per_kw\": 4.0, \"coincident_window_hours\": "
         "[17.0, 20.0]}, \"admission\": {\"tenants\": " +
         tenants + "], \"portals\": " + portals +
         "], \"reassignments\": " + reassign + "}, " +
         window(duration_s, 60.0) +
         ", \"controller\": {\"prediction_horizon\": 8, \"control_horizon\": 2,"
         " \"q_weight\": 1.0, \"r_weight\": 3.0, \"demand_charge_aware\": true,"
         " \"backend\": \"condensed\"}}";
}

}  // namespace

Seeds seeds_from(std::uint64_t seed) {
  // Odd diurnal seeds, far below 2^53 so the JSON number is exact. The
  // market realization stays fixed: see kMarketSeed.
  return {2 * (seed % (std::uint64_t{1} << 40)) + 1, kMarketSeed};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"predictive_day",
                                                 "shaving_day", "market_plane"};
  return names;
}

Workload make_workload(const std::string& name, const Seeds& seeds,
                       double hours) {
  if (!(hours > 0.0)) {
    throw std::invalid_argument("workload length must be positive hours");
  }
  Workload workload;
  workload.name = name;
  double ts_s = 10.0;
  if (name == "predictive_day") {
    workload.scenario_json = predictive_day(seeds, hours * 3600.0);
  } else if (name == "shaving_day") {
    workload.scenario_json = shaving_day(hours * 3600.0);
  } else if (name == "market_plane") {
    ts_s = 60.0;
    workload.scenario_json = market_plane(seeds, hours * 3600.0);
    workload.fleets = kPlaneFleets;
    workload.workers = kPlaneWorkers;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  workload.steps = static_cast<std::uint64_t>(hours * 3600.0 / ts_s);
  if (workload.steps < 2) {
    throw std::invalid_argument("workload window shorter than two steps");
  }
  // Kill after the first simulated hour, or at mid-window when shorter.
  workload.kill_step = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(3600.0 / ts_s), workload.steps / 2);
  return workload;
}

}  // namespace perfbench
