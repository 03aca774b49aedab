// The distributed plant: C front-end portals routing to N IDCs via an
// allocation matrix lambda_ij (paper Fig. 1).
#pragma once

#include <cstddef>
#include <vector>

#include "datacenter/idc.hpp"
#include "linalg/matrix.hpp"
#include "util/units.hpp"

namespace gridctl::datacenter {

// A portal->IDC allocation: entry (i, j) is lambda_ij, req/s routed from
// portal i to IDC j. Thin wrapper over Matrix with the invariants the
// paper imposes (eq. 2–4).
//
// Deliberately a raw-double type: the allocation IS the QP's input
// vector U, flattened in and out of the solver layer every period, so it
// lives on the untyped side of the solver boundary. Entries are req/s;
// the typed read-out is `idc_load` / `idc_loads`.
class Allocation {
 public:
  Allocation(std::size_t portals, std::size_t idcs);
  explicit Allocation(linalg::Matrix lambda);

  std::size_t portals() const { return lambda_.rows(); }
  std::size_t idcs() const { return lambda_.cols(); }

  double& at(std::size_t portal, std::size_t idc);
  double at(std::size_t portal, std::size_t idc) const;
  const linalg::Matrix& matrix() const { return lambda_; }

  // Total load arriving at IDC j (eq. 4).
  units::Rps idc_load(std::size_t idc) const;
  std::vector<units::Rps> idc_loads() const;
  // The same sums as raw req/s into a caller-owned buffer (resized to
  // idcs(); no allocation once sized) for the per-period hot paths.
  void idc_loads_into(std::vector<double>& loads) const;
  // Total load emitted by portal i (should equal L_i, eq. 2).
  units::Rps portal_load(std::size_t portal) const;

  // Checks lambda_ij >= -tol and |sum_j lambda_ij - demand_i| <= tol.
  bool conserves(const std::vector<units::Rps>& portal_demands,
                 double tol = 1e-6) const;
  bool non_negative(double tol = 1e-9) const;

  // Flatten to the paper's input-vector layout U = [lambda_ij] with
  // portal-major ordering (all IDCs of portal 0, then portal 1, …).
  linalg::Vector flatten() const;
  static Allocation unflatten(const linalg::Vector& u, std::size_t portals,
                              std::size_t idcs);

 private:
  linalg::Matrix lambda_;
};

// The fleet couples the IDCs; it owns no control logic.
class Fleet {
 public:
  explicit Fleet(std::vector<IdcConfig> configs);

  std::size_t size() const { return idcs_.size(); }
  Idc& idc(std::size_t j);
  const Idc& idc(std::size_t j) const;

  // Apply an allocation and server vector as the next operating point.
  void set_operating_point(const Allocation& allocation,
                           const std::vector<std::size_t>& servers_on);

  // Advance all IDCs; `prices[j]` is the price at IDC j's region.
  void advance(units::Seconds dt, const std::vector<units::PricePerMwh>& prices);

  // Aggregates.
  units::Watts total_power_w() const;
  units::Dollars total_cost_dollars() const;
  units::Joules total_energy_joules() const;
  std::vector<units::Watts> power_by_idc_w() const;
  std::vector<std::size_t> servers_on() const;

  // Sleep-controllability condition (paper Sec. IV-B): total demand must
  // not exceed the summed per-IDC capacity at full fleet power-on.
  bool can_serve(units::Rps total_demand) const;
  units::Rps total_capacity_rps() const;

 private:
  std::vector<Idc> idcs_;
};

}  // namespace gridctl::datacenter
