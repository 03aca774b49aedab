#include "datacenter/fleet.hpp"

#include <cmath>

#include "util/error.hpp"

namespace gridctl::datacenter {

Allocation::Allocation(std::size_t portals, std::size_t idcs)
    : lambda_(portals, idcs) {
  require(portals > 0 && idcs > 0, "Allocation: empty dimensions");
}

Allocation::Allocation(linalg::Matrix lambda) : lambda_(std::move(lambda)) {
  require(!lambda_.empty(), "Allocation: empty matrix");
}

double& Allocation::at(std::size_t portal, std::size_t idc) {
  return lambda_(portal, idc);
}

double Allocation::at(std::size_t portal, std::size_t idc) const {
  return lambda_(portal, idc);
}

units::Rps Allocation::idc_load(std::size_t idc) const {
  double total = 0.0;
  for (std::size_t i = 0; i < lambda_.rows(); ++i) total += lambda_(i, idc);
  return units::Rps{total};
}

std::vector<units::Rps> Allocation::idc_loads() const {
  std::vector<units::Rps> loads(idcs());
  for (std::size_t j = 0; j < loads.size(); ++j) loads[j] = idc_load(j);
  return loads;
}

void Allocation::idc_loads_into(std::vector<double>& loads) const {
  loads.resize(idcs());
  for (std::size_t j = 0; j < loads.size(); ++j) loads[j] = idc_load(j).value();
}

units::Rps Allocation::portal_load(std::size_t portal) const {
  double total = 0.0;
  for (std::size_t j = 0; j < lambda_.cols(); ++j) total += lambda_(portal, j);
  return units::Rps{total};
}

bool Allocation::conserves(const std::vector<units::Rps>& portal_demands,
                           double tol) const {
  require(portal_demands.size() == portals(),
          "Allocation::conserves: demand size mismatch");
  for (std::size_t i = 0; i < portals(); ++i) {
    if (std::abs(portal_load(i).value() - portal_demands[i].value()) > tol) {
      return false;
    }
  }
  return non_negative(tol);
}

bool Allocation::non_negative(double tol) const {
  for (std::size_t i = 0; i < portals(); ++i) {
    for (std::size_t j = 0; j < idcs(); ++j) {
      if (lambda_(i, j) < -tol) return false;
    }
  }
  return true;
}

linalg::Vector Allocation::flatten() const {
  linalg::Vector u;
  u.reserve(portals() * idcs());
  for (std::size_t i = 0; i < portals(); ++i) {
    for (std::size_t j = 0; j < idcs(); ++j) u.push_back(lambda_(i, j));
  }
  return u;
}

Allocation Allocation::unflatten(const linalg::Vector& u, std::size_t portals,
                                 std::size_t idcs) {
  require(u.size() == portals * idcs, "Allocation::unflatten: size mismatch");
  Allocation a(portals, idcs);
  for (std::size_t i = 0; i < portals; ++i) {
    for (std::size_t j = 0; j < idcs; ++j) a.at(i, j) = u[i * idcs + j];
  }
  return a;
}

Fleet::Fleet(std::vector<IdcConfig> configs) {
  require(!configs.empty(), "Fleet: need at least one IDC");
  idcs_.reserve(configs.size());
  for (auto& config : configs) idcs_.emplace_back(std::move(config));
}

Idc& Fleet::idc(std::size_t j) {
  require(j < idcs_.size(), "Fleet: IDC index out of range");
  return idcs_[j];
}

const Idc& Fleet::idc(std::size_t j) const {
  require(j < idcs_.size(), "Fleet: IDC index out of range");
  return idcs_[j];
}

void Fleet::set_operating_point(const Allocation& allocation,
                                const std::vector<std::size_t>& servers_on) {
  require(allocation.idcs() == idcs_.size(),
          "Fleet: allocation IDC count mismatch");
  require(servers_on.size() == idcs_.size(),
          "Fleet: servers_on size mismatch");
  for (std::size_t j = 0; j < idcs_.size(); ++j) {
    idcs_[j].set_operating_point(servers_on[j], allocation.idc_load(j));
  }
}

void Fleet::advance(units::Seconds dt,
                    const std::vector<units::PricePerMwh>& prices) {
  require(prices.size() == idcs_.size(), "Fleet: price vector size mismatch");
  for (std::size_t j = 0; j < idcs_.size(); ++j) {
    idcs_[j].advance(dt, prices[j]);
  }
}

units::Watts Fleet::total_power_w() const {
  units::Watts total;
  for (const auto& idc : idcs_) total += idc.power_w();
  return total;
}

units::Dollars Fleet::total_cost_dollars() const {
  units::Dollars total;
  for (const auto& idc : idcs_) total += idc.cost_dollars();
  return total;
}

units::Joules Fleet::total_energy_joules() const {
  units::Joules total;
  for (const auto& idc : idcs_) total += idc.energy_joules();
  return total;
}

std::vector<units::Watts> Fleet::power_by_idc_w() const {
  std::vector<units::Watts> out(idcs_.size());
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = idcs_[j].power_w();
  return out;
}

std::vector<std::size_t> Fleet::servers_on() const {
  std::vector<std::size_t> out(idcs_.size());
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = idcs_[j].servers_on();
  return out;
}

units::Rps Fleet::total_capacity_rps() const {
  units::Rps total;
  for (const auto& idc : idcs_) total += idc.config().max_capacity();
  return total;
}

bool Fleet::can_serve(units::Rps total_demand) const {
  return total_demand <= total_capacity_rps();
}

}  // namespace gridctl::datacenter
