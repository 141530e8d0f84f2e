// Three-level k-ary Fat Tree (Al-Fares, Loukissas, Vahdat 2008).
//
// Listed by the paper as a future-work target topology for the VA system;
// provided here so the entity-tree/aggregation layer has a second topology
// to exercise. k must be even: k pods, each with k/2 edge and k/2
// aggregation switches, (k/2)^2 core switches, and k^3/4 hosts.
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace dv::topo {

class FatTree {
 public:
  explicit FatTree(std::uint32_t k);

  std::uint32_t k() const { return k_; }
  std::uint32_t pods() const { return k_; }
  std::uint32_t edge_per_pod() const { return k_ / 2; }
  std::uint32_t agg_per_pod() const { return k_ / 2; }
  std::uint32_t num_core() const { return (k_ / 2) * (k_ / 2); }
  std::uint32_t num_agg() const { return k_ * (k_ / 2); }
  std::uint32_t hosts_per_edge() const { return k_ / 2; }
  std::uint32_t num_hosts() const { return k_ * k_ * k_ / 4; }

  /// Core switch reached by up-port `up` of aggregation switch (pod, j).
  std::uint32_t core_above(std::uint32_t agg_idx, std::uint32_t up) const;

 private:
  std::uint32_t k_;
};

}  // namespace dv::topo
