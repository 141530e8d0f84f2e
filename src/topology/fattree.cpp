#include "topology/fattree.hpp"

#include <sstream>

namespace dv::topo {

FatTree::FatTree(std::uint32_t k) : k_(k) {
  DV_REQUIRE(k >= 2 && k % 2 == 0, "fat tree arity k must be even and >= 2");
}

std::uint32_t FatTree::host_pod(std::uint32_t host) const {
  DV_REQUIRE(host < num_hosts(), "host id out of range");
  return host / (k_ * k_ / 4);
}

std::uint32_t FatTree::host_edge(std::uint32_t host) const {
  DV_REQUIRE(host < num_hosts(), "host id out of range");
  return host / hosts_per_edge();
}

std::uint32_t FatTree::core_above(std::uint32_t agg_idx,
                                  std::uint32_t up) const {
  DV_REQUIRE(agg_idx < num_agg() && up < k_ / 2, "core_above out of range");
  const std::uint32_t j = agg_idx % agg_per_pod();
  return j * (k_ / 2) + up;
}

std::uint32_t FatTree::minimal_switch_hops(std::uint32_t src,
                                           std::uint32_t dst) const {
  DV_REQUIRE(src < num_hosts() && dst < num_hosts(), "host id out of range");
  if (host_edge(src) == host_edge(dst)) return 1;
  if (host_pod(src) == host_pod(dst)) return 3;
  return 5;
}

std::string FatTree::describe() const {
  std::ostringstream os;
  os << "fattree(k=" << k_ << "; switches=" << num_switches()
     << ", hosts=" << num_hosts() << ")";
  return os.str();
}

}  // namespace dv::topo
