#include "topology/fattree.hpp"

namespace dv::topo {

FatTree::FatTree(std::uint32_t k) : k_(k) {
  DV_REQUIRE(k >= 2 && k % 2 == 0, "fat tree arity k must be even and >= 2");
}

std::uint32_t FatTree::core_above(std::uint32_t agg_idx,
                                  std::uint32_t up) const {
  DV_REQUIRE(agg_idx < num_agg() && up < k_ / 2, "core_above out of range");
  const std::uint32_t j = agg_idx % agg_per_pod();
  return j * (k_ / 2) + up;
}

}  // namespace dv::topo
