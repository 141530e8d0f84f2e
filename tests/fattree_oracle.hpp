// Fat-tree hop oracle: the number of switches on a minimal path between
// two hosts, worked out from the host numbering alone (hosts_per_edge()
// consecutive hosts share an edge switch, num_hosts() / pods() share a
// pod). The simulator routes through netsim::Fabric's port tables
// instead; FatTreeNet.HopClassesMatchTopology compares the hops a packet
// took with this. Header-only and free of gtest, like slice_oracle.hpp.
#pragma once

#include <cstdint>

#include "topology/fattree.hpp"
#include "util/common.hpp"

namespace dv::testing {

/// 1 on the same edge switch, 3 in the same pod, 5 across pods.
inline std::uint32_t minimal_switch_hops(const topo::FatTree& ft,
                                         std::uint32_t src,
                                         std::uint32_t dst) {
  DV_REQUIRE(src < ft.num_hosts() && dst < ft.num_hosts(),
             "host id out of range");
  const std::uint32_t per_pod = ft.num_hosts() / ft.pods();
  if (src / ft.hosts_per_edge() == dst / ft.hosts_per_edge()) return 1;
  if (src / per_pod == dst / per_pod) return 3;
  return 5;
}

}  // namespace dv::testing
