// Topology as data: the router graph netsim::Network runs on.
//
// A Fabric is a per-router port table built once at construction. Each
// port names its link class, the link id within that class, the far end
// (router and port, or the terminal for an ejection port) and the link's
// bandwidth and latency. Everything else the simulator needs is derived
// from that table: terminal -> (router, slot), the upstream port of every
// local/global link, and router -> group (router ids are group-major).
//
// Two builders fill the table:
//   - dragonfly: the topo::Dragonfly port map (terminal | local | global
//     ports; link ids as topo::Dragonfly numbers them);
//   - fat tree: a 3-level k-ary fat tree in the layout the VA layer reads,
//     group = pod, routers_per_group = k:
//       router  pod*k + i          edge switch i  (ports: k/2 hosts, then
//                                                  k/2 up to the pod's aggs)
//       router  pod*k + k/2 + j    agg switch j   (ports: k/2 down to the
//                                                  pod's edges, then k/2 up)
//       router  k*k + c            core switch c  (port q down to pod q;
//                                                  trailing pseudo-pods)
//     local links are edge<->agg, global links agg<->core, both directions;
//     host h sits on edge h / (k/2), slot h % (k/2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "routing/routing.hpp"
#include "topology/dragonfly.hpp"
#include "topology/fattree.hpp"

namespace dv::netsim {

struct Params;

enum class LinkClass : std::uint32_t {
  kNone,  ///< unconnected port (fat-tree padding routers)
  kInjection,
  kEjection,
  kLocal,
  kGlobal,
};

/// One router output port.
struct Port {
  LinkClass cls = LinkClass::kNone;
  std::uint32_t id = 0;            ///< link id within its class
  std::uint32_t dst_router = 0;    ///< local/global: far end
  std::uint32_t dst_port = 0;
  std::uint32_t dst_terminal = 0;  ///< ejection: the terminal
  double bandwidth = 1.0;          ///< bytes/ns
  double latency = 0.0;            ///< ns
};

/// A (router, port) pair.
struct PortRef {
  std::uint32_t router = 0;
  std::uint32_t port = 0;
};

class Fabric {
 public:
  /// The router grid, which is also the RunMetrics shape the VA layer
  /// reads (group_id = router / routers_per_group).
  struct Shape {
    std::uint32_t groups = 0;
    std::uint32_t routers_per_group = 0;
    std::uint32_t terminals_per_router = 0;
    std::uint32_t global_per_router = 0;
    std::uint32_t ports_per_router = 0;
  };

  /// `ports` is router-major, shape.ports_per_router entries per router.
  /// Link ids of each class and terminal ids must be dense from 0.
  Fabric(Shape shape, std::vector<Port> ports);

  static Fabric dragonfly(const topo::Dragonfly& topo, const Params& params);
  /// local = edge-agg links, global = agg-core links.
  static Fabric fat_tree(const topo::FatTree& topo, const Params& params);

  const Shape& shape() const { return shape_; }
  std::uint32_t num_routers() const {
    return shape_.groups * shape_.routers_per_group;
  }
  std::uint32_t ports_per_router() const { return shape_.ports_per_router; }
  std::uint32_t num_terminals() const {
    return static_cast<std::uint32_t>(terminal_port_.size());
  }
  std::uint32_t num_local_links() const {
    return static_cast<std::uint32_t>(local_src_.size());
  }
  std::uint32_t num_global_links() const {
    return static_cast<std::uint32_t>(global_src_.size());
  }
  std::uint32_t router_group(std::uint32_t router) const {
    return router / shape_.routers_per_group;
  }

  const Port& port(std::uint32_t router, std::uint32_t p) const {
    return ports_[static_cast<std::size_t>(router) * shape_.ports_per_router +
                  p];
  }
  /// The router a terminal hangs off, and its ejection port there.
  const PortRef& terminal_port(std::uint32_t term) const {
    return terminal_port_[term];
  }
  /// Upstream (source) port of a directed local / global link.
  const PortRef& local_src(std::uint32_t id) const { return local_src_[id]; }
  const PortRef& global_src(std::uint32_t id) const { return global_src_[id]; }

 private:
  Shape shape_;
  std::vector<Port> ports_;
  std::vector<PortRef> terminal_port_;
  std::vector<PortRef> local_src_, global_src_;
};

/// Up/down ECMP routing over Fabric::fat_tree's numbering: up to the
/// lowest common level, choosing up-links by a deterministic hash of
/// (src, dst, seed), then down. At most 4 router-to-router hops.
std::unique_ptr<routing::Policy> make_updown_ecmp(const topo::FatTree& topo,
                                                  std::uint64_t seed);

}  // namespace dv::netsim
