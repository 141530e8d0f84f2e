#include "netsim/fabric.hpp"

#include "netsim/network.hpp"

namespace dv::netsim {

Fabric::Fabric(Shape shape, std::vector<Port> ports)
    : shape_(shape), ports_(std::move(ports)) {
  DV_REQUIRE(shape_.routers_per_group > 0 && shape_.ports_per_router > 0,
             "fabric needs routers and ports");
  DV_REQUIRE(ports_.size() ==
                 static_cast<std::size_t>(num_routers()) *
                     shape_.ports_per_router,
             "fabric port table does not match its shape");
  auto place = [](std::vector<PortRef>& at, std::uint32_t id, PortRef ref) {
    if (id >= at.size()) at.resize(id + 1, PortRef{~0u, ~0u});
    DV_REQUIRE(at[id].router == ~0u, "fabric link id used twice");
    at[id] = ref;
  };
  for (std::uint32_t r = 0; r < num_routers(); ++r) {
    for (std::uint32_t p = 0; p < shape_.ports_per_router; ++p) {
      const Port& hop = port(r, p);
      switch (hop.cls) {
        case LinkClass::kEjection:
          place(terminal_port_, hop.dst_terminal, {r, p});
          break;
        case LinkClass::kLocal:
          place(local_src_, hop.id, {r, p});
          break;
        case LinkClass::kGlobal:
          place(global_src_, hop.id, {r, p});
          break;
        default:
          break;
      }
    }
  }
  for (const auto* ends : {&terminal_port_, &local_src_, &global_src_}) {
    for (const PortRef& e : *ends) {
      DV_REQUIRE(e.router != ~0u, "fabric link ids are not dense");
    }
  }
}

Fabric Fabric::dragonfly(const topo::Dragonfly& topo, const Params& params) {
  const Shape shape{topo.groups(), topo.routers_per_group(),
                    topo.terminals_per_router(), topo.global_per_router(),
                    topo.ports_per_router()};
  const std::uint32_t nterm = topo.terminals_per_router();
  const std::uint32_t nlocal = topo.routers_per_group() - 1;
  std::vector<Port> ports;
  ports.reserve(static_cast<std::size_t>(topo.num_routers()) *
                shape.ports_per_router);
  for (std::uint32_t router = 0; router < topo.num_routers(); ++router) {
    for (std::uint32_t p = 0; p < shape.ports_per_router; ++p) {
      Port hop;
      if (p < nterm) {
        hop.cls = LinkClass::kEjection;
        hop.dst_terminal = topo.terminal_id(router, p);
        hop.id = hop.dst_terminal;
        hop.bandwidth = params.terminal_bandwidth;
        hop.latency = params.terminal_latency;
      } else if (p < nterm + nlocal) {
        const std::uint32_t lport = p - nterm;
        const std::uint32_t nrank =
            topo.local_neighbor(topo.router_rank(router), lport);
        hop.cls = LinkClass::kLocal;
        hop.dst_router = topo.router_id(topo.router_group(router), nrank);
        hop.dst_port = topo.local_port(nrank, topo.router_rank(router));
        hop.id = topo.local_link_id(router, lport);
        hop.bandwidth = params.local_bandwidth;
        hop.latency = params.local_latency;
      } else {
        const std::uint32_t channel = p - nterm - nlocal;
        const topo::GlobalEnd ge = topo.global_neighbor(router, channel);
        hop.cls = LinkClass::kGlobal;
        hop.dst_router = ge.router;
        hop.dst_port = topo.global_port(ge.channel);
        hop.id = topo.global_link_id(router, channel);
        hop.bandwidth = params.global_bandwidth;
        hop.latency = params.global_latency;
      }
      ports.push_back(hop);
    }
  }
  return Fabric(shape, std::move(ports));
}

Fabric Fabric::fat_tree(const topo::FatTree& topo, const Params& params) {
  const std::uint32_t k = topo.k();
  const std::uint32_t half = k / 2;
  const std::uint32_t core_pods = (topo.num_core() + k - 1) / k;
  const Shape shape{k + core_pods, k, half, half, k};
  std::vector<Port> ports(static_cast<std::size_t>(shape.groups) * k * k);
  auto link = [&](LinkClass cls, std::uint32_t id, PortRef from, PortRef to) {
    const bool local = cls == LinkClass::kLocal;
    ports[static_cast<std::size_t>(from.router) * k + from.port] =
        Port{cls, id, to.router, to.port, 0,
             local ? params.local_bandwidth : params.global_bandwidth,
             local ? params.local_latency : params.global_latency};
  };
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t i = 0; i < half; ++i) {
      const std::uint32_t edge = pod * k + i;
      for (std::uint32_t s = 0; s < half; ++s) {
        const std::uint32_t host = (pod * half + i) * half + s;
        ports[static_cast<std::size_t>(edge) * k + s] =
            Port{LinkClass::kEjection, host, 0, 0, host,
                 params.terminal_bandwidth, params.terminal_latency};
      }
      for (std::uint32_t j = 0; j < half; ++j) {
        const std::uint32_t agg = pod * k + half + j;
        const std::uint32_t id = ((pod * half + i) * half + j) * 2;
        link(LinkClass::kLocal, id, {edge, half + j}, {agg, i});
        link(LinkClass::kLocal, id + 1, {agg, i}, {edge, half + j});
      }
    }
    for (std::uint32_t j = 0; j < half; ++j) {
      const std::uint32_t agg = pod * k + half + j;
      for (std::uint32_t u = 0; u < half; ++u) {
        const std::uint32_t core = k * k + topo.core_above(pod * half + j, u);
        const std::uint32_t id = ((pod * half + j) * half + u) * 2;
        link(LinkClass::kGlobal, id, {agg, half + u}, {core, pod});
        link(LinkClass::kGlobal, id + 1, {core, pod}, {agg, half + u});
      }
    }
  }
  return Fabric(shape, std::move(ports));
}

namespace {

class UpDownEcmp final : public routing::Policy {
 public:
  UpDownEcmp(std::uint32_t k, std::uint64_t seed) : k_(k), seed_(seed) {}

  void on_inject(routing::PacketRoute& state, std::uint32_t src_terminal,
                 const routing::QueueProbe&, Rng&, routing::RouteStats& stats,
                 double) const override {
    std::uint64_t s =
        (static_cast<std::uint64_t>(src_terminal) << 32) | state.dst_terminal;
    s ^= seed_ * 0x9e3779b97f4a7c15ULL;
    state.flow_hash = static_cast<std::uint32_t>(splitmix64(s) >> 32);
    ++stats.minimal;
  }

  routing::Decision route(routing::PacketRoute& state, std::uint32_t router,
                          const routing::QueueProbe&, Rng&,
                          routing::RouteStats& stats,
                          double) const override {
    using Kind = routing::Decision::Kind;
    ++stats.steps;
    const std::uint32_t half = k_ / 2;
    const std::uint32_t dst_edge = state.dst_terminal / half;  // pod*half + i
    const std::uint32_t dst_pod = dst_edge / half;
    const std::uint32_t pod = router / k_;
    const std::uint32_t rank = router % k_;
    if (pod >= k_) return {Kind::kGlobal, dst_pod};  // core: down
    if (rank < half) {                                // edge switch
      if (rank == dst_edge % half && pod == dst_pod) {
        return {Kind::kTerminal, state.dst_terminal % half};
      }
      return {Kind::kLocal, half + state.flow_hash % half};
    }
    if (pod == dst_pod) return {Kind::kLocal, dst_edge % half};  // agg: down
    return {Kind::kGlobal, half + (state.flow_hash / half) % half};
  }

  std::uint32_t max_link_hops() const override { return 4; }
  std::string label() const override { return "ecmp_up_down"; }

 private:
  std::uint32_t k_;
  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<routing::Policy> make_updown_ecmp(const topo::FatTree& topo,
                                                  std::uint64_t seed) {
  return std::make_unique<UpDownEcmp>(topo.k(), seed);
}

}  // namespace dv::netsim
