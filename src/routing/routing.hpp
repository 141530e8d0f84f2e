// Routing strategies for Dragonfly networks (Sec. II-A, V-B of the paper):
// minimal, non-minimal (Valiant), adaptive (UGAL with local queue
// information), and progressive adaptive routing (PAR, Jiang et al. 2009 —
// the strategy the paper's burst analysis recommends).
//
// The planner is pure policy: it owns no network state. Queue occupancies
// come from a QueueProbe supplied by the simulator, which keeps this module
// unit-testable with synthetic congestion patterns. The simulator calls it
// through the topology-neutral Policy interface, which the fat tree's
// up/down ECMP (netsim/fabric.hpp) implements too.
#pragma once

#include <cstdint>
#include <string>

#include "topology/dragonfly.hpp"
#include "util/rng.hpp"

namespace dv::routing {

enum class Algo {
  kMinimal,
  kNonMinimal,          ///< Valiant: always via a random proxy group
  kAdaptive,            ///< UGAL-L decision at the source router
  kProgressiveAdaptive, ///< re-evaluate while still in the source group
};

Algo algo_from_string(const std::string& name);  // throws on unknown
std::string to_string(Algo a);

/// Per-packet routing state carried through the network.
struct PacketRoute {
  std::uint32_t dst_terminal = 0;
  std::int32_t proxy_group = -1;   ///< Valiant intermediate group, -1 = none
  std::int32_t proxy_router = -1;  ///< intra-group Valiant intermediate router
  std::int32_t src_group = -1;     ///< group of the injecting terminal
  std::uint32_t flow_hash = 0;     ///< ECMP hash of (src, dst, seed)
  bool proxy_reached = false;      ///< set once the packet enters the proxy
  bool proxy_router_reached = false;
  bool decided = false;            ///< adaptive choice has been committed
  bool fault_detour = false;       ///< Valiant proxy forced by a dead link
};

/// One forwarding decision: the output port on the current router.
struct Decision {
  enum class Kind { kTerminal, kLocal, kGlobal };
  Kind kind = Kind::kTerminal;
  std::uint32_t port = 0;  ///< router port index (see Dragonfly port map)
};

/// Read-only view of router output congestion, supplied by the simulator.
/// depth() is in packets (queue length + in-service).
class QueueProbe {
 public:
  virtual ~QueueProbe() = default;
  virtual double depth(std::uint32_t router, std::uint32_t port) const = 0;
  /// True when the output port is unusable at `now` because of an injected
  /// fault (dead link, dead router on either end). Pure function of the
  /// fault plan. Default: a healthy network.
  virtual bool port_blocked(std::uint32_t /*router*/, std::uint32_t /*port*/,
                            double /*now*/) const {
    return false;
  }
  /// Fast gate: false keeps every fault check off the no-fault hot path.
  virtual bool faults_active() const { return false; }
};

/// A probe reporting empty queues everywhere (for tests / pure path math).
class NullProbe : public QueueProbe {
 public:
  double depth(std::uint32_t, std::uint32_t) const override { return 0.0; }
};

/// Tuning knobs for the adaptive decision.
struct AdaptiveParams {
  /// UGAL bias: minimal wins when q_min*H_min <= q_non*H_non + threshold.
  double threshold = 1.0;
  /// PAR divert trigger: divert when the queue toward the minimal next hop
  /// exceeds this depth and a less-loaded non-minimal candidate exists.
  double par_divert_depth = 4.0;
};

/// Tally of route decisions taken (adaptive-vs-minimal split etc.). The
/// planner only counts; the simulator publishes these to the observability
/// registry at the end of a run.
struct RouteStats {
  std::uint64_t minimal = 0;       ///< packets committed to the minimal path
  std::uint64_t nonminimal = 0;    ///< packets sent via a Valiant proxy
  std::uint64_t par_diverts = 0;   ///< in-flight PAR diversions (subset of
                                   ///< nonminimal)
  std::uint64_t fault_detours = 0; ///< Valiant proxies forced by dead global
                                   ///< links (counted apart from the
                                   ///< minimal/nonminimal commitment split)
  std::uint64_t steps = 0;         ///< route() calls (forwarding decisions)
};

/// The routing policy the packet simulator runs: one implementation per
/// topology family, over that family's router/port numbering. Calls are
/// const and take the random stream and stats tally from the caller, so
/// one policy can serve many threads (each supplies its own Rng/stats).
class Policy {
 public:
  virtual ~Policy() = default;

  /// Called when a packet is injected (state.dst_terminal must be set).
  /// `now` is the injection timestamp, used only for fault-liveness probes.
  virtual void on_inject(PacketRoute& state, std::uint32_t src_terminal,
                         const QueueProbe& probe, Rng& rng, RouteStats& stats,
                         double now = 0.0) const = 0;

  /// Next hop for a packet sitting in `router`; may mutate `state`.
  virtual Decision route(PacketRoute& state, std::uint32_t router,
                         const QueueProbe& probe, Rng& rng, RouteStats& stats,
                         double now = 0.0) const = 0;

  /// Upper bound on router-to-router link hops any packet can take; the
  /// simulator sizes its VC count from this (VC index = hop index gives an
  /// acyclic channel dependency graph, hence deadlock freedom).
  virtual std::uint32_t max_link_hops() const = 0;

  /// Routing label recorded in the run's metrics.
  virtual std::string label() const = 0;
};

/// Dragonfly routing: the Algo strategies above.
class RoutePlanner final : public Policy {
 public:
  RoutePlanner(const topo::Dragonfly& net, Algo algo,
               AdaptiveParams params = {}, std::uint64_t seed = 1);

  Algo algo() const { return algo_; }
  const topo::Dragonfly& topology() const { return net_; }
  const RouteStats& stats() const { return stats_; }

  /// Fixes src_group and, for Valiant, the proxy group.
  void on_inject(PacketRoute& state, std::uint32_t src_terminal,
                 const QueueProbe& probe, Rng& rng, RouteStats& stats,
                 double now = 0.0) const override;

  /// Mutates state (proxy progress, adaptive commitment).
  Decision route(PacketRoute& state, std::uint32_t router,
                 const QueueProbe& probe, Rng& rng, RouteStats& stats,
                 double now = 0.0) const override;

  /// Convenience overloads using the planner's own RNG stream and stats
  /// (single-threaded callers and the routing unit tests).
  void on_inject(PacketRoute& state, std::uint32_t src_terminal,
                 const QueueProbe& probe) {
    on_inject(state, src_terminal, probe, rng_, stats_);
  }
  Decision route(PacketRoute& state, std::uint32_t router,
                 const QueueProbe& probe) {
    return route(state, router, probe, rng_, stats_);
  }

  /// Opts the planner into degraded-mode routing (fault detours around
  /// dead global links). Must be set before the simulation hands out
  /// credits: it raises max_link_hops() for minimal routing, because a
  /// detoured "minimal" packet takes a Valiant-length path.
  void set_fault_aware(bool aware) { fault_aware_ = aware; }

  /// Grows for fault-aware minimal routing (see set_fault_aware).
  std::uint32_t max_link_hops() const override;
  std::string label() const override { return to_string(algo_); }

 private:
  Decision minimal_step(std::uint32_t router, std::uint32_t dst_terminal,
                        std::int32_t target_group) const;
  std::int32_t pick_proxy(std::uint32_t src_group, std::uint32_t dst_group,
                          Rng& rng) const;
  std::int32_t pick_intermediate_router(std::uint32_t group,
                                        std::uint32_t src_router,
                                        std::uint32_t dst_router,
                                        Rng& rng) const;
  std::uint32_t first_hop_port(std::uint32_t router, std::uint32_t target_group,
                               std::uint32_t dst_terminal) const;

  /// Fault detour: when the global exit toward `target_group` is dead,
  /// commits the packet to a live Valiant proxy. Returns true if a detour
  /// (or none needed) was applied; false when no live exit exists.
  bool maybe_fault_detour(PacketRoute& state, std::uint32_t router,
                          std::uint32_t target_group, const QueueProbe& probe,
                          Rng& rng, RouteStats& stats, double now) const;

  const topo::Dragonfly net_;
  Algo algo_;
  AdaptiveParams params_;
  Rng rng_;
  RouteStats stats_;
  bool fault_aware_ = false;
};

}  // namespace dv::routing
