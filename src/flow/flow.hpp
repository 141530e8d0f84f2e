// Flow-level fast backend for design-space sweeps.
//
// The packet simulator (netsim) resolves every 2 KB packet through
// store-and-forward routers; at ~9M events/s a hundreds-of-points design
// sweep takes hours. This module trades packet fidelity for steady-state
// fluid rates: each (src terminal, dst terminal) demand pair becomes a
// *flow* over a fixed path, and the rates are the max-min fair allocation
// computed by iterative water-filling (progressive filling: raise all
// unfrozen rates together, freeze the flows crossing whichever link
// exhausts first — SimGrid's LMM model, `waterFilling` in jianglong-nie's
// simulator). Demands activate when the workload issues them and drain at
// the allocated rates.
//
// Time advances event-driven, with one stepper: each step runs to the
// next rate-changing event — the next injection quantum, a batch of
// bundle completions, or a sampling-frame boundary — so the long drain
// tail costs a few steps, not one per tick. Completions shrink
// the active set, and shrink-only changes re-solve *incrementally*
// (water_fill_removed): finished bundles' rates leave their links and
// water-filling re-runs restricted to the flows the perturbation can
// actually reach, falling back to a full solve when the cascade spreads.
//
// The whole point is schema fidelity: FlowNetwork writes the *same*
// RunMetrics record (link rows with netsim's src/dst port conventions,
// terminal rows, frame-major sampled series) through the same
// netsim::RunRecorder as the packet backend, so every spec, ring, report,
// .dvr pack, and serve verb runs unchanged against either backend.
//
// Topology as data, as in netsim::Network: the network is a
// netsim::Fabric (the per-router port table) plus a routing::Policy, and
// a bundle's path is the walk Policy::route takes through the fabric's
// ports. A dragonfly routes with a RoutePlanner, a fat tree with up/down
// ECMP.
//
// What the model keeps: link traffic split, saturation ordering between
// scenarios, latency as completion time plus fixed path latency, adaptive
// routing as a UGAL-style decision on solved link utilization. What it
// drops: packet-level queueing dynamics, VC backpressure transients, and
// fault injection (rejected up front).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "netsim/fabric.hpp"
#include "netsim/network.hpp"
#include "placement/placement.hpp"
#include "routing/routing.hpp"
#include "util/rng.hpp"

namespace dv::flow {

/// One flow's view of the network for the solver: the links it crosses
/// (indices into the capacity vector) and an optional rate ceiling (its
/// demand rate; infinity = limited by the network only, <= 0 = absent).
struct SolverFlow {
  std::vector<std::uint32_t> links;
  double rate_cap = std::numeric_limits<double>::infinity();
};

struct SolverResult {
  std::vector<double> rates;      ///< per flow, same order as input
  std::vector<double> link_load;  ///< per link, sum of crossing rates
  std::uint32_t rounds = 0;       ///< water-filling iterations taken
};

/// Iterative max-min fair allocation (progressive filling / water-filling).
/// Every round raises all active rates by the largest uniform increment no
/// link or rate cap can refuse, then freezes the flows on the exhausted
/// link(s) and the flows that hit their cap. Terminates in at most
/// flows + links rounds; the result satisfies the max-min certificate:
/// every flow is either at its cap or crosses at least one saturated link.
SolverResult water_fill(const std::vector<double>& capacity,
                        const std::vector<SolverFlow>& flows);

/// Outcome of an incremental re-solve (water_fill_removed).
struct IncrementalResult {
  std::uint32_t released = 0;  ///< flows re-solved by the restricted passes
  std::uint32_t rounds = 0;    ///< restricted water-filling rounds taken
  /// The release cascade passed cascade_frac of the surviving flows; the
  /// state was left partially updated and the caller must run a full
  /// water_fill instead.
  bool full_solve = false;
};

/// Incremental max-min re-solve after deleting flows from a solved state.
///
/// `state` must be the water_fill result for `flows` (flows with
/// rate_cap <= 0 treated as absent). `removed` names currently-alive flows
/// to delete; their rates are taken off the links they crossed and
/// water-filling re-runs restricted to the flows the perturbation can
/// reach: the seed set is every alive flow crossing a removed flow's
/// links, and each restricted pass releases further frozen flows whose
/// max-min certificate the pass invalidated — a frozen flow above the new
/// water level of a still-saturated link (it must drop to make room), or
/// any frozen flow on a previously-saturated link that lost saturation
/// (it may rise). Links no released or removed flow crosses keep their
/// frozen allocation untouched, which is what makes sparse completions
/// cheap. When the released set exceeds `cascade_frac` of the surviving
/// flows the function bails with full_solve = true (state unspecified).
///
/// On success, `state` holds the same allocation a fresh water_fill over
/// the surviving flows would produce (removed flows' rates are zeroed).
/// The caller owns marking removed flows absent (rate_cap <= 0) before
/// reusing `flows` in later solves.
IncrementalResult water_fill_removed(const std::vector<double>& capacity,
                                     const std::vector<SolverFlow>& flows,
                                     const std::vector<std::uint32_t>& removed,
                                     SolverResult& state,
                                     double cascade_frac = 0.5);

/// Flow-level simulation: construct, add messages, run once — the same
/// constructors and call sequence as netsim::Network, consuming the same
/// netsim::Message and netsim::Params so app::run_experiment drives both
/// backends with one code path.
class FlowNetwork {
 public:
  /// A dragonfly under `algo`. Valiant candidates (nonminimal proxies, the
  /// adaptive algorithms' UGAL candidate) are drawn by a RoutePlanner in
  /// kNonMinimal mode on netsim's per-source-terminal streams.
  FlowNetwork(const topo::Dragonfly& topo, routing::Algo algo,
              netsim::Params params = {}, std::uint64_t seed = 1);
  /// A 3-level fat tree (netsim::Fabric::fat_tree layout) with up/down
  /// ECMP routing, as netsim::Network builds it.
  FlowNetwork(const topo::FatTree& topo, netsim::Params params = {},
              std::uint64_t seed = 1);

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  // The record's inputs, checked by the same netsim::RunRecorder as the
  // packet backend's.
  void add_message(const netsim::Message& m) { recorder_.add_message(m); }
  void add_messages(const std::vector<netsim::Message>& ms) {
    recorder_.add_messages(ms);
  }
  void set_labels(std::string workload, std::string placement,
                  std::vector<std::string> job_names) {
    recorder_.set_labels(std::move(workload), std::move(placement),
                         std::move(job_names));
  }
  void set_jobs(const placement::Placement& placement) {
    recorder_.set_jobs(placement);
  }

  /// Fixed-rate time-series sampling (dt in ns). When enabled, the
  /// injection quantum is locked to dt and event steps split at frame
  /// boundaries, so frames are exactly the per-interval deltas. Unsampled
  /// runs size the quantum to 1/256 of the injection span.
  void enable_sampling(double dt) { recorder_.enable_sampling(dt); }

  /// Runs to completion (all demands drained) and returns metrics with
  /// the exact netsim RunMetrics schema. May be called once.
  metrics::RunMetrics run();

  // Work counters (the flow backend's analog of events_processed()).
  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t solver_rounds() const { return solver_rounds_; }
  std::uint64_t solves() const { return solves_; }
  std::uint64_t incremental_solves() const { return incremental_solves_; }
  std::size_t bundles() const { return bundles_.size(); }

 private:
  FlowNetwork(netsim::Fabric fabric, std::unique_ptr<routing::Policy> policy,
              routing::Algo algo, netsim::Params params, std::uint64_t seed);

  /// All directed links in one index space (the solver's capacity vector):
  /// [0,T) injection, [T,2T) ejection, [2T,2T+L) local, [2T+L,2T+L+G)
  /// global, where T/L/G are the fabric's terminal/local/global counts.
  std::uint32_t inj_link(std::uint32_t term) const { return term; }
  std::uint32_t ej_link(std::uint32_t term) const { return nterm_ + term; }
  std::uint32_t local_link(std::uint32_t lid) const {
    return 2 * nterm_ + lid;
  }
  std::uint32_t global_link(std::uint32_t gid) const {
    return 2 * nterm_ + nlocal_ + gid;
  }

  /// One issued message as completion accounting sees it (its endpoints
  /// are its bundle's).
  struct QueuedMsg {
    double issue = 0.0;          ///< application send time
    std::uint64_t bytes = 0;     ///< size (packet accounting)
  };
  /// A demand bundle: every message of one (src,dst) terminal pair drains
  /// FIFO through one flow. Its path is (re)decided whenever the bundle
  /// transitions idle -> backlogged, the flow-level analog of per-packet
  /// adaptive decisions at injection time. The bundle's messages sit in
  /// one slice of queue_, in issue order; [head, tail) is the FIFO of
  /// issued, undrained messages. Only the head message is ever partly
  /// drained.
  struct Bundle {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    double backlog = 0.0;                ///< bytes not yet drained
    double rate = 0.0;                   ///< current allocation (bytes/ns)
    std::vector<std::uint32_t> links;    ///< current path (link indices)
    std::uint32_t router_hops = 0;       ///< routers on the path
    double path_latency = 0.0;           ///< fixed wire+router latency (ns)
    std::uint32_t head = 0;  ///< queue_ slot of the oldest undrained message
    std::uint32_t tail = 0;  ///< queue_ slot of the next message to issue
    double head_left = 0.0;  ///< bytes of the head message still to drain
  };

  struct PathInfo {
    std::vector<std::uint32_t> links;
    std::uint32_t router_hops = 0;
    double latency = 0.0;
  };

  /// Walks Policy::route from `src_term` to route.dst_terminal through the
  /// fabric's ports (the route's proxies already drawn) and records every
  /// link crossed into `path` (its storage is reused).
  void build_path(std::uint32_t src_term, routing::PacketRoute route,
                  PathInfo& path) const;

  /// Bottleneck utilization along a path, from the previous solve.
  double path_peak_util(const PathInfo& path) const;

  bool adaptive() const {
    return algo_ == routing::Algo::kAdaptive ||
           algo_ == routing::Algo::kProgressiveAdaptive;
  }
  /// Chooses the bundle's path per the configured algorithm. Adaptive
  /// algorithms compare the bottleneck utilization (from the previous
  /// solve) along the minimal path against a Valiant candidate — the
  /// fluid analog of UGAL's queue-depth comparison — and keep whichever
  /// candidate wins.
  void decide_route(Bundle& b);

  /// Creates the bundles (ids in first-issue order) and lays every
  /// message out in queue_, grouped per bundle in issue order. Returns
  /// the bundle of each position of `order`.
  std::vector<std::uint32_t> layout_bundles(
      const std::vector<std::uint32_t>& order);
  /// Returns true when any bundle fully drained (the active set changed,
  /// so the next step must re-solve).
  bool drain_epoch(double t0, double dt);
  /// RunRecorder probe: cumulative link and terminal counters, read from
  /// link_traffic_ / link_sat_.
  struct Cumulative;
  void publish_run_obs(const metrics::RunMetrics& out);

  // Event-driven stepper.
  /// Issues the laid-out messages in order (`issue_bundle[k]` is the
  /// bundle of the k-th). Returns the simulated end time (sampled: last
  /// frame boundary).
  double run_event(const std::vector<std::uint32_t>& issue_bundle, double dt);
  void solve_event_full(double dt);
  /// Shrink-only re-solve: `removed` is the accumulated completion batch
  /// since the last solve (still cap-alive in ev_flows_; zeroed here).
  void solve_event_drained(double dt, const std::vector<std::uint32_t>& removed);
  void apply_event_solve();
  /// Time of the k-th next bundle completion at current rates (the batch
  /// re-solve target); infinity when nothing is active.
  double next_completion_target(double t);

  // ---- state ----------------------------------------------------------
  const netsim::Fabric fabric_;
  std::unique_ptr<routing::Policy> policy_;
  routing::Algo algo_;  ///< kMinimal for the fat tree
  netsim::Params params_;
  routing::NullProbe null_probe_;

  std::uint32_t nterm_ = 0, nlocal_ = 0, nglobal_ = 0;
  std::vector<double> capacity_;     ///< per link, bytes/ns
  std::vector<double> link_traffic_; ///< per link, cumulative bytes
  std::vector<double> link_sat_;     ///< per link, cumulative saturated ns
  std::vector<double> link_util_;    ///< load/capacity from the last solve
  std::vector<std::uint32_t> sat_links_;      ///< saturated-link list

  netsim::RunRecorder recorder_;
  std::vector<Bundle> bundles_;
  std::vector<QueuedMsg> queue_;  ///< every message, sliced per bundle
  std::vector<std::uint32_t> active_;  ///< bundle ids, ascending

  std::vector<Rng> term_rng_;  ///< per-source Valiant draws (netsim scheme)

  std::uint64_t epochs_ = 0;
  std::uint64_t solver_rounds_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t full_solves_ = 0;
  std::uint64_t incremental_solves_ = 0;
  std::uint64_t drain_events_ = 0;
  std::uint64_t msgs_finished_ = 0;
  double bytes_injected_ = 0.0;
  double bytes_delivered_ = 0.0;
  double max_delivery_ = 0.0;

  // Event-engine solver state: one persistent SolverFlow per bundle
  // (rate_cap <= 0 = absent), so incremental re-solves have a stable flow
  // index space and full solves skip per-step path copies.
  std::vector<SolverFlow> ev_flows_;
  SolverResult ev_state_;
  /// The last event solve froze some flow at its demand cap; such rates
  /// change with every drained byte, so shrink-only steps cannot reuse
  /// the frozen allocation and must full-solve.
  bool ev_cap_bound_ = false;

  // Scratch reused across steps.
  std::vector<std::uint32_t> drained_;
  std::vector<double> comp_scratch_;
  PathInfo min_path_, alt_path_;  ///< route candidates
};

}  // namespace dv::flow
