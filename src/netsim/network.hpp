// Packet-level network simulator (the CODES stand-in) for any topology a
// Fabric describes: the Dragonfly the paper studies, and the fat tree of
// its future work (Sec. VI).
//
// Model: store-and-forward packets, output-queued routers, credit-based
// virtual-channel flow control. Every directed link (local, global, and
// both directions of each terminal-router cable) has per-VC credit pools;
// a packet occupies one downstream buffer slot from the moment its
// transmission starts until the downstream hop forwards it onward. The
// "link saturation time" metric — the paper's congestion signal — is the
// accumulated time any VC buffer of the link is full, which is exactly the
// back-pressure condition.
//
// Topology as data: the constructor turns the topology into a Fabric (the
// per-router port table, see fabric.hpp) and a routing::Policy; nothing
// below the constructors reads topology geometry any other way. A dragonfly
// routes with the RoutePlanner (minimal / Valiant / UGAL / PAR, fault
// detours), a fat tree with up/down ECMP.
//
// Deadlock freedom: the VC used on a router-to-router link equals the
// packet's link-hop index, which increases monotonically along every path
// the routing policy allows, so the channel dependency graph is acyclic.
//
// Engine: the sequential dv::pdes::Simulator. Simultaneous events are
// ordered by a priority key built from the event kind and the entity it
// concerns (packet uid, terminal, port, link), never by storage slots, and
// every terminal and router draws routing randomness from its own stream.
// A run is therefore a pure function of (topology, params, messages, seed).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/run_metrics.hpp"
#include "netsim/fabric.hpp"
#include "netsim/run_recorder.hpp"
#include "pdes/engine.hpp"
#include "placement/placement.hpp"
#include "routing/routing.hpp"
#include "topology/dragonfly.hpp"
#include "topology/fattree.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"

namespace dv::netsim {

/// Physical parameters. Bandwidths are in GB/s (== bytes/ns), latencies
/// and delays in ns. Defaults approximate the Cray Aries-class links used
/// in the paper's CODES configurations.
struct Params {
  double terminal_bandwidth = 5.25;
  double local_bandwidth = 5.25;
  double global_bandwidth = 4.7;
  double terminal_latency = 30.0;
  double local_latency = 50.0;
  double global_latency = 300.0;
  double router_delay = 50.0;
  double credit_latency = 20.0;
  std::uint32_t packet_size = 2048;       ///< bytes per packet (last may be short)
  std::uint32_t vc_buffer_packets = 8;    ///< credits per (link, VC)
  routing::AdaptiveParams adaptive;
  std::uint64_t event_budget = 0;         ///< 0 = unlimited
  /// Fault handling: a packet whose chosen output port is dead waits
  /// fault_retry_base * 2^(attempt-1) ns between attempts; after
  /// fault_retry_budget failed attempts it is dropped.
  double fault_retry_base = 200.0;
  std::uint32_t fault_retry_budget = 6;

  void validate() const;
};

/// A complete simulation: construct, add messages, run once.
class Network final : public pdes::LogicalProcess,
                      public routing::QueueProbe {
 public:
  Network(const topo::Dragonfly& topo, routing::Algo algo, Params params = {},
          std::uint64_t seed = 1);
  /// A 3-level fat tree (Fabric::fat_tree layout) with up/down ECMP
  /// routing: hosts are terminals, edge-agg links are local and agg-core
  /// links global, with Params' local/global bandwidths and latencies.
  Network(const topo::FatTree& topo, Params params = {},
          std::uint64_t seed = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Fabric& fabric() const { return fabric_; }

  // The record's inputs, checked and kept by the RunRecorder. A sampled
  // run (dt in ns) advances the engine to each tick and pushes a frame.
  void add_message(const Message& m) { recorder_.add_message(m); }
  void add_messages(const std::vector<Message>& ms) {
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
  void enable_sampling(double dt) { recorder_.enable_sampling(dt); }

  /// Installs a fault plan (must be called before run()). An empty plan is
  /// a no-op: the simulation is bit-identical to one without this call.
  /// A non-empty plan compiles the plan into a FaultTimeline, switches the
  /// planner into fault-aware routing (which may raise the VC count for
  /// minimal routing — detoured packets take Valiant-length paths), and
  /// schedules one wake event per liveness transition so the reaction is
  /// an ordinary deterministic PDES event. Fault plans need a dragonfly; a
  /// non-empty plan on a fat tree is rejected.
  void set_fault_plan(const fault::FaultPlan& plan);

  /// Accepts 0 or 1 and throws for more workers: the parallel engine was
  /// removed. Stays only until analyst_bench drops its set_parallel(1) call.
  void set_parallel(std::uint32_t workers);

  /// The smallest link or credit delay; the scheduler's bucket width.
  double lookahead() const;

  /// Runs the simulation to completion and returns the collected metrics.
  /// May be called once.
  metrics::RunMetrics run();

  // routing::QueueProbe: output queue depth (packets, incl. in service).
  double depth(std::uint32_t router, std::uint32_t port) const override;
  // routing::QueueProbe: fault liveness of an output port. Pure function
  // of the fault timeline.
  bool port_blocked(std::uint32_t router, std::uint32_t port,
                    double now) const override;
  bool faults_active() const override { return has_faults_; }

  // pdes::LogicalProcess.
  void on_event(pdes::Simulator& sim, const pdes::Event& ev) override;

  std::uint64_t events_processed() const { return sim_.events_processed(); }
  /// Largest pending-event count seen (0 in DV_OBS_ENABLED=OFF builds).
  std::size_t queue_high_water() const { return sim_.queue_high_water(); }
  std::uint64_t packets_injected() const { return packets_injected_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }

 private:
  Network(Fabric fabric, std::unique_ptr<routing::Policy> policy,
          Params params, std::uint64_t seed);

  // ---- link identity: class + id ------------------------------------
  static std::uint64_t encode_link(LinkClass c, std::uint32_t id, std::uint32_t vc);
  static LinkClass link_class(std::uint64_t enc);
  static std::uint32_t link_id(std::uint64_t enc);
  static std::uint32_t link_vc(std::uint64_t enc);

  // ---- per-link-class credit/metric state ---------------------------
  struct LinkArray {
    std::uint32_t vcs = 1;
    std::vector<std::int32_t> credits;    // [link*vcs + vc]
    std::vector<SimTime> zero_since;      // [link*vcs + vc]
    std::vector<double> closed_sat;       // [link]
    std::vector<std::uint32_t> open_zero; // [link] count of open intervals
    std::vector<double> open_since_sum;   // [link]
    std::vector<double> traffic;          // [link] bytes
    std::vector<std::uint8_t> backlog;    // [link] output backlog state
    std::vector<SimTime> backlog_since;   // [link]
    std::vector<std::uint64_t> retries;   // [link] fault retries at the port
    std::vector<std::uint64_t> drops;     // [link] packets dropped at the port

    void init(std::size_t links, std::uint32_t vcs_per_link,
              std::int32_t initial_credits);
    void take_credit(std::uint32_t link, std::uint32_t vc, SimTime now);
    void give_credit(std::uint32_t link, std::uint32_t vc, SimTime now);
    bool has_credit(std::uint32_t link, std::uint32_t vc) const;
    /// Output-backlog contribution: while the upstream output queue holds
    /// a full buffer's worth of packets the link counts as saturated
    /// (contention at the link itself, not just downstream blocking).
    void set_backlog(std::uint32_t link, bool full, SimTime now);
    /// Saturation accumulated up to `now`, including open intervals.
    double sat_at(std::uint32_t link, SimTime now) const;
  };

  struct Packet {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t size = 0;
    std::int32_t job = -1;
    SimTime inject_time = 0.0;
    std::uint64_t uid = 0;          // (src << 32) | per-terminal counter:
                                    // the packet's event priority key
    std::uint32_t router_hops = 0;  // routers visited
    std::uint32_t link_hops = 0;    // router-router links crossed (== VC)
    std::uint32_t retries = 0;      // fault-retry attempts at current router
    std::uint64_t in_link = 0;      // where to return the buffer credit
    routing::PacketRoute route;
  };

  struct OutPort {
    RingQueue<std::uint32_t> queue;
    bool busy = false;
  };

  struct MsgProgress {
    std::uint32_t dst = 0;
    std::uint64_t remaining = 0;
    std::int32_t job = -1;
    SimTime issue_time = 0.0;  ///< when the application issued the send
  };

  struct TerminalState {
    RingQueue<MsgProgress> pending;
    bool injector_busy = false;
  };

  // ---- event kinds ---------------------------------------------------
  enum : std::uint32_t {
    kEvMsgStart,      // data0 = message index, data1 = its start_order_ slot
    kEvInjectorFree,  // data0 = terminal
    kEvPktAtRouter,   // data0 = packet, data1 = router
    kEvPktAtTerminal, // data0 = packet, data1 = terminal
    kEvPortFree,      // data0 = router, data1 = port
    kEvCredit,        // data0 = encoded link+vc
    kEvPktRetry,      // data0 = packet, data1 = router
    kEvFaultWake,     // data0 = router (a liveness transition near it)
    kEvPktDropNotify, // data0 = src terminal (attributes the drop)
  };

  /// Ordering key for simultaneous events: kind in the top byte, the
  /// owning entity (packet uid, terminal, port, link) below. Events sharing
  /// a key are interchangeable (e.g. two credit returns for the same
  /// link+VC), so any (time, pri)-respecting order yields identical
  /// results.
  static constexpr std::uint64_t pri_key(std::uint32_t kind,
                                         std::uint64_t entity) {
    return (static_cast<std::uint64_t>(kind) << 56) | entity;
  }

  // ---- helpers ---------------------------------------------------
  /// Packets live in one vector; freed ids are reused last-in first-out.
  /// No Packet& is held across an alloc_packet, so growth is safe.
  std::uint32_t alloc_packet();
  /// Schedules the start of message start_order_[pos].
  void schedule_start(std::size_t pos);
  void free_packet(std::uint32_t pid) { free_packets_.push_back(pid); }
  Packet& packet(std::uint32_t pid) { return packets_[pid]; }
  OutPort& port(std::uint32_t router, std::uint32_t p);
  LinkArray& link_array_for(LinkClass cls);
  void update_backlog(std::uint32_t router, std::uint32_t p);
  /// Schedules an event `delay` after now on the network's single LP.
  void schedule_in(SimTime delay, std::uint32_t kind, std::uint64_t data0,
                   std::uint64_t data1, std::uint64_t pri) {
    sim_.schedule_in(delay, 0, kind, data0, data1, pri);
  }

  void try_inject(std::uint32_t term);
  void try_transmit(std::uint32_t router, std::uint32_t p);
  void handle_packet_at_router(std::uint32_t pkt_id, std::uint32_t router,
                               bool is_retry = false);
  void handle_packet_at_terminal(std::uint32_t pkt_id, std::uint32_t term);
  /// Fault reaction for a packet whose next hop from `router` is dead:
  /// schedules an exponential-backoff retry while the budget lasts, then
  /// drops the packet (freeing its buffer credit and notifying the source
  /// terminal for attribution).
  void retry_or_drop(std::uint32_t pkt_id, std::uint32_t router,
                     std::uint32_t blocked_port =
                         std::numeric_limits<std::uint32_t>::max());
  /// Reacts to a liveness transition adjacent to `router`: bounces queued
  /// packets off now-dead ports into the retry path, restarts transmission
  /// on revived ports, and re-attempts injection at local terminals.
  void handle_fault_wake(std::uint32_t router);
  void return_credit(std::uint64_t enc_link);
  /// RunRecorder probe: the cumulative counters of every link and
  /// terminal at `now`.
  struct Cumulative;
  /// The recorded run plus the fault columns (the "collect" phase).
  metrics::RunMetrics collect(SimTime end);
  void publish_run_obs(const metrics::RunMetrics& out);

  // ---- state ---------------------------------------------------------
  const Fabric fabric_;
  std::unique_ptr<routing::Policy> policy_;
  // policy_ when it is a dragonfly RoutePlanner (fault plans resolve
  // against its topology), else null.
  routing::RoutePlanner* planner_ = nullptr;
  Params params_;
  pdes::Simulator sim_;

  RunRecorder recorder_;
  // Message indices sorted by (time, index): the order starts fire in.
  std::vector<std::uint32_t> start_order_;
  std::vector<TerminalState> terminals_;
  std::vector<OutPort> ports_;       // router-major, as in fabric_
  std::uint32_t ports_per_router_ = 0;
  std::uint32_t num_vcs_ = 1;

  LinkArray local_links_, global_links_, injection_, ejection_;

  std::vector<Packet> packets_;
  std::vector<std::uint32_t> free_packets_;
  std::vector<Rng> term_rng_;               // injection-time routing draws
  std::vector<Rng> router_rng_;             // in-flight (PAR) routing draws
  std::vector<std::uint32_t> term_pkt_seq_; // per-terminal packet counter

  std::uint64_t packets_injected_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t bytes_injected_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t msgs_finished_ = 0;
  std::uint64_t fault_retries_ = 0;
  std::uint64_t pkts_dropped_ = 0;
  std::uint64_t bytes_dropped_ = 0;
  routing::RouteStats route_stats_;

  // Fault columns per terminal; the delivery sums live in recorder_.
  std::vector<std::uint64_t> term_rerouted_;
  std::vector<std::uint64_t> term_dropped_;

  // Fault injection. fault_ is immutable during the run.
  fault::FaultTimeline fault_;
  bool has_faults_ = false;
  std::vector<std::uint64_t> router_retries_;
  std::vector<std::uint64_t> router_drops_;

};

}  // namespace dv::netsim
