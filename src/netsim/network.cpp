#include "netsim/network.hpp"

#include <algorithm>
#include <numeric>

#include "obs/obs.hpp"

namespace dv::netsim {

// ----------------------------------------------------------------- Params

void Params::validate() const {
  DV_REQUIRE(terminal_bandwidth > 0 && local_bandwidth > 0 &&
                 global_bandwidth > 0,
             "bandwidths must be positive");
  DV_REQUIRE(terminal_latency > 0 && local_latency > 0 && global_latency > 0,
             "link latencies must be positive (zero latencies break "
             "saturation accounting and the scheduler's bucket width)");
  DV_REQUIRE(router_delay >= 0, "router delay must be non-negative");
  DV_REQUIRE(credit_latency > 0,
             "credit latency must be positive (it bounds the scheduler's "
             "bucket width)");
  DV_REQUIRE(packet_size > 0, "packet size must be positive");
  DV_REQUIRE(vc_buffer_packets > 0, "vc buffer must hold at least one packet");
  DV_REQUIRE(fault_retry_base > 0,
             "fault retry backoff base must be positive");
}

// ----------------------------------------------------------------- LinkArray

void Network::LinkArray::init(std::size_t links, std::uint32_t vcs_per_link,
                              std::int32_t initial_credits) {
  vcs = vcs_per_link;
  credits.assign(links * vcs, initial_credits);
  zero_since.assign(links * vcs, 0.0);
  closed_sat.assign(links, 0.0);
  open_zero.assign(links, 0);
  open_since_sum.assign(links, 0.0);
  traffic.assign(links, 0.0);
  backlog.assign(links, 0);
  backlog_since.assign(links, 0.0);
  retries.assign(links, 0);
  drops.assign(links, 0);
}

void Network::LinkArray::set_backlog(std::uint32_t link, bool full,
                                     SimTime now) {
  if (full == static_cast<bool>(backlog[link])) return;
  if (full) {
    backlog[link] = 1;
    backlog_since[link] = now;
    ++open_zero[link];
    open_since_sum[link] += now;
  } else {
    backlog[link] = 0;
    closed_sat[link] += now - backlog_since[link];
    DV_CHECK(open_zero[link] > 0, "backlog bookkeeping underflow");
    --open_zero[link];
    open_since_sum[link] -= backlog_since[link];
  }
}

bool Network::LinkArray::has_credit(std::uint32_t link, std::uint32_t vc) const {
  return credits[link * vcs + vc] > 0;
}

void Network::LinkArray::take_credit(std::uint32_t link, std::uint32_t vc,
                                     SimTime now) {
  const std::size_t idx = link * vcs + vc;
  DV_CHECK(credits[idx] > 0, "taking credit from an empty pool");
  if (--credits[idx] == 0) {
    zero_since[idx] = now;
    ++open_zero[link];
    open_since_sum[link] += now;
  }
}

void Network::LinkArray::give_credit(std::uint32_t link, std::uint32_t vc,
                                     SimTime now) {
  const std::size_t idx = link * vcs + vc;
  if (credits[idx] == 0) {
    closed_sat[link] += now - zero_since[idx];
    DV_CHECK(open_zero[link] > 0, "credit bookkeeping underflow");
    --open_zero[link];
    open_since_sum[link] -= zero_since[idx];
  }
  ++credits[idx];
}

double Network::LinkArray::sat_at(std::uint32_t link, SimTime now) const {
  return closed_sat[link] +
         static_cast<double>(open_zero[link]) * now - open_since_sum[link];
}

// ----------------------------------------------------------------- encoding

std::uint64_t Network::encode_link(LinkClass c, std::uint32_t id,
                                   std::uint32_t vc) {
  return (static_cast<std::uint64_t>(c) << 48) |
         (static_cast<std::uint64_t>(vc) << 40) | id;
}

LinkClass Network::link_class(std::uint64_t enc) {
  return static_cast<LinkClass>(enc >> 48);
}

std::uint32_t Network::link_id(std::uint64_t enc) {
  return static_cast<std::uint32_t>(enc & 0xffffffffULL);
}

std::uint32_t Network::link_vc(std::uint64_t enc) {
  return static_cast<std::uint32_t>((enc >> 40) & 0xff);
}

// ----------------------------------------------------------------- setup

Network::Network(const topo::Dragonfly& topo, routing::Algo algo,
                 Params params, std::uint64_t seed)
    : Network(Fabric::dragonfly(topo, params),
              std::make_unique<routing::RoutePlanner>(topo, algo,
                                                      params.adaptive, seed),
              params, seed) {}

Network::Network(const topo::FatTree& topo, Params params, std::uint64_t seed)
    : Network(Fabric::fat_tree(topo, params), make_updown_ecmp(topo, seed),
              params, seed) {}

Network::Network(Fabric fabric, std::unique_ptr<routing::Policy> policy,
                 Params params, std::uint64_t seed)
    : fabric_(std::move(fabric)), policy_(std::move(policy)),
      planner_(dynamic_cast<routing::RoutePlanner*>(policy_.get())),
      params_(params), recorder_(fabric_, seed) {
  params_.validate();
  const std::uint32_t routers = fabric_.num_routers();
  const std::uint32_t terms = fabric_.num_terminals();
  ports_per_router_ = fabric_.ports_per_router();
  ports_.resize(static_cast<std::size_t>(routers) * ports_per_router_);
  terminals_.resize(terms);
  term_rerouted_.assign(terms, 0);
  term_dropped_.assign(terms, 0);

  num_vcs_ = policy_->max_link_hops();
  const auto buf = static_cast<std::int32_t>(params_.vc_buffer_packets);
  local_links_.init(fabric_.num_local_links(), num_vcs_, buf);
  global_links_.init(fabric_.num_global_links(), num_vcs_, buf);
  injection_.init(terms, 1, buf);
  ejection_.init(terms, 1, buf);

  // Entity random streams: Valiant/UGAL draws happen at injection from the
  // terminal's stream, PAR diverts from the router's stream — so route
  // randomness is a function of (seed, entity, per-entity order), never of
  // engine interleaving.
  term_rng_.reserve(terms);
  for (std::uint32_t t = 0; t < terms; ++t) {
    term_rng_.emplace_back(seed, (1ULL << 32) + t);
  }
  router_rng_.reserve(routers);
  for (std::uint32_t r = 0; r < routers; ++r) {
    router_rng_.emplace_back(seed, (2ULL << 32) + r);
  }
  term_pkt_seq_.assign(terms, 0);

  // The whole network is one LP: every handler reads its entity from the
  // event payload.
  sim_.add_lp(this);
  if (params_.event_budget) sim_.set_event_budget(params_.event_budget);
  // The lookahead is the model's minimum physical delay, the natural
  // bucket width; shorter delays (port-free serialization) take the
  // bucket layer's ordered-insert path: 7.3% of bucketed pushes on the
  // Fig. 4 DF(6) run, 0.35% on loop-df6-packet's UR run
  // (sim.sched.ordered_inserts). 512 buckets (a ~10 us horizon at default
  // latencies) measured fastest on bench_perf_core: a wider horizon
  // spreads the same events over more, colder buckets, a narrower one
  // spills too many pushes to the heap.
  sim_.set_bucket_granularity(lookahead(), 512);
  if constexpr (obs::kEnabled) {
    sim_.set_kind_label(kEvMsgStart, "msg_start");
    sim_.set_kind_label(kEvInjectorFree, "injector_free");
    sim_.set_kind_label(kEvPktAtRouter, "pkt_at_router");
    sim_.set_kind_label(kEvPktAtTerminal, "pkt_at_terminal");
    sim_.set_kind_label(kEvPortFree, "port_free");
    sim_.set_kind_label(kEvCredit, "credit");
    sim_.set_kind_label(kEvPktRetry, "pkt_retry");
    sim_.set_kind_label(kEvFaultWake, "fault_wake");
    sim_.set_kind_label(kEvPktDropNotify, "pkt_drop_notify");
  }
}

void Network::set_fault_plan(const fault::FaultPlan& plan) {
  DV_REQUIRE(!recorder_.started(), "set_fault_plan after run()");
  if (plan.empty()) return;  // bit-identical to never calling this
  DV_REQUIRE(planner_ != nullptr,
             "fault plans need a dragonfly network; " + policy_->label() +
                 " routing has no fault model");
  fault_ = fault::FaultTimeline(planner_->topology(), plan);
  has_faults_ = true;
  planner_->set_fault_aware(true);
  // A detoured minimal packet takes a Valiant-length path, so the planner's
  // hop bound (== VC count) may grow. No credits have been handed out yet
  // (run() hasn't started), so re-initializing the pools is safe.
  if (planner_->max_link_hops() != num_vcs_) {
    num_vcs_ = planner_->max_link_hops();
    const auto buf = static_cast<std::int32_t>(params_.vc_buffer_packets);
    local_links_.init(fabric_.num_local_links(), num_vcs_, buf);
    global_links_.init(fabric_.num_global_links(), num_vcs_, buf);
  }
  router_retries_.assign(fabric_.num_routers(), 0);
  router_drops_.assign(fabric_.num_routers(), 0);
}

void Network::set_parallel(std::uint32_t workers) {
  DV_REQUIRE(workers <= 1,
             "the parallel packet engine was removed; only the sequential "
             "engine (0 or 1 workers) remains");
}

double Network::lookahead() const {
  return std::min(params_.credit_latency,
                  std::min(params_.local_latency, params_.global_latency));
}

// ----------------------------------------------------------------- arena

std::uint32_t Network::alloc_packet() {
  std::uint32_t pid;
  if (!free_packets_.empty()) {
    pid = free_packets_.back();
    free_packets_.pop_back();
    packets_[pid] = Packet{};
  } else {
    pid = static_cast<std::uint32_t>(packets_.size());
    packets_.emplace_back();
  }
  return pid;
}

Network::OutPort& Network::port(std::uint32_t router, std::uint32_t p) {
  return ports_[static_cast<std::size_t>(router) * ports_per_router_ + p];
}

double Network::depth(std::uint32_t router, std::uint32_t p) const {
  const auto& op =
      ports_[static_cast<std::size_t>(router) * ports_per_router_ + p];
  return static_cast<double>(op.queue.size()) + (op.busy ? 1.0 : 0.0);
}

bool Network::port_blocked(std::uint32_t router, std::uint32_t p,
                           double now) const {
  if (!has_faults_) return false;
  if (fault_.router_down(router, now)) return true;
  const Port& hop = fabric_.port(router, p);
  switch (hop.cls) {
    case LinkClass::kEjection:
      return false;  // terminal NICs don't fail in this model
    case LinkClass::kLocal:
      return fault_.local_link_down(hop.id, now) ||
             fault_.router_down(hop.dst_router, now);
    case LinkClass::kGlobal:
      return fault_.global_link_down(hop.id, now) ||
             fault_.router_down(hop.dst_router, now);
    default:
      return false;
  }
}

// ----------------------------------------------------------------- injection

void Network::try_inject(std::uint32_t term) {
  TerminalState& ts = terminals_[term];
  if (ts.injector_busy || ts.pending.empty()) return;
  const SimTime now = sim_.now();
  if (has_faults_ &&
      fault_.router_down(fabric_.terminal_port(term).router, now)) {
    return;  // re-attempted at the router's revival wake
  }
  if (!injection_.has_credit(term, 0)) return;  // retried on credit return

  MsgProgress& msg = ts.pending.front();
  const std::uint32_t size = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(params_.packet_size, msg.remaining));

  const std::uint32_t pid = alloc_packet();
  Packet& pkt = packet(pid);
  pkt.src = term;
  pkt.dst = msg.dst;
  pkt.size = size;
  pkt.job = msg.job;
  // Latency is measured from the application's send time, so source-side
  // queueing (the dominant cost under congestion) is included — this is
  // what makes per-job "application performance" comparable across
  // placements as in Fig. 13d.
  pkt.inject_time = msg.issue_time;
  // Injections at a terminal are totally ordered, so this uid depends only
  // on the terminal's own history; it keys every event the packet
  // generates.
  pkt.uid = (static_cast<std::uint64_t>(term) << 32) | term_pkt_seq_[term]++;
  pkt.route.dst_terminal = msg.dst;
  policy_->on_inject(pkt.route, term, *this, term_rng_[term], route_stats_,
                     now);
  pkt.in_link = encode_link(LinkClass::kInjection, term, 0);

  injection_.take_credit(term, 0, now);
  injection_.traffic[term] += size;
  ++packets_injected_;
  bytes_injected_ += size;

  msg.remaining -= size;
  if (msg.remaining == 0) {
    ts.pending.pop_front();
    ++msgs_finished_;
  }
  ++in_flight_;

  const double ser = static_cast<double>(size) / params_.terminal_bandwidth;
  ts.injector_busy = true;
  schedule_in(ser, kEvInjectorFree, term, 0, pri_key(kEvInjectorFree, term));
  schedule_in(ser + params_.terminal_latency + params_.router_delay,
              kEvPktAtRouter, pid, fabric_.terminal_port(term).router,
              pri_key(kEvPktAtRouter, pkt.uid));
}

// ----------------------------------------------------------------- transit

Network::LinkArray& Network::link_array_for(LinkClass cls) {
  switch (cls) {
    case LinkClass::kEjection: return ejection_;
    case LinkClass::kLocal: return local_links_;
    case LinkClass::kGlobal: return global_links_;
    default: break;
  }
  throw Error("no link array for this link class");
}

void Network::update_backlog(std::uint32_t router, std::uint32_t p) {
  const Port& hop = fabric_.port(router, p);
  LinkArray& la = link_array_for(hop.cls);
  la.set_backlog(hop.id,
                 port(router, p).queue.size() >= params_.vc_buffer_packets,
                 sim_.now());
}

void Network::try_transmit(std::uint32_t router, std::uint32_t p) {
  OutPort& op = port(router, p);
  if (op.busy || op.queue.empty()) return;
  const SimTime now = sim_.now();
  if (has_faults_ && port_blocked(router, p, now)) {
    return;  // queued packets bounce into the retry path at the next wake
  }

  const Port& hop = fabric_.port(router, p);
  LinkArray& la = link_array_for(hop.cls);

  // VC arbitration: first queued packet whose VC has a downstream slot.
  std::size_t pick = op.queue.size();
  std::uint32_t vc = 0;
  for (std::size_t i = 0; i < op.queue.size(); ++i) {
    const Packet& cand = packet(op.queue[i]);
    const std::uint32_t cvc =
        hop.cls == LinkClass::kEjection ? 0u : cand.link_hops;
    if (la.has_credit(hop.id, cvc)) {
      pick = i;
      vc = cvc;
      break;
    }
  }
  if (pick == op.queue.size()) return;  // all VCs full; retried on credit

  const std::uint32_t pid = op.queue[pick];
  op.queue.erase_at(pick);
  la.set_backlog(hop.id, op.queue.size() >= params_.vc_buffer_packets, now);
  Packet& pkt = packet(pid);

  la.take_credit(hop.id, vc, now);
  la.traffic[hop.id] += pkt.size;
  return_credit(pkt.in_link);  // upstream buffer slot frees as we depart
  pkt.in_link = encode_link(hop.cls, hop.id, vc);
  if (hop.cls != LinkClass::kEjection) {
    ++pkt.link_hops;
    DV_CHECK(pkt.link_hops <= num_vcs_, "packet exceeded the VC/hop bound");
  }

  const double ser = static_cast<double>(pkt.size) / hop.bandwidth;
  op.busy = true;
  schedule_in(ser, kEvPortFree, router, p,
              pri_key(kEvPortFree,
                      static_cast<std::uint64_t>(router) * ports_per_router_ +
                          p));
  if (hop.cls == LinkClass::kEjection) {
    schedule_in(ser + hop.latency, kEvPktAtTerminal, pid, hop.dst_terminal,
                pri_key(kEvPktAtTerminal, pkt.uid));
  } else {
    schedule_in(ser + hop.latency + params_.router_delay, kEvPktAtRouter, pid,
                hop.dst_router, pri_key(kEvPktAtRouter, pkt.uid));
  }
}

void Network::return_credit(std::uint64_t enc_link) {
  if (link_class(enc_link) == LinkClass::kNone) return;
  schedule_in(params_.credit_latency, kEvCredit, enc_link, 0,
              pri_key(kEvCredit, enc_link));
}

void Network::handle_packet_at_router(std::uint32_t pid, std::uint32_t router,
                                      bool is_retry) {
  Packet& pkt = packet(pid);
  if (!is_retry) ++pkt.router_hops;
  const SimTime now = sim_.now();
  if (has_faults_ && fault_.router_down(router, now)) {
    // The packet arrived at (or is retrying on) a dead router: it cannot
    // be routed until the router revives.
    retry_or_drop(pid, router);
    return;
  }
  const routing::Decision d = policy_->route(
      pkt.route, router, *this, router_rng_[router], route_stats_, now);
  if (has_faults_ && port_blocked(router, d.port, now)) {
    // Routing found no live alternative (e.g. a dead local hop, or every
    // candidate global exit down): back off and re-route later.
    retry_or_drop(pid, router, d.port);
    return;
  }
  port(router, d.port).queue.push_back(pid);
  update_backlog(router, d.port);
  try_transmit(router, d.port);
}

void Network::retry_or_drop(std::uint32_t pid, std::uint32_t router,
                            std::uint32_t blocked_port) {
  Packet& pkt = packet(pid);
  LinkArray* la = nullptr;
  std::uint32_t link = 0;
  if (blocked_port != std::numeric_limits<std::uint32_t>::max()) {
    const Port& hop = fabric_.port(router, blocked_port);
    if (hop.cls == LinkClass::kLocal || hop.cls == LinkClass::kGlobal) {
      la = &link_array_for(hop.cls);
      link = hop.id;
    }
  }
  if (pkt.retries < params_.fault_retry_budget) {
    ++pkt.retries;
    ++fault_retries_;
    ++router_retries_[router];
    if (la) ++la->retries[link];
    // Exponential backoff; the retry re-enters the routing step, so a
    // packet stuck at a dead port escapes as soon as an alternative (or
    // the port itself) comes back up.
    const std::uint32_t exp = std::min(pkt.retries - 1, 20u);
    const double backoff =
        params_.fault_retry_base * static_cast<double>(1ULL << exp);
    schedule_in(backoff, kEvPktRetry, pid, router,
                pri_key(kEvPktRetry, pkt.uid));
    return;
  }
  // Retry budget exhausted: drop the packet where it sits. Its upstream
  // buffer slot frees, and the source terminal counts the drop one credit
  // latency later.
  ++pkts_dropped_;
  bytes_dropped_ += pkt.size;
  ++router_drops_[router];
  if (la) ++la->drops[link];
  --in_flight_;
  return_credit(pkt.in_link);
  schedule_in(params_.credit_latency, kEvPktDropNotify, pkt.src, 0,
              pri_key(kEvPktDropNotify, pkt.uid));
  free_packet(pid);
}

void Network::handle_fault_wake(std::uint32_t router) {
  // Some adjacent entity changed liveness at exactly now. Dead ports:
  // bounce their queues into the retry path (the packets re-route and can
  // escape via a detour). Live ports: restart transmission — they may have
  // been silenced while down.
  const SimTime now = sim_.now();
  for (std::uint32_t p = 0; p < ports_per_router_; ++p) {
    OutPort& op = port(router, p);
    if (port_blocked(router, p, now)) {
      while (!op.queue.empty()) {
        const std::uint32_t pid = op.queue.front();
        op.queue.pop_front();
        retry_or_drop(pid, router, p);
      }
      update_backlog(router, p);
    } else {
      try_transmit(router, p);
    }
  }
  // A revived router also resumes injection for its terminals.
  for (std::uint32_t p = 0; p < ports_per_router_; ++p) {
    const Port& hop = fabric_.port(router, p);
    if (hop.cls == LinkClass::kEjection) try_inject(hop.dst_terminal);
  }
}

void Network::handle_packet_at_terminal(std::uint32_t pid,
                                        std::uint32_t term) {
  Packet& pkt = packet(pid);
  DV_CHECK(pkt.dst == term, "packet delivered to the wrong terminal");
  recorder_.deliver(term, 1, sim_.now() - pkt.inject_time, pkt.router_hops);
  if (pkt.route.fault_detour) ++term_rerouted_[term];
  ++packets_delivered_;
  bytes_delivered_ += pkt.size;
  --in_flight_;

  // The ejection buffer slot frees once the NIC has drained the packet.
  DV_CHECK(link_class(pkt.in_link) == LinkClass::kEjection,
           "terminal received a packet not via its ejection link");
  const double drain =
      static_cast<double>(pkt.size) / params_.terminal_bandwidth;
  schedule_in(drain, kEvCredit, pkt.in_link, 0,
              pri_key(kEvCredit, pkt.in_link));
  free_packet(pid);
}

// ----------------------------------------------------------------- recording

struct Network::Cumulative {
  const Network& net;
  SimTime now;

  Totals local(std::uint32_t id) const {
    return {net.local_links_.traffic[id], net.local_links_.sat_at(id, now)};
  }
  Totals global(std::uint32_t id) const {
    return {net.global_links_.traffic[id], net.global_links_.sat_at(id, now)};
  }
  Totals terminal(std::uint32_t term) const {
    return {net.injection_.traffic[term],
            net.injection_.sat_at(term, now) + net.ejection_.sat_at(term, now)};
  }
};

// ----------------------------------------------------------------- dispatch

void Network::on_event(pdes::Simulator&, const pdes::Event& ev) {
  switch (ev.kind) {
    case kEvMsgStart: {
      if (ev.data1 + 1 < start_order_.size()) schedule_start(ev.data1 + 1);
      const Message& m = recorder_.messages()[ev.data0];
      terminals_[m.src_terminal].pending.push_back(
          MsgProgress{m.dst_terminal, m.bytes, m.job, sim_.now()});
      try_inject(m.src_terminal);
      break;
    }
    case kEvInjectorFree: {
      const auto term = static_cast<std::uint32_t>(ev.data0);
      terminals_[term].injector_busy = false;
      try_inject(term);
      break;
    }
    case kEvPktAtRouter:
      handle_packet_at_router(static_cast<std::uint32_t>(ev.data0),
                              static_cast<std::uint32_t>(ev.data1));
      break;
    case kEvPktAtTerminal:
      handle_packet_at_terminal(static_cast<std::uint32_t>(ev.data0),
                                static_cast<std::uint32_t>(ev.data1));
      break;
    case kEvPortFree: {
      const auto router = static_cast<std::uint32_t>(ev.data0);
      const auto p = static_cast<std::uint32_t>(ev.data1);
      port(router, p).busy = false;
      try_transmit(router, p);
      break;
    }
    case kEvCredit: {
      const std::uint64_t enc = ev.data0;
      const std::uint32_t id = link_id(enc);
      const std::uint32_t vc = link_vc(enc);
      switch (link_class(enc)) {
        case LinkClass::kInjection:
          injection_.give_credit(id, vc, sim_.now());
          try_inject(id);
          break;
        case LinkClass::kEjection: {
          ejection_.give_credit(id, vc, sim_.now());
          const PortRef& src = fabric_.terminal_port(id);
          try_transmit(src.router, src.port);
          break;
        }
        case LinkClass::kLocal: {
          local_links_.give_credit(id, vc, sim_.now());
          const PortRef& src = fabric_.local_src(id);
          try_transmit(src.router, src.port);
          break;
        }
        case LinkClass::kGlobal: {
          global_links_.give_credit(id, vc, sim_.now());
          const PortRef& src = fabric_.global_src(id);
          try_transmit(src.router, src.port);
          break;
        }
        case LinkClass::kNone:
          DV_CHECK(false, "credit for the null link");
      }
      break;
    }
    case kEvPktRetry:
      handle_packet_at_router(static_cast<std::uint32_t>(ev.data0),
                              static_cast<std::uint32_t>(ev.data1),
                              /*is_retry=*/true);
      break;
    case kEvFaultWake:
      handle_fault_wake(static_cast<std::uint32_t>(ev.data0));
      break;
    case kEvPktDropNotify:
      ++term_dropped_[static_cast<std::uint32_t>(ev.data0)];
      break;
    default:
      DV_CHECK(false, "unknown event kind");
  }
}

// ----------------------------------------------------------------- run

void Network::schedule_start(std::size_t pos) {
  const std::uint32_t i = start_order_[pos];
  sim_.schedule(recorder_.messages()[i].time, 0, kEvMsgStart, i, pos,
                pri_key(kEvMsgStart, i));
}

metrics::RunMetrics Network::run() {
  recorder_.start();
  const std::vector<Message>& messages = recorder_.messages();

  // Fault wakes are plain pre-scheduled events, ordered by (time, pri) with
  // everything else.
  if (has_faults_) {
    for (const auto& [router, t] : fault_.wakes()) {
      sim_.schedule(t, 0, kEvFaultWake, router, 0,
                    pri_key(kEvFaultWake, router));
    }
  }
  // Message starts stream: sorted once by (time, index), only the first
  // is scheduled, and each start schedules the next. A start's pri is
  // unique, so seq never orders one against another event and events pop
  // exactly as if every start had been scheduled here, while the
  // pending-event set holds one start instead of one per message.
  DV_REQUIRE(messages.size() <= std::numeric_limits<std::uint32_t>::max(),
             "too many messages");
  start_order_.resize(messages.size());
  std::iota(start_order_.begin(), start_order_.end(), 0u);
  std::sort(start_order_.begin(), start_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const SimTime ta = messages[a].time;
              const SimTime tb = messages[b].time;
              return ta != tb ? ta < tb : a < b;
            });
  if (!start_order_.empty()) schedule_start(0);

  // Sampling is orchestrated from here (not via self-rescheduling events):
  // the engine runs to each tick and the recorder reads link state between
  // ticks.
  SimTime end = 0.0;
  {
    obs::ScopedPhase phase("sim");
    if (recorder_.sampled()) {
      SimTime tick = 0.0;
      while (!sim_.queue_empty()) {
        tick += recorder_.sample_dt();
        sim_.run_until(tick);
        obs::ScopedPhase sample("sample");
        recorder_.push_frame(Cumulative{*this, tick});
      }
      end = tick;
    } else {
      sim_.run();
      end = sim_.now();
    }
  }

  DV_CHECK(in_flight_ == 0, "simulation drained with packets in flight");
  if (has_faults_) {
    // Messages queued behind a permanently dead router never finish
    // injecting; everything that did inject must be accounted for.
    DV_CHECK(msgs_finished_ <= messages.size(),
             "message bookkeeping overflowed");
  } else {
    DV_CHECK(msgs_finished_ == messages.size(),
             "simulation drained with messages outstanding");
  }
  DV_CHECK(bytes_injected_ == bytes_delivered_ + bytes_dropped_,
           "flow conservation violated: injected != delivered + dropped");

  metrics::RunMetrics out = collect(end);
  publish_run_obs(out);
  return out;
}

void Network::publish_run_obs(const metrics::RunMetrics& out) {
#ifdef DV_OBS_ENABLED
  const routing::RouteStats& rs = route_stats_;
  obs::counter("net.messages").add(recorder_.messages().size());
  obs::counter("net.packets_injected").add(packets_injected_);
  obs::counter("net.packets_delivered").add(packets_delivered_);
  obs::counter("net.bytes_injected").add(bytes_injected_);
  obs::counter("net.bytes_delivered").add(bytes_delivered_);
  double hops = 0.0;
  for (const auto& t : out.terminals) hops += t.sum_hops;
  obs::counter("net.router_hops").add(static_cast<std::uint64_t>(hops));
  obs::counter("net.route.minimal").add(rs.minimal);
  obs::counter("net.route.nonminimal").add(rs.nonminimal);
  obs::counter("net.route.par_diverts").add(rs.par_diverts);
  obs::counter("net.route.steps").add(rs.steps);
  if (has_faults_) {
    std::uint64_t rerouted = 0;
    for (const auto& t : out.terminals) rerouted += t.packets_rerouted;
    obs::counter("net.fault.retries").add(fault_retries_);
    obs::counter("net.fault.pkts_dropped").add(pkts_dropped_);
    obs::counter("net.fault.bytes_dropped").add(bytes_dropped_);
    obs::counter("net.fault.detours").add(rs.fault_detours);
    obs::counter("net.fault.rerouted").add(rerouted);
    obs::gauge("net.fault.entities").set(static_cast<double>(fault_.entities()));
  }
  if (recorder_.sampled()) {
    obs::counter("net.sample_frames").add(out.local_traffic_ts.frames());
  }
#else
  (void)out;
#endif
}

metrics::RunMetrics Network::collect(SimTime end) {
  obs::ScopedPhase phase("collect");
  metrics::RunMetrics out =
      recorder_.finish(Cumulative{*this, end}, policy_->label(), end);
  if (!has_faults_) return out;  // every fault column stays zero
  auto fault_columns = [&](const LinkArray& la, bool global,
                           std::vector<metrics::LinkMetrics>& rows) {
    for (std::uint32_t id = 0; id < rows.size(); ++id) {
      metrics::LinkMetrics& l = rows[id];
      l.retries = la.retries[id];
      l.pkts_dropped = la.drops[id];
      l.downtime = fault_.effective_link_downtime(global, id, l.src_router,
                                                  l.dst_router, end);
    }
  };
  fault_columns(local_links_, false, out.local_links);
  fault_columns(global_links_, true, out.global_links);
  for (std::uint32_t t = 0; t < fabric_.num_terminals(); ++t) {
    metrics::TerminalMetrics& tm = out.terminals[t];
    tm.packets_rerouted = term_rerouted_[t];
    tm.packets_dropped = term_dropped_[t];
    // A terminal is down exactly when its router is.
    tm.downtime = fault_.router_downtime(tm.router, end);
  }
  out.router_downtime.resize(fabric_.num_routers());
  for (std::uint32_t r = 0; r < fabric_.num_routers(); ++r) {
    out.router_downtime[r] = fault_.router_downtime(r, end);
  }
  out.router_retries = router_retries_;
  out.router_drops = router_drops_;
  return out;
}

}  // namespace dv::netsim
