#include "flow/flow.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <unordered_map>

#include "obs/obs.hpp"

namespace dv::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Byte residue below which a backlog counts as drained (float noise from
/// rate*dt round trips, never a meaningful fraction of any message).
constexpr double kByteEps = 1e-6;
/// A link is saturated when its load reaches this fraction of capacity.
constexpr double kSatFrac = 1.0 - 1e-6;
/// Runaway guard: no sane configuration needs more epochs than this.
constexpr std::uint64_t kMaxEpochs = 1u << 22;
/// Event stepping batches completions: re-solve after the active set
/// shrank by ~1/16th instead of after every single completion. Exact
/// (batch of one) below 16 active bundles, so light load keeps
/// per-completion fidelity while heavy UR pays O(16 ln n) solves total.
constexpr std::size_t kCompletionBatch = 16;
/// Event solves apply demand caps (backlog / quantum — what keeps solved
/// utilization an honest congestion signal for the adaptive comparison)
/// only below this active count. Past it a backlog dwarfs any fair share,
/// the caps cannot bind, and skipping them skips the O(n log n) cap sort
/// in every solve.
constexpr std::size_t kCapSolveLimit = 4096;

}  // namespace

// ------------------------------------------------------------- water_fill

SolverResult water_fill(const std::vector<double>& capacity,
                        const std::vector<SolverFlow>& flows) {
  const std::size_t nf = flows.size();
  const std::size_t nl = capacity.size();
  SolverResult out;
  out.rates.assign(nf, 0.0);
  out.link_load.assign(nl, 0.0);
  if (nf == 0) return out;

  std::vector<std::uint32_t> count(nl, 0);   // alive crossings per link
  std::vector<double> frozen_load(nl, 0.0);  // load contributed by frozen flows
  std::vector<std::uint8_t> alive(nf, 1);
  std::size_t n_alive = 0;

  // Used-link list: everything below touches only links some active flow
  // crosses, so sparse traffic on a big topology stays cheap. Absent
  // flows (rate_cap <= 0) are skipped before their links are touched —
  // the event engine keeps one solver slot per ever-seen bundle, so most
  // slots are dead in the long drain tail.
  std::vector<std::uint32_t> used;
  for (std::size_t f = 0; f < nf; ++f) {
    DV_REQUIRE(flows[f].rate_cap >= 0.0, "negative rate cap");
    if (flows[f].rate_cap <= 0.0) {
      alive[f] = 0;  // absent flow: rate stays 0
      continue;
    }
    if (flows[f].links.empty() && !std::isfinite(flows[f].rate_cap)) {
      throw Error("unconstrained flow: no links and no rate cap");
    }
    ++n_alive;
    for (const std::uint32_t l : flows[f].links) {
      DV_REQUIRE(l < nl, "flow crosses a link outside the capacity vector");
      if (count[l]++ == 0) used.push_back(l);
    }
  }

  // Per-link flow lists, so an exhausted link freezes its flows in O(deg).
  std::vector<std::uint32_t> adj_start(nl + 1, 0);
  {
    std::vector<std::uint32_t> deg(nl, 0);
    for (std::size_t f = 0; f < nf; ++f) {
      if (!alive[f]) continue;
      for (const std::uint32_t l : flows[f].links) ++deg[l];
    }
    for (const std::uint32_t l : used) adj_start[l + 1] = deg[l];
    for (std::size_t l = 0; l < nl; ++l) adj_start[l + 1] += adj_start[l];
  }
  std::vector<std::uint32_t> adj(adj_start[nl]);
  {
    std::vector<std::uint32_t> fill(nl, 0);
    for (std::size_t f = 0; f < nf; ++f) {
      if (!alive[f]) continue;
      for (const std::uint32_t l : flows[f].links) {
        adj[adj_start[l] + fill[l]++] = static_cast<std::uint32_t>(f);
      }
    }
  }

  // Progressive filling with an implicit water level W: every unfrozen
  // rate equals W, so a round never touches the alive flows at all. Cap
  // freezes happen in ascending cap order (a pointer into the cap-sorted
  // id list); link exhaustion levels live in a lazy min-heap keyed by the
  // level W at which link l fills: frozen_load[l] + count[l]*W == cap_l.
  //
  // Freezes only *raise* a link's exhaustion level (the frozen rate is at
  // most the old level: new = (cap - frozen - w)/(count - 1) >= old for
  // w <= old, and cap freezes satisfy w <= w_link by the round order), so
  // a stale heap entry is a safe underestimate: freezes just bump the
  // link's stamp, and a pop whose stamp mismatches recomputes the level
  // and re-pushes. That caps heap traffic at O(links + stale pops)
  // instead of one push per flow-link crossing per freeze — the
  // difference between ~milliseconds and ~tens of milliseconds per solve
  // on tens of thousands of active flows.
  std::vector<std::uint32_t> by_cap;
  by_cap.reserve(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    if (alive[f] && std::isfinite(flows[f].rate_cap)) {
      by_cap.push_back(static_cast<std::uint32_t>(f));
    }
  }
  std::sort(by_cap.begin(), by_cap.end(),
            [&flows](std::uint32_t a, std::uint32_t b) {
              if (flows[a].rate_cap != flows[b].rate_cap) {
                return flows[a].rate_cap < flows[b].rate_cap;
              }
              return a < b;
            });

  struct LinkLevel {
    double w;
    std::uint32_t link;
    std::uint32_t stamp;
    bool operator>(const LinkLevel& o) const { return w > o.w; }
  };
  std::priority_queue<LinkLevel, std::vector<LinkLevel>,
                      std::greater<LinkLevel>>
      heap;
  std::vector<std::uint32_t> stamp(nl, 0);
  auto sat_level = [&](std::uint32_t l) {
    return (capacity[l] - frozen_load[l]) / static_cast<double>(count[l]);
  };
  for (const std::uint32_t l : used) {
    if (count[l] > 0) heap.push({sat_level(l), l, stamp[l]});
  }

  double water = 0.0;
  auto freeze = [&](std::uint32_t f, double rate) {
    alive[f] = 0;
    out.rates[f] = rate;
    --n_alive;
    for (const std::uint32_t l : flows[f].links) {
      --count[l];
      frozen_load[l] += rate;
      ++stamp[l];
    }
  };

  std::size_t cap_ptr = 0;
  while (n_alive > 0) {
    ++out.rounds;
    DV_CHECK(out.rounds <= nf + used.size() + 1,
             "water-filling failed to converge");
    // Validate the heap top: recompute stale entries (their true level
    // only ever moved up) until the minimum is current.
    while (!heap.empty()) {
      const LinkLevel top = heap.top();
      if (count[top.link] == 0) {
        heap.pop();
        continue;
      }
      if (stamp[top.link] != top.stamp) {
        heap.pop();
        heap.push({sat_level(top.link), top.link, stamp[top.link]});
        continue;
      }
      break;
    }
    const double w_link = heap.empty() ? kInf : heap.top().w;
    while (cap_ptr < by_cap.size() && !alive[by_cap[cap_ptr]]) ++cap_ptr;
    const double w_cap =
        cap_ptr < by_cap.size() ? flows[by_cap[cap_ptr]].rate_cap : kInf;
    DV_CHECK(std::isfinite(std::min(w_cap, w_link)),
             "unbounded water-filling increment");

    if (w_cap <= w_link) {
      // Raise the level to the smallest alive cap and freeze every flow
      // capped there (batching ties), each at exactly its cap.
      water = std::max(water, w_cap);
      while (cap_ptr < by_cap.size()) {
        const std::uint32_t f = by_cap[cap_ptr];
        if (!alive[f]) {
          ++cap_ptr;
          continue;
        }
        if (flows[f].rate_cap > water) break;
        freeze(f, flows[f].rate_cap);
        ++cap_ptr;
      }
    } else {
      // Raise the level until the bottleneck link fills, freezing all its
      // alive flows at W — its load lands exactly on capacity.
      const std::uint32_t l = heap.top().link;
      heap.pop();
      water = std::max(water, w_link);
      for (std::uint32_t a = adj_start[l]; a < adj_start[l + 1]; ++a) {
        const std::uint32_t f = adj[a];
        if (alive[f]) freeze(f, water);
      }
    }
  }

  for (const std::uint32_t l : used) {
    out.link_load[l] = frozen_load[l];
  }
  return out;
}

// ----------------------------------------------------- water_fill_removed

IncrementalResult water_fill_removed(const std::vector<double>& capacity,
                                     const std::vector<SolverFlow>& flows,
                                     const std::vector<std::uint32_t>& removed,
                                     SolverResult& state,
                                     double cascade_frac) {
  const std::size_t nf = flows.size();
  const std::size_t nl = capacity.size();
  IncrementalResult out;
  DV_REQUIRE(state.rates.size() == nf, "state rates/flows size mismatch");
  DV_REQUIRE(state.link_load.size() == nl,
             "state link_load/capacity size mismatch");
  if (removed.empty()) return out;

  // Saturation baseline: a frozen flow's max-min certificate references
  // links saturated *before* the removal, so losing one is a release
  // trigger no matter how many passes it takes to surface.
  std::vector<std::uint8_t> was_sat(nl, 0);
  for (std::size_t l = 0; l < nl; ++l) {
    if (state.link_load[l] >= capacity[l] * kSatFrac) was_sat[l] = 1;
  }

  // Take the removed flows off their links and mark those links dirty.
  std::vector<std::uint8_t> gone(nf, 0);
  std::vector<std::uint8_t> dirty(nl, 0);
  for (const std::uint32_t r : removed) {
    DV_REQUIRE(r < nf, "removed flow out of range");
    DV_REQUIRE(flows[r].rate_cap > 0.0, "removed flow already absent");
    DV_REQUIRE(!gone[r], "duplicate removed flow");
    gone[r] = 1;
    for (const std::uint32_t l : flows[r].links) {
      state.link_load[l] -= state.rates[r];
      dirty[l] = 1;
    }
    state.rates[r] = 0.0;
  }

  // While a flow is released its load is off state.link_load, so the
  // vector holds exactly the frozen flows' load — the restricted solve's
  // floor. Seed: every survivor crossing a dirty link.
  std::vector<std::uint8_t> released(nf, 0);
  std::vector<std::uint32_t> R;
  auto release = [&](std::uint32_t f) {
    released[f] = 1;
    R.push_back(f);
    for (const std::uint32_t l : flows[f].links) {
      state.link_load[l] -= state.rates[f];
    }
  };
  std::size_t n_alive = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (gone[f] || flows[f].rate_cap <= 0.0) continue;
    ++n_alive;
  }
  const auto limit = static_cast<std::size_t>(
      cascade_frac * static_cast<double>(n_alive));
  for (std::size_t f = 0; f < nf; ++f) {
    if (gone[f] || flows[f].rate_cap <= 0.0) continue;
    for (const std::uint32_t l : flows[f].links) {
      if (dirty[l]) {
        release(static_cast<std::uint32_t>(f));
        // Dense perturbations (heavy UR: removals touch most links) bail
        // here, before the seed scan turns into a full pass of wasted
        // bookkeeping on top of the fallback solve.
        if (R.size() > limit) {
          out.full_solve = true;
          out.released = static_cast<std::uint32_t>(R.size());
          return out;
        }
        break;
      }
    }
  }

  std::vector<SolverFlow> rflows;
  std::vector<double> sub_cap;
  std::vector<std::uint32_t> touched;  // links some released flow crosses
  std::vector<std::uint8_t> touched_mark(nl, 0);
  std::vector<double> max_released(nl, 0.0);  // per touched link
  std::vector<std::uint8_t> trig(nl, 0);      // 1 = sat check, 2 = release all

  for (std::uint32_t pass = 0;; ++pass) {
    DV_CHECK(pass <= nf + 1, "incremental re-solve failed to converge");
    if (R.empty()) return out;  // isolated removals: nothing to re-solve
    if (R.size() > limit) {
      out.full_solve = true;
      out.released = static_cast<std::uint32_t>(R.size());
      return out;
    }

    // Restricted water-filling: R's flows over the slack the frozen flows
    // leave behind. Links nothing in R crosses never enter the solve.
    rflows.clear();
    touched.clear();
    for (const std::uint32_t f : R) {
      rflows.push_back(flows[f]);
      for (const std::uint32_t l : flows[f].links) {
        if (!touched_mark[l]) {
          touched_mark[l] = 1;
          touched.push_back(l);
        }
      }
    }
    sub_cap = capacity;
    for (const std::uint32_t l : touched) {
      sub_cap[l] = std::max(0.0, capacity[l] - state.link_load[l]);
    }
    const SolverResult res = water_fill(sub_cap, rflows);
    out.rounds += res.rounds;
    for (std::size_t i = 0; i < R.size(); ++i) {
      state.rates[R[i]] = res.rates[i];
    }

    // Certificate check on every touched link (only their loads moved).
    // Trigger 1 (push-down): the link is saturated but some frozen flow
    // sits above the released water level there — in the true allocation
    // it would have to yield, so release it and try again. Trigger 2
    // (rise): a link that backed certificates lost saturation — its
    // frozen flows may now rise, release them all.
    for (const std::uint32_t l : touched) {
      max_released[l] = 0.0;
    }
    for (const std::uint32_t f : R) {
      for (const std::uint32_t l : flows[f].links) {
        max_released[l] = std::max(max_released[l], state.rates[f]);
      }
    }
    for (const std::uint32_t l : touched) {
      const double load = state.link_load[l] + res.link_load[l];
      if (load >= capacity[l] * kSatFrac) {
        trig[l] = 1;
      } else if (was_sat[l]) {
        trig[l] = 2;
      }
    }
    const std::size_t before = R.size();
    for (std::size_t f = 0; f < nf; ++f) {
      if (gone[f] || released[f] || flows[f].rate_cap <= 0.0) continue;
      for (const std::uint32_t l : flows[f].links) {
        if (trig[l] == 2 ||
            (trig[l] == 1 && state.rates[f] > max_released[l])) {
          release(static_cast<std::uint32_t>(f));
          break;
        }
      }
    }
    for (const std::uint32_t l : touched) {
      trig[l] = 0;
      touched_mark[l] = 0;
    }

    if (R.size() == before) {
      // Fixpoint: commit the restricted rates back onto the links.
      for (const std::uint32_t f : R) {
        for (const std::uint32_t l : flows[f].links) {
          state.link_load[l] += state.rates[f];
        }
      }
      out.released = static_cast<std::uint32_t>(R.size());
      return out;
    }
  }
}

// ------------------------------------------------------------ FlowNetwork

// Minimal routing walks the minimal planner. Every other algorithm draws
// its Valiant candidate from a kNonMinimal planner's on_inject; the
// adaptive ones then choose between it and the minimal path themselves
// (decide_route).
FlowNetwork::FlowNetwork(const topo::Dragonfly& topo, routing::Algo algo,
                         netsim::Params params, std::uint64_t seed)
    : FlowNetwork(netsim::Fabric::dragonfly(topo, params),
                  std::make_unique<routing::RoutePlanner>(
                      topo,
                      algo == routing::Algo::kMinimal
                          ? routing::Algo::kMinimal
                          : routing::Algo::kNonMinimal,
                      params.adaptive, seed),
                  algo, params, seed) {}

FlowNetwork::FlowNetwork(const topo::FatTree& topo, netsim::Params params,
                         std::uint64_t seed)
    : FlowNetwork(netsim::Fabric::fat_tree(topo, params),
                  netsim::make_updown_ecmp(topo, seed),
                  routing::Algo::kMinimal, params, seed) {}

FlowNetwork::FlowNetwork(netsim::Fabric fabric,
                         std::unique_ptr<routing::Policy> policy,
                         routing::Algo algo, netsim::Params params,
                         std::uint64_t seed)
    : fabric_(std::move(fabric)),
      policy_(std::move(policy)),
      algo_(algo),
      params_(params),
      recorder_(fabric_, seed) {
  params_.validate();
  nterm_ = fabric_.num_terminals();
  nlocal_ = fabric_.num_local_links();
  nglobal_ = fabric_.num_global_links();
  const std::size_t nlinks =
      2 * static_cast<std::size_t>(nterm_) + nlocal_ + nglobal_;

  auto bandwidth = [this](const netsim::PortRef& at) {
    return fabric_.port(at.router, at.port).bandwidth;
  };
  capacity_.resize(nlinks);
  for (std::uint32_t t = 0; t < nterm_; ++t) {
    capacity_[inj_link(t)] = bandwidth(fabric_.terminal_port(t));
    capacity_[ej_link(t)] = capacity_[inj_link(t)];
  }
  for (std::uint32_t l = 0; l < nlocal_; ++l) {
    capacity_[local_link(l)] = bandwidth(fabric_.local_src(l));
  }
  for (std::uint32_t g = 0; g < nglobal_; ++g) {
    capacity_[global_link(g)] = bandwidth(fabric_.global_src(g));
  }
  link_traffic_.assign(nlinks, 0.0);
  link_sat_.assign(nlinks, 0.0);
  link_util_.assign(nlinks, 0.0);

  term_rng_.reserve(nterm_);
  for (std::uint32_t t = 0; t < nterm_; ++t) {
    term_rng_.emplace_back(seed, (1ULL << 32) + t);
  }
}

// --------------------------------------------------------------- routing

void FlowNetwork::build_path(std::uint32_t src_term,
                             routing::PacketRoute route,
                             PathInfo& path) const {
  path.links.clear();
  path.links.push_back(inj_link(src_term));
  path.latency = 2.0 * params_.terminal_latency;

  std::uint32_t cur = fabric_.terminal_port(src_term).router;
  path.router_hops = 1;

  routing::RouteStats stats;
  Rng rng(0, 0);  // never consulted: proxies drawn, decided, no faults
  for (int step = 0; step < 32; ++step) {
    const routing::Decision d =
        policy_->route(route, cur, null_probe_, rng, stats);
    const netsim::Port& hop = fabric_.port(cur, d.port);
    if (hop.cls == netsim::LinkClass::kEjection) {
      path.links.push_back(ej_link(hop.dst_terminal));
      path.latency += params_.router_delay * path.router_hops;
      return;
    }
    path.links.push_back(hop.cls == netsim::LinkClass::kLocal
                             ? local_link(hop.id)
                             : global_link(hop.id));
    path.latency += hop.latency;
    cur = hop.dst_router;
    ++path.router_hops;
  }
  throw Error("flow path walk failed to terminate");
}

double FlowNetwork::path_peak_util(const PathInfo& path) const {
  double peak = 0.0;
  for (const std::uint32_t l : path.links) {
    peak = std::max(peak, link_util_[l]);
  }
  return peak;
}

void FlowNetwork::decide_route(Bundle& b) {
  const std::uint32_t sr = fabric_.terminal_port(b.src).router;
  const std::uint32_t dr = fabric_.terminal_port(b.dst).router;
  routing::PacketRoute route;
  route.dst_terminal = b.dst;
  route.decided = true;
  // The policy draws on the source terminal's stream, as in netsim.
  // Adaptive routing has no Valiant candidate inside a group (UGAL's
  // candidates are proxy groups), so it draws nothing there.
  if (!adaptive() || fabric_.router_group(sr) != fabric_.router_group(dr)) {
    routing::RouteStats stats;
    policy_->on_inject(route, b.src, null_probe_, term_rng_[b.src], stats);
  }

  const PathInfo* chosen = &min_path_;
  if (adaptive() && route.proxy_group >= 0) {
    // Fluid UGAL: netsim compares source-router queue depths; the flow
    // model's congestion signal is the previous solve's bottleneck
    // utilization along each candidate path. The threshold (packets)
    // is normalized by the VC buffer size to the same [0,1] scale.
    build_path(b.src, route, alt_path_);
    route.proxy_group = -1;
    build_path(b.src, route, min_path_);
    const double q_min = path_peak_util(min_path_);
    const double q_non = path_peak_util(alt_path_);
    const double bias =
        params_.adaptive.threshold / params_.vc_buffer_packets;
    if (q_min * min_path_.router_hops >
        q_non * alt_path_.router_hops + bias) {
      chosen = &alt_path_;
    }
  } else {
    build_path(b.src, route, min_path_);
  }
  b.links.assign(chosen->links.begin(), chosen->links.end());
  b.router_hops = chosen->router_hops;
  b.path_latency = chosen->latency;
}

// -------------------------------------------------------------- bundles

std::vector<std::uint32_t> FlowNetwork::layout_bundles(
    const std::vector<std::uint32_t>& order) {
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::vector<std::uint32_t> issue_bundle(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const netsim::Message& m = recorder_.messages()[order[k]];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(m.src_terminal) << 32) | m.dst_terminal;
    const auto [it, fresh] =
        index.emplace(key, static_cast<std::uint32_t>(bundles_.size()));
    if (fresh) {
      Bundle b;
      b.src = m.src_terminal;
      b.dst = m.dst_terminal;
      bundles_.push_back(std::move(b));
    }
    issue_bundle[k] = it->second;
    ++bundles_[it->second].tail;  // message count, until the slices below
  }
  // Each bundle's slice starts where the previous one ends; fill them in
  // issue order, then rewind the cursors to empty FIFOs.
  std::uint32_t start = 0;
  for (Bundle& b : bundles_) {
    const std::uint32_t n = b.tail;
    b.head = b.tail = start;
    start += n;
  }
  queue_.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const netsim::Message& m = recorder_.messages()[order[k]];
    queue_[bundles_[issue_bundle[k]].tail++] = QueuedMsg{m.time, m.bytes};
  }
  for (Bundle& b : bundles_) b.tail = b.head;
  return issue_bundle;
}

bool FlowNetwork::drain_epoch(double t0, double dt) {
  for (const std::uint32_t l : sat_links_) link_sat_[l] += dt;

  drained_.clear();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    Bundle& b = bundles_[active_[i]];
    double sent = std::min(b.backlog, b.rate * dt);
    if (sent <= 0.0) continue;
    for (const std::uint32_t l : b.links) link_traffic_[l] += sent;
    bytes_injected_ += sent;

    // FIFO completion: message k finishes when the cumulative drain covers
    // its residue; its packets arrive one fixed path latency later.
    double consumed = 0.0;
    while (b.head != b.tail) {
      const QueuedMsg& m = queue_[b.head];
      const double take = std::min(b.head_left, sent - consumed);
      if (take < b.head_left - kByteEps) {
        b.head_left -= take;
        break;
      }
      consumed += b.head_left;
      const double completion =
          b.rate > 0.0 ? std::min(t0 + consumed / b.rate, t0 + dt) : t0 + dt;
      const double arrival = completion + b.path_latency;
      const auto npkts = static_cast<std::uint64_t>(
          (m.bytes + params_.packet_size - 1) / params_.packet_size);
      recorder_.deliver(
          b.dst, npkts,
          std::max(arrival - m.issue, b.path_latency) *
              static_cast<double>(npkts),
          static_cast<double>(b.router_hops) * static_cast<double>(npkts));
      ++msgs_finished_;
      bytes_delivered_ += static_cast<double>(m.bytes);
      max_delivery_ = std::max(max_delivery_, arrival);
      ++b.head;
      b.head_left = b.head != b.tail
                        ? static_cast<double>(queue_[b.head].bytes)
                        : 0.0;
    }
    b.backlog = std::max(0.0, b.backlog - sent);
    if (b.backlog <= kByteEps && b.head == b.tail) {
      b.backlog = 0.0;
      b.rate = 0.0;
      drained_.push_back(active_[i]);
    }
  }
  if (!drained_.empty()) {
    drain_events_ += drained_.size();
    std::size_t d = 0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < active_.size(); ++r) {
      if (d < drained_.size() && drained_[d] == active_[r]) {
        ++d;
        continue;
      }
      active_[w++] = active_[r];
    }
    active_.resize(w);
  }
  return !drained_.empty();
}

struct FlowNetwork::Cumulative {
  const FlowNetwork& net;

  netsim::Totals at(std::uint32_t l) const {
    return {net.link_traffic_[l], net.link_sat_[l]};
  }
  netsim::Totals local(std::uint32_t lid) const {
    return at(net.local_link(lid));
  }
  netsim::Totals global(std::uint32_t gid) const {
    return at(net.global_link(gid));
  }
  netsim::SplitTotals terminal(std::uint32_t t) const {
    const std::uint32_t li = net.inj_link(t);
    return {net.link_traffic_[li], net.link_sat_[li],
            net.link_sat_[net.ej_link(t)]};
  }
};

// ----------------------------------------------------------- event engine

void FlowNetwork::apply_event_solve() {
  for (const std::uint32_t id : active_) {
    bundles_[id].rate = ev_state_.rates[id];
  }
  // Full utilization + saturation rescan: O(links) is noise next to any
  // solve, and it keeps incremental and full solves on one code path.
  sat_links_.clear();
  const std::size_t nl = capacity_.size();
  for (std::size_t l = 0; l < nl; ++l) {
    const double load = ev_state_.link_load[l];
    link_util_[l] = load > 0.0 ? load / capacity_[l] : 0.0;
    if (load >= capacity_[l] * kSatFrac) {
      sat_links_.push_back(static_cast<std::uint32_t>(l));
    }
  }
}

void FlowNetwork::solve_event_full(double dt) {
  const bool capped = active_.size() <= kCapSolveLimit;
  for (const std::uint32_t id : active_) {
    ev_flows_[id].rate_cap = capped ? bundles_[id].backlog / dt : kInf;
  }
  ev_state_ = water_fill(capacity_, ev_flows_);
  ++solves_;
  ++full_solves_;
  solver_rounds_ += ev_state_.rounds;
  ev_cap_bound_ = false;
  if (capped) {
    for (const std::uint32_t id : active_) {
      if (ev_state_.rates[id] >= ev_flows_[id].rate_cap * kSatFrac) {
        ev_cap_bound_ = true;
        break;
      }
    }
  }
  apply_event_solve();
}

void FlowNetwork::solve_event_drained(
    double dt, const std::vector<std::uint32_t>& removed) {
  // Shrink-only change. The incremental path pays off when the
  // perturbation stays sparse: skip it outright for mass completions
  // (the cascade would bail anyway) and whenever the last solve froze a
  // flow at its demand cap — cap-bound rates depend on the drained
  // backlogs, not just the active set, so the frozen allocation is not
  // reusable. water_fill_removed itself falls back on a wide cascade.
  if (!ev_cap_bound_ && removed.size() * 8 <= active_.size()) {
    const IncrementalResult inc =
        water_fill_removed(capacity_, ev_flows_, removed, ev_state_);
    if (!inc.full_solve) {
      for (const std::uint32_t id : removed) {
        ev_flows_[id].rate_cap = 0.0;
      }
      ++solves_;
      ++incremental_solves_;
      solver_rounds_ += inc.rounds;
      apply_event_solve();
      return;
    }
  }
  for (const std::uint32_t id : removed) ev_flows_[id].rate_cap = 0.0;
  solve_event_full(dt);
}

double FlowNetwork::next_completion_target(double t) {
  if (active_.empty()) return kInf;
  comp_scratch_.clear();
  for (const std::uint32_t id : active_) {
    const Bundle& b = bundles_[id];
    DV_CHECK(b.rate > 0.0, "active bundle with no allocation");
    comp_scratch_.push_back(t + b.backlog / b.rate);
  }
  // Above the cap-solve threshold a single solve costs milliseconds, so
  // the drain tail widens to quarter-of-active batches (a heavy run
  // re-solves O(log n) times total); below it the 1/16th batches keep
  // rate redistribution fine-grained.
  const std::size_t divisor =
      comp_scratch_.size() > kCapSolveLimit ? 4 : kCompletionBatch;
  const std::size_t k = std::max<std::size_t>(1, comp_scratch_.size() / divisor);
  const auto kth = comp_scratch_.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(comp_scratch_.begin(), kth, comp_scratch_.end());
  return *kth;
}

double FlowNetwork::run_event(const std::vector<std::uint32_t>& issue_bundle,
                              double dt) {
  const bool sampled = recorder_.sampled();
  const std::size_t total = issue_bundle.size();
  std::size_t next = 0;  // issue-order position of the next message
  std::uint32_t issued_bundles = 0;  // ids are in first-issue order
  std::vector<std::uint32_t> pending;  // activated, not yet solved in
  std::vector<std::uint32_t> removed;  // completed, not yet solved out
  double t = 0.0;
  double frame_next = dt;  // summed, not k * dt: run uids pin end_time
  double batch_t = kInf;   // completion-batch target from the last solve

  // A message activates at the start of the length-dt interval containing
  // its issue time, so demand that lands mid-quantum joins the solve at
  // the quantum's boundary. The next message sits at its bundle's tail.
  auto next_quantum = [&] {
    const double issue = queue_[bundles_[issue_bundle[next]].tail].issue;
    return std::floor(issue / dt) * dt;
  };

  while (next < total || !active_.empty()) {
    DV_REQUIRE(++epochs_ < kMaxEpochs,
               "flow simulation failed to drain (event guard)");
    const double t_inj = next < total ? next_quantum() : kInf;
    double stop = std::min(t_inj, batch_t);
    if (sampled) stop = std::min(stop, frame_next);
    DV_CHECK(std::isfinite(stop) && stop >= t, "event stepping stalled");

    // Drain the constant-rate interval [t, stop). Completion times inside
    // it are exact (FIFO residue / rate), so skipping straight to the
    // next rate-changing event loses nothing.
    if (stop > t && !active_.empty()) {
      obs::ScopedPhase ph("ev.drain");
      if (drain_epoch(t, stop - t)) {
        removed.insert(removed.end(), drained_.begin(), drained_.end());
      }
    }
    t = stop;

    if (sampled && t == frame_next) {
      obs::ScopedPhase ph("ev.sample");
      recorder_.push_frame(Cumulative{*this});
      frame_next += dt;
    }

    if (next < total && next_quantum() <= t) {
      obs::ScopedPhase ph("ev.issue");
      do {
        const std::uint32_t id = issue_bundle[next];
        Bundle& b = bundles_[id];
        issued_bundles = std::max(issued_bundles, id + 1);
        const double bytes = static_cast<double>(queue_[b.tail].bytes);
        if (b.head == b.tail) {
          if (b.backlog <= 0.0) {
            decide_route(b);
            pending.push_back(id);
          }
          b.head_left = bytes;
        }
        ++b.tail;
        b.backlog += bytes;
        ++next;
      } while (next < total && next_quantum() <= t);
    }

    // Activation batching: below the cap-solve threshold every quantum
    // with new demand solves immediately (exact activation timing); above
    // it new bundles wait — idle, like a control-loop delay — until they
    // amount to 1/16th of the active set, injections run out, or nothing
    // else is draining. A heavy ramp-up re-solves O(log n) times instead
    // of once per quantum.
    const bool flush =
        !pending.empty() &&
        (active_.size() <= kCapSolveLimit ||
         pending.size() * 16 >= active_.size() || next >= total ||
         active_.empty());
    if (flush) {
      {
        obs::ScopedPhase ph("ev.activate");
        // Solver slots grow only here, so the drain-only incremental path
        // always sees ev_flows_/ev_state_ at matching sizes.
        if (ev_flows_.size() < issued_bundles) {
          ev_flows_.resize(issued_bundles);
        }
        for (const std::uint32_t id : pending) {
          ev_flows_[id].links.assign(bundles_[id].links.begin(),
                                     bundles_[id].links.end());
        }
        active_.insert(active_.end(), pending.begin(), pending.end());
        pending.clear();
        std::sort(active_.begin(), active_.end());
        active_.erase(std::unique(active_.begin(), active_.end()),
                      active_.end());
        for (const std::uint32_t id : removed) ev_flows_[id].rate_cap = 0.0;
        removed.clear();
      }
      {
        obs::ScopedPhase ph("ev.solve_full");
        solve_event_full(dt);
      }
    } else if (!removed.empty()) {
      // Completions also batch: freed capacity sits idle (the fluid
      // analog of a control-loop redistribution delay) until
      // the accumulated removals reach 1/16th of what's still active —
      // otherwise every injection quantum that happens to see a straggler
      // completion would pay a full-size re-solve.
      if (active_.empty()) {
        // Nothing left to re-solve; rates refresh with the next
        // activation's full solve.
        for (const std::uint32_t id : removed) {
          ev_flows_[id].rate_cap = 0.0;
        }
        removed.clear();
      } else if (removed.size() * 16 >= active_.size()) {
        obs::ScopedPhase ph("ev.solve_drained");
        solve_event_drained(dt, removed);
        removed.clear();
      }
    }
    // Injections into running bundles change completion times without
    // changing rates, so the target recomputes every step either way.
    {
      obs::ScopedPhase ph("ev.target");
      batch_t = next_completion_target(t);
    }
  }

  // Sampled runs keep ticking until the frames cover the last arrival —
  // netsim's sampling loop ends only once the event queue is empty, so
  // end_time ≈ frames * dt holds for both backends.
  if (sampled) {
    obs::ScopedPhase ph("ev.sample");
    while (frame_next - dt < max_delivery_) {
      recorder_.push_frame(Cumulative{*this});
      frame_next += dt;
    }
    return frame_next - dt;
  }
  return max_delivery_;
}

// ------------------------------------------------------------------- run

metrics::RunMetrics FlowNetwork::run() {
  recorder_.start();
  const std::vector<netsim::Message>& messages = recorder_.messages();

  // Deterministic processing order, independent of add_message order.
  std::vector<std::uint32_t> order(messages.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&messages](std::uint32_t a, std::uint32_t b) {
              const netsim::Message& ma = messages[a];
              const netsim::Message& mb = messages[b];
              if (ma.time != mb.time) return ma.time < mb.time;
              if (ma.src_terminal != mb.src_terminal)
                return ma.src_terminal < mb.src_terminal;
              if (ma.dst_terminal != mb.dst_terminal)
                return ma.dst_terminal < mb.dst_terminal;
              return a < b;
            });

  double dt = recorder_.sample_dt();
  if (dt <= 0.0) {
    double max_issue = 0.0;
    for (const auto& m : messages) max_issue = std::max(max_issue, m.time);
    dt = max_issue > 0.0 ? max_issue / 256.0 : 1000.0;
  }

  double end = 0.0;
  {
    obs::ScopedPhase phase("sim");
    std::vector<std::uint32_t> issue_bundle;
    {
      obs::ScopedPhase ph("ev.layout");
      issue_bundle = layout_bundles(order);
    }
    end = run_event(issue_bundle, dt);
  }

  DV_CHECK(msgs_finished_ == messages.size(),
           "flow simulation drained with messages outstanding");
  const double tol =
      std::max(1.0, bytes_delivered_) * 1e-9 + kByteEps * messages.size();
  DV_CHECK(std::abs(bytes_injected_ - bytes_delivered_) <= tol,
           "flow conservation violated: injected != delivered");

  metrics::RunMetrics out;
  {
    obs::ScopedPhase phase("collect");
    // Adaptive runs walk a kNonMinimal planner; the label names the
    // algorithm.
    out = recorder_.finish(
        Cumulative{*this},
        adaptive() ? routing::to_string(algo_) : policy_->label(), end);
  }
  publish_run_obs(out);
  return out;
}

void FlowNetwork::publish_run_obs(const metrics::RunMetrics& out) {
#ifdef DV_OBS_ENABLED
  obs::counter("flow.messages").add(recorder_.messages().size());
  obs::counter("flow.bundles").add(bundles_.size());
  obs::counter("flow.epochs").add(epochs_);
  obs::counter("flow.solves").add(solves_);
  obs::counter("flow.solve.full").add(full_solves_);
  obs::counter("flow.solve.incremental").add(incremental_solves_);
  obs::counter("flow.drain.events").add(drain_events_);
  obs::counter("flow.solver_rounds").add(solver_rounds_);
  obs::counter("flow.bytes").add(static_cast<std::uint64_t>(bytes_delivered_));
  if (recorder_.sampled()) {
    obs::counter("flow.sample_frames").add(out.local_traffic_ts.frames());
  }
#else
  (void)out;
#endif
}

}  // namespace dv::flow
