// Differential cross-validation of the flow backend against the packet
// simulator on the paper's Fig. 7 synthetic scenarios: identical metrics
// schema, the same bytes on every link under minimal routing (dragonfly
// and fat tree), matching saturation ordering between scenarios,
// rank-correlated per-link load, and byte-identical view plumbing over
// either backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "core/datatable.hpp"
#include "core/presets.hpp"
#include "core/projection.hpp"
#include "flow/flow.hpp"

namespace dv::app {
namespace {

/// Fig. 7 scale: canonical p=3 dragonfly (342 terminals), small volumes so
/// the packet reference stays fast in debug/sanitizer builds.
ExperimentConfig base_config(Backend backend, const std::string& workload) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 3;
  JobSpec job;
  job.workload = workload;
  cfg.jobs.push_back(job);
  cfg.routing = routing::Algo::kAdaptive;
  cfg.window = 1.0e5;
  cfg.synthetic_bytes_per_rank = 16 * 1024;
  cfg.seed = 5;
  cfg.backend = backend;
  return cfg;
}

metrics::RunMetrics run_one(Backend backend, const std::string& workload) {
  auto cfg = base_config(backend, workload);
  return run_experiment(cfg).run;
}

/// Per-link traffic over both link classes, in id order.
std::vector<double> link_traffic(const metrics::RunMetrics& run) {
  std::vector<double> v;
  v.reserve(run.local_links.size() + run.global_links.size());
  for (const auto& l : run.local_links) v.push_back(l.traffic);
  for (const auto& l : run.global_links) v.push_back(l.traffic);
  return v;
}

/// Peak per-link saturated time — the scalar the paper's Fig. 7 colour
/// scale encodes (how long the busiest link was at capacity).
double peak_link_sat(const metrics::RunMetrics& run) {
  double peak = 0.0;
  for (const auto& l : run.local_links) peak = std::max(peak, l.sat_time);
  for (const auto& l : run.global_links) peak = std::max(peak, l.sat_time);
  return peak;
}

/// Average ranks (1-based, ties share their mean rank).
std::vector<double> average_ranks(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double r =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = r;
    i = j + 1;
  }
  return ranks;
}

/// Spearman rank correlation of two equal-length series: Pearson on the
/// average ranks, so ties are handled. 0 when either series is constant.
double spearman(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  const std::vector<double> rx = average_ranks(xs);
  const std::vector<double> ry = average_ranks(ys);
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += rx[i];
    my += ry[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = rx[i] - mx;
    const double dy = ry[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

TEST(FlowVsPacket, RunMetricsSchemaIsIdentical) {
  const auto flow = run_one(Backend::kFlow, "uniform_random");
  const auto packet = run_one(Backend::kPacket, "uniform_random");

  // Topology echo and labels.
  EXPECT_EQ(flow.groups, packet.groups);
  EXPECT_EQ(flow.routers_per_group, packet.routers_per_group);
  EXPECT_EQ(flow.terminals_per_router, packet.terminals_per_router);
  EXPECT_EQ(flow.global_per_router, packet.global_per_router);
  EXPECT_EQ(flow.workload, packet.workload);
  EXPECT_EQ(flow.routing, packet.routing);
  EXPECT_EQ(flow.placement, packet.placement);
  EXPECT_EQ(flow.job_names, packet.job_names);
  EXPECT_EQ(flow.seed, packet.seed);

  // Entity tables: same cardinality, same id wiring per row.
  ASSERT_EQ(flow.local_links.size(), packet.local_links.size());
  for (std::size_t i = 0; i < flow.local_links.size(); ++i) {
    EXPECT_EQ(flow.local_links[i].src_router, packet.local_links[i].src_router);
    EXPECT_EQ(flow.local_links[i].src_port, packet.local_links[i].src_port);
    EXPECT_EQ(flow.local_links[i].dst_router, packet.local_links[i].dst_router);
    EXPECT_EQ(flow.local_links[i].dst_port, packet.local_links[i].dst_port);
  }
  ASSERT_EQ(flow.global_links.size(), packet.global_links.size());
  for (std::size_t i = 0; i < flow.global_links.size(); ++i) {
    EXPECT_EQ(flow.global_links[i].src_router, packet.global_links[i].src_router);
    EXPECT_EQ(flow.global_links[i].src_port, packet.global_links[i].src_port);
    EXPECT_EQ(flow.global_links[i].dst_router, packet.global_links[i].dst_router);
    EXPECT_EQ(flow.global_links[i].dst_port, packet.global_links[i].dst_port);
  }
  ASSERT_EQ(flow.terminals.size(), packet.terminals.size());
  for (std::size_t i = 0; i < flow.terminals.size(); ++i) {
    EXPECT_EQ(flow.terminals[i].router, packet.terminals[i].router);
    EXPECT_EQ(flow.terminals[i].port, packet.terminals[i].port);
    EXPECT_EQ(flow.terminals[i].job, packet.terminals[i].job);
  }

  // Both backends inject the exact same workload bytes.
  EXPECT_DOUBLE_EQ(flow.total_injected(), packet.total_injected());
  EXPECT_EQ(flow.total_packets_finished(), packet.total_packets_finished());

  // The VA substrate sees identical column schemas per entity class.
  const core::DataSet fds(flow), pds(packet);
  for (const auto e : {core::Entity::kRouter, core::Entity::kLocalLink,
                       core::Entity::kGlobalLink, core::Entity::kTerminal}) {
    EXPECT_EQ(fds.table(e).column_names(), pds.table(e).column_names())
        << to_string(e);
    EXPECT_EQ(fds.table(e).rows(), pds.table(e).rows()) << to_string(e);
  }
}

double total_hops(const metrics::RunMetrics& run) {
  double hops = 0.0;
  for (const auto& t : run.terminals) hops += t.sum_hops;
  return hops;
}

/// Both backends walk the same minimal routes, so every link carries the
/// same bytes (up to the flow drain's floating-point sums) and every
/// delivered packet the same hop count.
void expect_same_bytes_on_every_link(const metrics::RunMetrics& flow,
                                     const metrics::RunMetrics& packet,
                                     const std::string& what) {
  const auto f = link_traffic(flow);
  const auto p = link_traffic(packet);
  ASSERT_EQ(f.size(), p.size()) << what;
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_LE(std::abs(f[i] - p[i]), 1e-12 * p[i]) << what << " link " << i;
  }
  EXPECT_GT(total_hops(packet), 0.0) << what;
  EXPECT_EQ(total_hops(flow), total_hops(packet)) << what;
}

TEST(FlowVsPacket, MinimalRoutingPutsTheSameBytesOnEveryLink) {
  for (const char* workload :
       {"uniform_random", "transpose", "nearest_neighbor"}) {
    auto flow_cfg = base_config(Backend::kFlow, workload);
    flow_cfg.routing = routing::Algo::kMinimal;
    auto packet_cfg = flow_cfg;
    packet_cfg.backend = Backend::kPacket;
    expect_same_bytes_on_every_link(run_experiment(flow_cfg).run,
                                    run_experiment(packet_cfg).run, workload);
  }

  // FatTree(4) up/down ECMP: the flow constructor builds the same fabric
  // and hashes each (src, dst) pair onto the same up-links.
  const topo::FatTree ft(4);
  flow::FlowNetwork flow_net(ft, {}, 3);
  netsim::Network packet_net(ft, {}, 3);
  Rng rng(11, 0);
  const std::uint32_t hosts = ft.num_hosts();
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(hosts));
    auto dst = src;
    while (dst == src) dst = static_cast<std::uint32_t>(rng.next_below(hosts));
    const netsim::Message m{src, dst, 1024 + rng.next_below(8192),
                            rng.next_double() * 2e4, -1};
    flow_net.add_message(m);
    packet_net.add_message(m);
  }
  expect_same_bytes_on_every_link(flow_net.run(), packet_net.run(),
                                  "fat_tree_k4");
}

TEST(FlowVsPacket, SaturationOrderingMatchesOnFig7Scenarios) {
  // Fig. 7's contrast: stride-p nearest neighbour concentrates every
  // router's flows onto few links (congestion-forming); uniform random
  // spreads them. Under minimal routing and heavy load (12x, past link
  // capacity) the backends must agree which scenario is more congested
  // AND which finishes later, even though absolute numbers differ.
  auto congested = [](Backend backend, const std::string& workload) {
    auto cfg = base_config(backend, workload);
    cfg.routing = routing::Algo::kMinimal;
    cfg.traffic_scale = 12.0;
    return run_experiment(cfg).run;
  };
  const auto flow_nn = congested(Backend::kFlow, "nearest_neighbor");
  const auto flow_ur = congested(Backend::kFlow, "uniform_random");
  const auto pkt_nn = congested(Backend::kPacket, "nearest_neighbor");
  const auto pkt_ur = congested(Backend::kPacket, "uniform_random");

  // Saturation ordering (with margin: NN's hot links stay saturated for
  // several times longer than UR's busiest link in both models).
  EXPECT_GT(peak_link_sat(flow_nn), 2.0 * peak_link_sat(flow_ur));
  EXPECT_GT(peak_link_sat(pkt_nn), 2.0 * peak_link_sat(pkt_ur));
  // The congested scenario also drains later in both models.
  EXPECT_GT(flow_nn.end_time, flow_ur.end_time);
  EXPECT_GT(pkt_nn.end_time, pkt_ur.end_time);
}

TEST(FlowVsPacket, LinkLoadRankCorrelates) {
  for (const char* workload : {"nearest_neighbor", "uniform_random"}) {
    const auto flow = link_traffic(run_one(Backend::kFlow, workload));
    const auto packet = link_traffic(run_one(Backend::kPacket, workload));
    ASSERT_EQ(flow.size(), packet.size());
    // Fluid rates ignore transient queueing, so we validate the *ordering*
    // of link loads, not their magnitudes.
    EXPECT_GE(spearman(flow, packet), 0.6) << workload;
  }
}

TEST(FlowVsPacket, SolverTelemetryIsPopulatedOnlyByTheFlowBackend) {
  const auto flow = run_experiment(base_config(Backend::kFlow,
                                               "uniform_random"));
  EXPECT_GT(flow.flow.epochs, 0u);
  EXPECT_GT(flow.flow.solves, 0u);
  EXPECT_GE(flow.flow.solves, flow.flow.incremental_solves);
  EXPECT_GT(flow.flow.solver_rounds, 0u);

  const auto packet = run_experiment(base_config(Backend::kPacket,
                                                 "uniform_random"));
  EXPECT_EQ(packet.flow.epochs, 0u);
  EXPECT_EQ(packet.flow.solves, 0u);
  EXPECT_EQ(packet.flow.solver_rounds, 0u);
  EXPECT_EQ(packet.flow.incremental_solves, 0u);
}

TEST(FlowVsPacket, ViewPlumbingIsByteIdenticalPerBackend) {
  // The same spec machinery must run unchanged over either backend's run
  // and render deterministically (two builds -> identical SVG bytes).
  const auto spec = core::preset("overview");
  for (const auto backend : {Backend::kFlow, Backend::kPacket}) {
    const auto run = run_one(backend, "uniform_random");
    const core::DataSet ds(run);
    const core::ProjectionView a(ds, spec);
    const core::ProjectionView b(ds, spec);
    ASSERT_FALSE(a.rings().empty());
    EXPECT_EQ(a.to_svg(640, "t"), b.to_svg(640, "t"));
  }
}

/// The error each bad input raises on a fresh DF(2) network of type Net,
/// in order ("" where the input is accepted): four bad messages, a
/// placement of the wrong size, a zero sampling interval, then messages,
/// sampling and a second run after run().
template <class Net>
std::vector<std::string> rejections() {
  const auto topo = topo::Dragonfly::canonical(2);
  const std::uint32_t terms = topo.num_terminals();
  auto error_of = [](auto f) -> std::string {
    try {
      f();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  using netsim::Message;
  Net net(topo, routing::Algo::kMinimal);
  placement::Placement short_by_one;
  short_by_one.job_of.assign(terms - 1, 0);
  std::vector<std::string> out = {
      error_of([&] { net.add_message(Message{3, 3, 100, 0.0}); }),
      error_of([&] { net.add_message(Message{0, terms, 100, 0.0}); }),
      error_of([&] { net.add_message(Message{0, 1, 0, 0.0}); }),
      error_of([&] { net.add_message(Message{0, 1, 100, -1.0}); }),
      error_of([&] { net.set_jobs(short_by_one); }),
      error_of([&] { net.enable_sampling(0.0); }),
  };
  net.add_message(Message{0, 1, 100, 0.0});
  (void)net.run();
  out.push_back(error_of([&] { net.add_message(Message{1, 2, 100, 0.0}); }));
  out.push_back(error_of([&] { net.enable_sampling(100.0); }));
  out.push_back(error_of([&] { (void)net.run(); }));
  return out;
}

TEST(FlowVsPacket, BothBackendsRejectTheSameInputs) {
  const std::vector<std::string> expected = {
      "self-messages never enter the network",
      "message terminal out of range",
      "empty message",
      "negative message time",
      "placement size mismatch",
      "sampling interval must be positive",
      "add_message after run()",
      "enable_sampling after run()",
      "run() may be called once",
  };
  EXPECT_EQ(rejections<netsim::Network>(), expected);
  EXPECT_EQ(rejections<flow::FlowNetwork>(), expected);
}

}  // namespace
}  // namespace dv::app
