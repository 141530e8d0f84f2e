// Shared test fixtures: a small simulated run with jobs, time-series
// sampling and mixed traffic for the VA-layer tests, and a private
// directory per test.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "core/datatable.hpp"
#include "netsim/network.hpp"
#include "placement/placement.hpp"
#include "workload/workload.hpp"

namespace dv::testing {

struct MiniRun {
  topo::Dragonfly topo = topo::Dragonfly::canonical(2);  // 9 groups, 72 terms
  placement::Placement placement;
  metrics::RunMetrics run;
};

/// Two jobs (nearest-neighbour + uniform random) on a p=2 dragonfly with
/// sampling enabled; deterministic.
inline MiniRun make_mini_run(routing::Algo algo = routing::Algo::kAdaptive,
                             placement::Policy p0 = placement::Policy::kContiguous,
                             placement::Policy p1 = placement::Policy::kRandomRouter,
                             std::uint64_t seed = 21) {
  MiniRun out;
  out.placement = placement::place_jobs(
      out.topo, {{"nn_job", 12, p0}, {"ur_job", 12, p1}}, seed);

  workload::Config cfg;
  cfg.ranks = 12;
  cfg.total_bytes = 3 << 20;
  cfg.window = 4.0e4;
  cfg.seed = seed;
  cfg.msg_bytes = 4096;

  netsim::Params params;
  params.packet_size = 1024;
  params.event_budget = 20'000'000;
  netsim::Network net(out.topo, algo, params, seed);
  net.set_jobs(out.placement);
  net.set_labels("mixed", "test_placement", {"nn_job", "ur_job"});
  net.add_messages(workload::map_to_terminals(
      workload::generate_nearest_neighbor(cfg), out.placement, 0));
  net.add_messages(workload::map_to_terminals(
      workload::generate_uniform_random(cfg), out.placement, 1));
  net.enable_sampling(500.0);
  out.run = net.run();
  return out;
}

/// The running test's own directory under temp_directory_path(), named
/// after its suite, its name and the process id, so tests in concurrent
/// processes (ctest -j, the sanitizer lanes) never share a file. The first
/// call in a test empties it and removes the previous test's directory;
/// later calls in the same test return it as the test left it. Call it
/// from the test's own thread.
inline std::filesystem::path test_temp_dir() {
  namespace fs = std::filesystem;
  struct Current {
    fs::path dir;
    ~Current() {
      std::error_code ec;
      if (!dir.empty()) fs::remove_all(dir, ec);
    }
  };
  static Current current;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string leaf = std::string("dv_") + info->test_suite_name() + "." +
                     info->name() + "." + std::to_string(::getpid());
  std::replace(leaf.begin(), leaf.end(), '/', '_');  // parameterised names
  const fs::path dir = fs::temp_directory_path() / leaf;
  if (dir != current.dir) {
    std::error_code ec;
    if (!current.dir.empty()) fs::remove_all(current.dir, ec);
    fs::remove_all(dir);
    fs::create_directories(dir);
    current.dir = dir;
  }
  return dir;
}

}  // namespace dv::testing
