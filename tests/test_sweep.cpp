// Sweep orchestrator tests: a small grid lands one packed run per point in
// the store, uids are distinct per point and reproducible across re-runs,
// re-sweeping is idempotent, the comparison report references every
// stored run, and storing each point while the next one simulates leaves
// exactly what a serial simulate-then-add loop would, failures included.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "app/sweep.hpp"
#include "metrics/run_store.hpp"
#include "obs/obs.hpp"
#include "helpers.hpp"

namespace dv::app {
namespace {

std::string temp_dir(const std::string& leaf) {
  const auto dir = (dv::testing::test_temp_dir() / leaf).string();
  std::filesystem::remove_all(dir);
  return dir;
}

SweepConfig grid_config(const std::string& store_dir) {
  SweepConfig cfg;
  cfg.base.dragonfly_p = 2;
  cfg.base.window = 1.0e5;
  cfg.base.synthetic_bytes_per_rank = 8 * 1024;
  cfg.base.seed = 3;
  cfg.base.backend = Backend::kFlow;
  cfg.base.jobs.push_back(JobSpec{});  // overwritten per point
  cfg.workloads = {"uniform_random", "nearest_neighbor"};
  cfg.routings = {"adaptive"};
  cfg.scales = {0.5, 1.0};
  cfg.store_dir = store_dir;
  return cfg;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

/// Every file in `dir` by name, so two stores compare as sets of names.
std::set<std::string> file_names(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.insert(e.path().filename().string());
  }
  return names;
}

TEST(Sweep, PipelinedStoreMatchesASerialOracle) {
  // A sampled 2x2x2 grid through run_sweep against the serial loop it
  // replaces: run_experiment, then RunStore::add, one point at a time.
  const auto dir = temp_dir("dv_sweep_test_pipe");
  const auto oracle_dir = temp_dir("dv_sweep_test_pipe_oracle");
  auto cfg = grid_config(dir);
  cfg.base.sample_dt = 5000.0;
  cfg.routings = {"minimal", "adaptive"};
  const auto res = run_sweep(cfg);
  ASSERT_EQ(res.points.size(), 8u);

  metrics::RunStore oracle(oracle_dir);
  std::size_t i = 0;
  for (const std::string& workload : cfg.workloads) {
    for (const std::string& routing : cfg.routings) {
      for (const double scale : cfg.scales) {
        ExperimentConfig point = cfg.base;
        point.jobs = {JobSpec{}};
        point.jobs[0].workload = workload;
        point.routing = routing::algo_from_string(routing);
        point.traffic_scale = scale;
        const std::string name =
            sweep_point_name(workload, routing, scale, cfg.base.backend);
        ASSERT_EQ(oracle.add(run_experiment(point).run, name), name);
        EXPECT_EQ(res.points[i].name, name);
        EXPECT_EQ(res.points[i].uid, oracle.info(name).uid) << name;
        ++i;
      }
    }
  }

  const auto names = file_names(dir);
  ASSERT_EQ(names, file_names(oracle_dir));
  EXPECT_EQ(names.size(), 9u);  // 8 runs + index.json
  for (const std::string& name : names) {
    EXPECT_EQ(file_bytes(std::filesystem::path(dir) / name),
              file_bytes(std::filesystem::path(oracle_dir) / name))
        << name;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(oracle_dir);
}

TEST(Sweep, FailedPointRethrowsAndKeepsEarlierPointsStored) {
  // The second of three points throws inside run_experiment while the
  // writer may still be storing the first. The sweep must rethrow that
  // error (no std::terminate from a joinable writer) and leave the store
  // as a serial sweep would: the first point stored and indexed.
  const auto dir = temp_dir("dv_sweep_test_fail");
  auto cfg = grid_config(dir);
  cfg.workloads = {"uniform_random", "no_such_workload", "nearest_neighbor"};
  cfg.scales = {1.0};
  try {
    run_sweep(cfg);
    FAIL() << "the unknown workload must fail the sweep";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_workload"),
              std::string::npos)
        << e.what();
  }
  const std::string first =
      sweep_point_name("uniform_random", "adaptive", 1.0, Backend::kFlow);
  metrics::RunStore store(dir);
  ASSERT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.contains(first));
  EXPECT_EQ(store.load(first).workload, "uniform_random");
  EXPECT_EQ(file_names(dir),
            (std::set<std::string>{first + ".dvr", "index.json"}));
  std::filesystem::remove_all(dir);
}

TEST(Sweep, StoreFailureRethrowsAndKeepsEarlierPointsStored) {
  // The second of three points simulates fine but cannot be stored: a
  // directory sits where its temporary file would go. The sweep must
  // rethrow the store's error and leave the first point stored and
  // indexed; the third point is never stored.
  const auto dir = temp_dir("dv_sweep_test_store_fail");
  auto cfg = grid_config(dir);
  cfg.workloads = {"uniform_random", "nearest_neighbor", "bisection"};
  cfg.scales = {1.0};
  const std::string first =
      sweep_point_name("uniform_random", "adaptive", 1.0, Backend::kFlow);
  const std::string second =
      sweep_point_name("nearest_neighbor", "adaptive", 1.0, Backend::kFlow);
  std::filesystem::create_directories(std::filesystem::path(dir) /
                                      (second + ".dvr.tmp"));
  try {
    run_sweep(cfg);
    FAIL() << "the unwritable point must fail the sweep";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(second + ".dvr.tmp"),
              std::string::npos)
        << e.what();
  }
  metrics::RunStore store(dir);
  ASSERT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.contains(first));
  EXPECT_EQ(store.load(first).workload, "uniform_random");
  EXPECT_EQ(file_names(dir), (std::set<std::string>{
                                 first + ".dvr", second + ".dvr.tmp",
                                 "index.json"}));
  std::filesystem::remove_all(dir);
}

TEST(Sweep, FailsBeforeSimulatingOnATextStoreOrTextFormat) {
  const auto dir = temp_dir("dv_sweep_test_text_entry");
  auto cfg = grid_config(dir);
  cfg.workloads = {"uniform_random"};
  cfg.scales = {1.0};
  const std::string name =
      sweep_point_name("uniform_random", "adaptive", 1.0, Backend::kFlow);
  // A store an older binary left with a text entry under the grid point's
  // name: NAME.json, indexed with "format": "text".
  std::filesystem::create_directories(dir);
  const auto index = std::filesystem::path(dir) / "index.json";
  std::ofstream(index) << "[{\"name\": \"" << name
                       << "\", \"format\": \"text\", \"uid\": \"1\"}]\n";
  std::ofstream(std::filesystem::path(dir) / (name + ".json")) << "{}\n";
  const auto before = file_names(dir);
  const std::string index_before = file_bytes(index);

  const std::uint64_t epochs = obs::counter("flow.epochs").value();
  try {
    run_sweep(cfg);
    ADD_FAILURE() << "a store with a text entry must fail the sweep";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(index.string() + ": ", 0), 0u)
        << e.what();
  }
  EXPECT_EQ(obs::counter("flow.epochs").value(), epochs)
      << "the sweep simulated before it opened the store";
  EXPECT_EQ(file_names(dir), before);
  EXPECT_EQ(file_bytes(index), index_before);
  EXPECT_EQ(file_bytes(std::filesystem::path(dir) / (name + ".json")),
            "{}\n");

  // A sweep stores .dvr only: kText is refused before the store is opened.
  const auto fresh = temp_dir("dv_sweep_test_text_format");
  auto text = grid_config(fresh);
  text.format = metrics::StoreFormat::kText;
  EXPECT_THROW(run_sweep(text), Error);
  EXPECT_EQ(obs::counter("flow.epochs").value(), epochs);
  EXPECT_FALSE(std::filesystem::exists(fresh));
  std::filesystem::remove_all(fresh);
  std::filesystem::remove_all(dir);
}

TEST(Sweep, GridProducesOneRunPerPoint) {
  const auto dir = temp_dir("dv_sweep_test_grid");
  const auto res = run_sweep(grid_config(dir));

  // 2 workloads x 1 routing x 2 scales.
  ASSERT_EQ(res.points.size(), 4u);
  metrics::RunStore store(dir);
  EXPECT_EQ(store.size(), 4u);

  std::set<std::uint64_t> uids;
  std::set<std::string> names;
  for (const auto& p : res.points) {
    EXPECT_TRUE(store.contains(p.name)) << p.name;
    EXPECT_EQ(store.info(p.name).uid, p.uid);
    EXPECT_NE(p.uid, 0u);
    uids.insert(p.uid);
    names.insert(p.name);
    EXPECT_GT(p.end_time, 0.0);
    // Each point records the flow solver's telemetry.
    EXPECT_GT(p.flow.epochs, 0u) << p.name;
    EXPECT_GT(p.flow.solves, 0u) << p.name;
    // One packed .dvr per point, named after the point.
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / (p.name + ".dvr")))
        << p.name;
    // The stored run reloads and echoes the point's configuration.
    const auto run = store.load(p.name);
    EXPECT_EQ(run.workload, p.workload);
    EXPECT_EQ(run.routing, p.routing);
  }
  // Every point is distinct content: distinct names AND distinct uids.
  EXPECT_EQ(uids.size(), 4u);
  EXPECT_EQ(names.size(), 4u);
  EXPECT_EQ(sweep_point_name("uniform_random", "adaptive", 0.5,
                             Backend::kFlow),
            "uniform_random-adaptive-x0.5-flow");
  std::filesystem::remove_all(dir);
}

TEST(Sweep, DeterministicAcrossRunsAndIdempotentInPlace) {
  const auto dir_a = temp_dir("dv_sweep_test_det_a");
  const auto dir_b = temp_dir("dv_sweep_test_det_b");
  const auto a = run_sweep(grid_config(dir_a));
  const auto b = run_sweep(grid_config(dir_b));

  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].name, b.points[i].name);
    // Same grid, same seeds: byte-identical packed runs -> equal uids.
    EXPECT_EQ(a.points[i].uid, b.points[i].uid) << a.points[i].name;
  }

  // Re-sweeping into an existing store replaces points in place: same
  // names, same uids, same store size (no _2 suffixes).
  const auto again = run_sweep(grid_config(dir_a));
  metrics::RunStore store(dir_a);
  EXPECT_EQ(store.size(), 4u);
  for (std::size_t i = 0; i < again.points.size(); ++i) {
    EXPECT_EQ(again.points[i].name, a.points[i].name);
    EXPECT_EQ(again.points[i].uid, a.points[i].uid);
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(Sweep, ComparisonReportReferencesEveryRun) {
  const auto dir = temp_dir("dv_sweep_test_report");
  auto cfg = grid_config(dir);
  cfg.report_path = dir + "/report.html";
  const auto res = run_sweep(cfg);
  ASSERT_EQ(res.report_path, cfg.report_path);

  std::ifstream is(cfg.report_path);
  ASSERT_TRUE(is.good());
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string html = buf.str();
  for (const auto& p : res.points) {
    EXPECT_NE(html.find(p.name), std::string::npos) << p.name;
    EXPECT_NE(html.find("uid=" + std::to_string(p.uid)), std::string::npos)
        << p.name;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos);  // comparison panels
  std::filesystem::remove_all(dir);
}

TEST(Sweep, ValidatesConfiguration) {
  auto cfg = grid_config(temp_dir("dv_sweep_test_validate"));
  cfg.workloads.clear();
  EXPECT_THROW(run_sweep(cfg), Error);
  cfg = grid_config(cfg.store_dir);
  cfg.scales = {0.0};
  EXPECT_THROW(run_sweep(cfg), Error);
  cfg = grid_config(cfg.store_dir);
  cfg.store_dir.clear();
  EXPECT_THROW(run_sweep(cfg), Error);
  cfg = grid_config(temp_dir("dv_sweep_test_validate"));
  cfg.routings = {"not_a_routing"};
  EXPECT_THROW(run_sweep(cfg), Error);
  std::filesystem::remove_all(cfg.store_dir);
}

}  // namespace
}  // namespace dv::app
