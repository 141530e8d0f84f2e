// RunMetrics schema tests: derivation, serialization, time series, CSV.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/dvr.hpp"
#include "metrics/run_metrics.hpp"
#include "metrics/run_store.hpp"
#include "netsim/network.hpp"
#include "helpers.hpp"

namespace dv::metrics {
namespace {

/// A small simulated run shared by the tests.
RunMetrics sample_run(bool sampled) {
  const auto topo = topo::Dragonfly::canonical(2);
  netsim::Params p;
  p.packet_size = 512;
  netsim::Network net(topo, routing::Algo::kAdaptive, p, 17);
  net.set_labels("uniform_random", "contiguous", {"job0"});
  Rng rng(2);
  for (int i = 0; i < 120; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    net.add_message({src, dst, 3000, rng.next_double() * 5000.0, 0});
  }
  if (sampled) net.enable_sampling(400.0);
  return net.run();
}

TEST(Metrics, DeriveRoutersSumsLinks) {
  const auto m = sample_run(false);
  const auto routers = m.derive_routers();
  ASSERT_EQ(routers.size(), m.groups * m.routers_per_group);
  double rl = 0, rg = 0;
  for (const auto& r : routers) {
    rl += r.local_traffic;
    rg += r.global_traffic;
  }
  EXPECT_DOUBLE_EQ(rl, m.total_local_traffic());
  EXPECT_DOUBLE_EQ(rg, m.total_global_traffic());
  EXPECT_EQ(routers[5].group, 5 / m.routers_per_group);
  EXPECT_EQ(routers[5].rank, 5 % m.routers_per_group);
}

TEST(Metrics, JsonRoundTripUnsampled) {
  const auto m = sample_run(false);
  const auto back = RunMetrics::from_json(m.to_json());
  EXPECT_EQ(back.groups, m.groups);
  EXPECT_EQ(back.workload, m.workload);
  EXPECT_EQ(back.terminals.size(), m.terminals.size());
  EXPECT_DOUBLE_EQ(back.total_local_traffic(), m.total_local_traffic());
  EXPECT_DOUBLE_EQ(back.end_time, m.end_time);
  EXPECT_EQ(back.total_packets_finished(), m.total_packets_finished());
  for (std::size_t i = 0; i < m.terminals.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.terminals[i].avg_latency(),
                     m.terminals[i].avg_latency());
  }
}

TEST(Metrics, FileRoundTripSampled) {
  const auto m = sample_run(true);
  ASSERT_TRUE(m.has_time_series());
  const std::string path =
      (dv::testing::test_temp_dir() / "dv_metrics_test.json")
          .string();
  m.save(path);
  const auto back = RunMetrics::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.has_time_series());
  EXPECT_EQ(back.local_traffic_ts.frames(), m.local_traffic_ts.frames());
  // Spot-check a frame.
  const std::size_t f = m.local_traffic_ts.frames() / 2;
  for (std::size_t e = 0; e < m.local_traffic_ts.entities(); e += 7) {
    EXPECT_FLOAT_EQ(back.local_traffic_ts.at(f, e),
                    m.local_traffic_ts.at(f, e));
  }
}

TEST(Metrics, TextSaveReplacesAnExistingRunAtomically) {
  // The text export is published like a packed run (tmp + fsync +
  // rename): overwriting a run leaves the new content under the final
  // name and no temporary file beside it.
  const auto dir =
      dv::testing::test_temp_dir() / "dv_metrics_text_overwrite";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "run.json").string();
  const auto first = sample_run(true);
  const auto second = sample_run(false);
  EXPECT_EQ(first.save(path), run_content_uid(first));
  EXPECT_EQ(second.save(path), run_content_uid(second));
  EXPECT_EQ(run_content_uid(RunMetrics::load(path)), run_content_uid(second));
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename(), "run.json");
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Metrics, SampledSeriesRangeOps) {
  SampledSeries s(3, 10.0);
  s.push_frame({1.0f, 2.0f, 3.0f});
  s.push_frame({4.0f, 5.0f, 6.0f});
  s.push_frame({7.0f, 8.0f, 9.0f});
  EXPECT_EQ(s.frames(), 3u);
  EXPECT_DOUBLE_EQ(s.frame_total(1), 15.0);
  const PrefixSeries p(s);
  EXPECT_DOUBLE_EQ(p.range_sum(0, 0, 3), 12.0);
  EXPECT_DOUBLE_EQ(p.range_sum(2, 1, 2), 6.0);
  EXPECT_THROW(s.push_frame({1.0f}), Error);
  EXPECT_THROW(p.range_sum(0, 2, 1), Error);
}

TEST(Metrics, AllZeroSeriesKeepsNoPrefixAndSumsToPositiveZero) {
  const auto s = SampledSeries::adopt(3, 10.0, std::vector<float>(12, 0.0f));
  const PrefixSeries p(s);
  EXPECT_TRUE(p.all_zero());
  EXPECT_EQ(p.frames(), 4u);
  EXPECT_EQ(p.entities(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    for (std::size_t f0 = 0; f0 <= 4; ++f0) {
      for (std::size_t f1 = f0; f1 <= 4; ++f1) {
        const double v = p.range_sum(e, f0, f1);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(v), 0u);  // +0.0, sign clear
      }
    }
  }
  EXPECT_THROW(p.range_sum(3, 0, 1), Error);
  EXPECT_THROW(p.range_sum(0, 0, 5), Error);
}

TEST(Metrics, NegativeZeroSeriesIsNotZero) {
  // -0.0 has a set sign bit: it is a stored value, not a zero, in the
  // prefix test as in the .dvr bitmap and the uid.
  std::vector<float> data(12, 0.0f);
  data[7] = -0.0f;
  const auto s = SampledSeries::adopt(3, 10.0, data);
  const PrefixSeries p(s);
  EXPECT_FALSE(p.all_zero());
  // The dense sum still starts from +0.0, so it reads +0.0.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.range_sum(1, 0, 4)), 0u);
}

TEST(Metrics, CsvExportShapes) {
  const auto m = sample_run(false);
  const auto links = m.to_csv("local_links");
  EXPECT_EQ(links.rows.size(), m.local_links.size());
  EXPECT_EQ(links.header.size(), 9u);
  const auto terms = m.to_csv("terminals");
  EXPECT_EQ(terms.rows.size(), m.terminals.size());
  const auto routers = m.to_csv("routers");
  EXPECT_EQ(routers.rows.size(), m.groups * m.routers_per_group);
  EXPECT_THROW(m.to_csv("bogus"), Error);
}

TEST(RunStore, AddListLoadRemove) {
  const auto dir =
      (dv::testing::test_temp_dir() / "dv_run_store_test").string();
  std::filesystem::remove_all(dir);
  {
    RunStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    const auto run = sample_run(false);
    const auto name = store.add(run);
    EXPECT_EQ(name, "uniform_random_adaptive_contiguous");
    EXPECT_TRUE(store.contains(name));
    // Duplicate names get suffixed.
    const auto name2 = store.add(run);
    EXPECT_EQ(name2, "uniform_random_adaptive_contiguous_2");
    const auto loaded = store.load(name);
    EXPECT_EQ(loaded.workload, run.workload);
    EXPECT_DOUBLE_EQ(loaded.end_time, run.end_time);
  }
  {
    // The index persists across store instances.
    RunStore reopened(dir);
    EXPECT_EQ(reopened.size(), 2u);
    reopened.remove("uniform_random_adaptive_contiguous_2");
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_THROW(reopened.load("gone"), Error);
    EXPECT_THROW(reopened.remove("gone"), Error);
  }
  RunStore final_check(dir);
  EXPECT_EQ(final_check.size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(RunStore, CustomNameAndMetadata) {
  const auto dir =
      (dv::testing::test_temp_dir() / "dv_run_store_test2").string();
  std::filesystem::remove_all(dir);
  RunStore store(dir);
  const auto run = sample_run(true);
  store.add(run, "my_run");
  ASSERT_EQ(store.list().size(), 1u);
  const auto& info = store.list()[0];
  EXPECT_EQ(info.name, "my_run");
  EXPECT_EQ(info.terminals, 72u);
  EXPECT_TRUE(info.sampled);
  EXPECT_GT(info.end_time, 0.0);
  std::filesystem::remove_all(dir);
}

/// The error opening a store whose index.json holds `entry`, or "" when it
/// opens.
std::string open_error(const std::string& dir, const std::string& entry) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream((std::filesystem::path(dir) / "index.json").string())
      << "[\n" << entry << "\n]\n";
  try {
    RunStore store(dir);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(RunStore, OpenRejectsAnEntryThatIsNotPacked) {
  const auto root = dv::testing::test_temp_dir();
  // Older binaries wrote "format": "text" for NAME.json runs, and read an
  // entry with no format as text.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"format_text",
       R"({"name": "old_run", "workload": "uniform_random", )"
       R"("format": "text", "uid": "1"})"},
      {"format_missing",
       R"({"name": "old_run", "workload": "uniform_random", "uid": "1"})"},
  };
  for (const auto& [sub, entry] : cases) {
    const auto dir = (root / ("dv_run_store_open_" + sub)).string();
    const std::string err = open_error(dir, entry);
    const std::filesystem::path base(dir);
    const auto index = (base / "index.json").string();
    const auto text_run = (base / "old_run.json").string();
    EXPECT_EQ(err.rfind(index + ": ", 0), 0u) << sub << ": " << err;
    EXPECT_NE(err.find("entry 'old_run'"), std::string::npos) << err;
    EXPECT_NE(err.find("dragonviz store --dir NEW --action add --run " +
                       text_run + " --name old_run"),
              std::string::npos)
        << err;
    std::filesystem::remove_all(dir);
  }
  // The format every store writes opens.
  const auto ok = (root / "dv_run_store_open_dvr").string();
  EXPECT_EQ(open_error(ok, R"({"name": "new_run", "format": "dvr"})"), "");
  std::filesystem::remove_all(ok);
}

TEST(Metrics, TerminalAverages) {
  TerminalMetrics t;
  EXPECT_DOUBLE_EQ(t.avg_latency(), 0.0);  // no division by zero
  t.packets_finished = 4;
  t.sum_latency = 100.0;
  t.sum_hops = 10.0;
  EXPECT_DOUBLE_EQ(t.avg_latency(), 25.0);
  EXPECT_DOUBLE_EQ(t.avg_hops(), 2.5);
}

}  // namespace
}  // namespace dv::metrics
