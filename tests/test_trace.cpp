// Trace record/replay tests (binary + JSON round trips, validation).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "trace/trace.hpp"
#include "helpers.hpp"

namespace dv::trace {
namespace {

workload::Config cfg() {
  workload::Config c;
  c.ranks = 32;
  c.total_bytes = 1 << 20;
  c.window = 5.0e4;
  c.seed = 11;
  return c;
}

std::string tmp_path(const char* name) {
  return (dv::testing::test_temp_dir() / name).string();
}

TEST(Trace, RecordValidates) {
  const auto msgs = workload::generate_amg(cfg());
  const Trace t = record("amg", 32, msgs);
  EXPECT_EQ(t.app, "amg");
  EXPECT_EQ(t.total_bytes(), workload::total_bytes(msgs));
}

TEST(Trace, BinaryRoundTrip) {
  const Trace t = record("minife", 32, workload::generate_minife(cfg()));
  const std::string path = tmp_path("dv_trace_test.dvtr");
  save_binary(t, path);
  const Trace back = load_binary(path);
  EXPECT_EQ(back, t);
  std::remove(path.c_str());
}

TEST(Trace, ReplayEqualsDirectGeneration) {
  // The trace-driven path must produce byte-identical netsim messages.
  const auto topo = topo::Dragonfly::canonical(2);
  const auto placement = placement::place_jobs(
      topo, {{"job", 32, placement::Policy::kRandomGroup}}, 9);
  const auto msgs = workload::generate_amg(cfg());
  const Trace t = record("amg", 32, msgs);

  const auto direct = workload::map_to_terminals(msgs, placement, 0);
  const auto replayed = workload::map_to_terminals(t.messages, placement, 0);
  ASSERT_EQ(direct.size(), replayed.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].src_terminal, replayed[i].src_terminal);
    EXPECT_EQ(direct[i].dst_terminal, replayed[i].dst_terminal);
    EXPECT_EQ(direct[i].bytes, replayed[i].bytes);
  }
}

TEST(Trace, SummaryStatistics) {
  auto c = cfg();
  c.ranks = 64;
  const Trace amg = record("amg", 64, workload::generate_amg(c));
  const auto s = summarize(amg);
  EXPECT_EQ(s.messages, amg.messages.size());
  EXPECT_EQ(s.bytes, amg.total_bytes());
  EXPECT_EQ(s.active_ranks, 64u);
  EXPECT_GT(s.avg_degree, 3.0);
  EXPECT_EQ(s.max_degree, 6u);  // 3-D halo interior
  EXPECT_GE(s.t_last, s.t_first);
  // AMG is balanced: the busiest decile carries roughly its fair share.
  EXPECT_LT(s.top_decile_share, 0.25);

  const Trace amr = record("amr", 64, workload::generate_amr_boxlib(c));
  EXPECT_GT(summarize(amr).top_decile_share, 0.5);  // skewed by design
}

TEST(Trace, CorruptFilesRejected) {
  const std::string path = tmp_path("dv_trace_corrupt.dvtr");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTATRACE___garbage";
  }
  EXPECT_THROW(load_binary(path), Error);
  std::remove(path.c_str());
  EXPECT_THROW(load_binary("/nonexistent/path/x.dvtr"), Error);
}

TEST(Trace, ValidationCatchesBadMessages) {
  Trace t;
  t.app = "x";
  t.ranks = 4;
  t.messages.push_back({0, 9, 100, 0.0});  // dst out of range
  EXPECT_THROW(validate(t), Error);
  t.messages[0] = {0, 1, 0, 0.0};  // zero bytes
  EXPECT_THROW(validate(t), Error);
  t.messages[0] = {0, 1, 10, -5.0};  // negative time
  EXPECT_THROW(validate(t), Error);
  t.messages[0] = {0, 1, 10, 5.0};
  EXPECT_NO_THROW(validate(t));
}

}  // namespace
}  // namespace dv::trace
