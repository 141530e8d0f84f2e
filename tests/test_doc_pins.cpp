// Pins every kind of document the writers emit, byte for byte: the SVG of
// each preset on a DF(3) run (with and without a time window and a brush),
// the matrix, comparison, detail, timeline and full-session SVGs, one HTML
// report, the run's text export, and the stored run files: the .dvr and
// text export of a sampled, faulted DF(2) run, the .dvr of a sampled
// FatTree(4) run, and the four CSV exports of the faulted run. Each is
// reduced to its FNV-1a hash; a changed hash means some byte of the
// document changed. The golden-file tests show *where* a view changed;
// these show *that* anything did.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "core/comparison.hpp"
#include "core/matrix_view.hpp"
#include "core/presets.hpp"
#include "core/projection.hpp"
#include "core/report.hpp"
#include "core/views.hpp"
#include "fault/fault.hpp"
#include "netsim/network.hpp"
#include "util/rng.hpp"
#include "csv_reader.hpp"
#include "helpers.hpp"

namespace dv::core {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Pin {
  const char* name;
  std::uint64_t hash;
};

void expect_pinned(const Pin& pin, const std::string& doc) {
  EXPECT_EQ(fnv1a(doc), pin.hash)
      << "{\"" << pin.name << "\", " << fnv1a(doc) << "ull},  // "
      << doc.size() << " bytes";
}

/// Two jobs on DF(3) (342 terminals), packet backend, sampled.
const metrics::RunMetrics& df3_run(routing::Algo algo) {
  auto make = [](routing::Algo a) {
    app::ExperimentConfig cfg;
    cfg.dragonfly_p = 3;
    cfg.jobs.push_back({"uniform_random", 96,
                        placement::Policy::kRandomRouter, 0});
    cfg.jobs.push_back({"nearest_neighbor", 96,
                        placement::Policy::kContiguous, 0});
    cfg.routing = a;
    cfg.window = 1.0e5;
    cfg.synthetic_bytes_per_rank = 16 * 1024;
    cfg.sample_dt = 5.0e3;
    cfg.seed = 5;
    return app::run_experiment(cfg).run;
  };
  static const metrics::RunMetrics adaptive = make(routing::Algo::kAdaptive);
  static const metrics::RunMetrics minimal = make(routing::Algo::kMinimal);
  return algo == routing::Algo::kAdaptive ? adaptive : minimal;
}

TEST(DocPin, PresetProjections) {
  // Per preset: plain, windowed, windowed + brushed, brushed.
  const std::vector<Pin> pins = {
      {"fig4", 16544251047256555039ull},
      {"fig4+w", 16784229778667869246ull},
      {"fig4+w+b", 13488462783469730460ull},
      {"fig4+b", 6247554929266398896ull},
      {"fig5a", 4791099492219515719ull},
      {"fig5a+w", 8358565080456276936ull},
      {"fig5a+w+b", 14395886499574296105ull},
      {"fig5a+b", 171210021538330230ull},
      {"fig7", 12113718097721909303ull},
      {"fig7+w", 7635175890748156539ull},
      {"fig7+w+b", 7635175890748156539ull},
      {"fig7+b", 12113718097721909303ull},
      {"fig9", 15810974147694071078ull},
      {"fig9+w", 4987706773440604905ull},
      {"fig9+w+b", 13112180873946398281ull},
      {"fig9+b", 6981720137829633232ull},
      {"fig13", 10319407004526953901ull},
      {"fig13+w", 2821394804127118730ull},
      {"fig13+w+b", 16460062968080421811ull},
      {"fig13+b", 7921895359898024998ull},
      {"overview", 18193627436241176776ull},
      {"overview+w", 4918391336509351009ull},
      {"overview+w+b", 4918391336509351009ull},
      {"overview+b", 18193627436241176776ull},
      {"interactive", 7298834272088947650ull},
      {"interactive+w", 1327281436386629967ull},
      {"interactive+w+b", 12608269289450415725ull},
      {"interactive+b", 2111551761777594303ull},
      {"faults", 8763966724236089370ull},
      {"faults+w", 2445445415324039046ull},
      {"faults+w+b", 5459244687605641564ull},
      {"faults+b", 4013965008662091055ull},
  };
  const auto& run = df3_run(routing::Algo::kAdaptive);
  const auto names = preset_names();
  ASSERT_EQ(pins.size(), names.size() * 4);
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    AnalysisSession session(DataSet(run), preset(names[i]));
    expect_pinned(pins[4 * i], session.projection().to_svg(800));
    session.select_time_range(run.end_time * 0.25, run.end_time * 0.75);
    expect_pinned(pins[4 * i + 1], session.projection().to_svg(800));
    session.brush("avg_latency", 0.0, 2.0e3);
    expect_pinned(pins[4 * i + 2], session.projection().to_svg(800));
    session.clear_time_range();
    expect_pinned(pins[4 * i + 3], session.projection().to_svg(800));
  }
}

TEST(DocPin, OtherViews) {
  const auto& run = df3_run(routing::Algo::kAdaptive);
  const DataSet data(run);
  const DataSet minimal(df3_run(routing::Algo::kMinimal));

  const MatrixView matrix(data, Entity::kLocalLink, "router");
  expect_pinned({"matrix", 16335035347717078641ull}, matrix.to_svg(700, "local links"));

  const ComparisonView cmp({&minimal, &data}, preset("fig7"),
                           {"minimal", "adaptive"});
  expect_pinned({"comparison", 13228647987164317183ull}, cmp.to_svg(520));

  DetailView detail(data);
  detail.brush("data_size", 1.0, 1e18);
  expect_pinned({"detail", 10021802307217595484ull}, detail.to_svg());

  TimelineView timeline(data);
  timeline.select_range(run.end_time * 0.2, run.end_time * 0.6);
  expect_pinned({"timeline", 16427907836627662581ull}, timeline.to_svg());

  AnalysisSession session(DataSet(run), preset("fig4"));
  session.select_time_range(run.end_time * 0.1, run.end_time * 0.9);
  session.select_aggregate(1, 0);
  expect_pinned({"session", 7793496338957131015ull}, session.to_svg());
}

TEST(DocPin, ReportHtml) {
  const auto& run = df3_run(routing::Algo::kAdaptive);
  const DataSet data(run);
  const DataSet minimal(df3_run(routing::Algo::kMinimal));
  const ProjectionView view(data, preset("fig5a"));
  const ComparisonView cmp({&minimal, &data}, preset("fig7"),
                           {"minimal", "adaptive"});
  ReportBuilder report("DF(3) <pinned> & \"quoted\"");
  report.note("Setup", "Two jobs on DF(3)")
      .run_summary(data)
      .projection(view, "Groups by job")
      .comparison(cmp, "Minimal vs adaptive")
      .detail(DetailView(data), "Detail")
      .timeline(TimelineView(data), "Timeline");
  expect_pinned({"report", 17374409713621307403ull}, report.html());
}

TEST(DocPin, TextExport) {
  const auto path = (dv::testing::test_temp_dir() / "run.json").string();
  df3_run(routing::Algo::kAdaptive).save(path);
  std::ifstream is(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  expect_pinned({"text_export", 2126601003189390351ull}, text);
}

/// DF(2), sampled, under a fault plan whose last router never recovers,
/// so packets exhaust their retry budget and drop: every fault column and
/// the per-router tallies carry non-zero values.
const metrics::RunMetrics& faulted_df2_run() {
  static const metrics::RunMetrics run = [] {
    app::ExperimentConfig cfg;
    cfg.dragonfly_p = 2;
    cfg.jobs.push_back({"uniform_random", 0,
                        placement::Policy::kContiguous, 0});
    cfg.window = 4.0e4;
    cfg.synthetic_bytes_per_rank = 8 * 1024;
    cfg.sample_dt = 2.0e3;
    cfg.seed = 3;
    cfg.faults = fault::FaultPlan::parse(
        "link:g0->g1@5000:40000\n"
        "router:g2.r1@10000:60000\n"
        "router:g3.r0@20000\n");
    return app::run_experiment(cfg).run;
  }();
  return run;
}

/// FatTree(4) (16 hosts), packet backend, random traffic, sampled.
metrics::RunMetrics fat_tree_run() {
  netsim::Params p;
  p.packet_size = 512;
  p.local_latency = 100.0;
  p.global_latency = 100.0;
  p.global_bandwidth = p.local_bandwidth;
  netsim::Network net(topo::FatTree(4), p, 4);
  const std::uint32_t hosts = net.fabric().num_terminals();
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(hosts));
    auto dst = src;
    while (dst == src) dst = static_cast<std::uint32_t>(rng.next_below(hosts));
    net.add_message({src, dst, 256 + rng.next_below(4096),
                     rng.next_double() * 20000.0, 0});
  }
  net.enable_sampling(2.0e3);
  return net.run();
}

std::string saved_bytes(const metrics::RunMetrics& run, const char* name) {
  const auto path = (dv::testing::test_temp_dir() / name).string();
  run.save(path);
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

TEST(DocPin, StoredRunFiles) {
  const auto& faulted = faulted_df2_run();
  ASSERT_TRUE(faulted.has_time_series());
  ASSERT_FALSE(faulted.router_drops.empty());
  std::uint64_t drops = 0;
  for (const std::uint64_t d : faulted.router_drops) drops += d;
  ASSERT_GT(drops, 0u) << "the fault plan must drop packets";
  double link_down = 0.0, term_down = 0.0;
  std::uint64_t link_retries = 0, link_drops = 0, rerouted = 0, dropped = 0;
  for (const auto* links : {&faulted.local_links, &faulted.global_links}) {
    for (const auto& l : *links) {
      link_down += l.downtime;
      link_retries += l.retries;
      link_drops += l.pkts_dropped;
    }
  }
  for (const auto& t : faulted.terminals) {
    term_down += t.downtime;
    rerouted += t.packets_rerouted;
    dropped += t.packets_dropped;
  }
  ASSERT_GT(link_down, 0.0);
  ASSERT_GT(link_retries, 0u);
  ASSERT_GT(link_drops, 0u);
  ASSERT_GT(term_down, 0.0);
  ASSERT_GT(rerouted, 0u);
  ASSERT_GT(dropped, 0u);
  expect_pinned({"faulted.dvr", 17757607078078903426ull},
                saved_bytes(faulted, "faulted.dvr"));
  expect_pinned({"faulted.json", 4587240848652674102ull},
                saved_bytes(faulted, "faulted.json"));

  const auto fat_tree = fat_tree_run();
  ASSERT_TRUE(fat_tree.has_time_series());
  expect_pinned({"fat_tree.dvr", 17403358184329813544ull},
                saved_bytes(fat_tree, "fat_tree.dvr"));
}

TEST(DocPin, CsvExports) {
  const auto& run = faulted_df2_run();
  const std::vector<Pin> pins = {
      {"local_links", 9469181402072488862ull},
      {"global_links", 16456528006307207229ull},
      {"terminals", 12320812725225293197ull},
      {"routers", 4760695812086998034ull},
  };
  for (const Pin& pin : pins) {
    expect_pinned(pin, dv::testing::to_csv_string(run.to_csv(pin.name)));
  }
}

}  // namespace
}  // namespace dv::core
