// Experiment-runner and CLI integration tests: the full pipeline from a
// declarative config (or argv) through simulation to files on disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "app/cli.hpp"
#include "app/runner.hpp"
#include "core/projection.hpp"
#include "fault/fault.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_store.hpp"
#include "util/str.hpp"
#include "workload/workload.hpp"
#include "helpers.hpp"
#include "profile_reader.hpp"

namespace dv::app {
namespace {

namespace fs = std::filesystem;

std::string tmp(const char* name) {
  return (dv::testing::test_temp_dir() / name).string();
}

int cli(std::vector<std::string> args) {
  args.insert(args.begin(), "dragonviz");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return run_cli(static_cast<int>(argv.size()), argv.data());
}

// ----------------------------------------------------------------- runner

TEST(Runner, SingleSyntheticJob) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.window = 2.0e4;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.topo.num_terminals(), 72u);
  EXPECT_GT(result.events, 0u);
  EXPECT_GT(result.run.total_injected(), 0.0);
  EXPECT_EQ(result.run.workload, "uniform_random");
  EXPECT_EQ(result.run.placement, "contiguous");
  // All terminals belong to the single job.
  for (const auto& t : result.run.terminals) EXPECT_EQ(t.job, 0);
}

TEST(Runner, AppJobUsesTableIDefaults) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 4;  // 1,056 terminals, enough for 1,056 >= amg? no:
  // amg default is 1728 ranks, so give explicit ranks for the small net.
  cfg.jobs = {{"amg", 512, placement::Policy::kRandomGroup, 4u << 20}};
  cfg.window = 1.0e5;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.placement.terminals[0].size(), 512u);
  EXPECT_NEAR(result.run.total_injected(), 4.0 * (1 << 20), 0.2 * (1 << 20));
}

TEST(Runner, HybridLabel) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 8, placement::Policy::kRandomRouter, 1 << 18},
              {"nearest_neighbor", 8, placement::Policy::kRandomGroup, 1 << 18}};
  EXPECT_EQ(cfg.placement_label(), "hybrid(random_router,random_group)");
  cfg.window = 2.0e4;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.run.placement, "hybrid(random_router,random_group)");
  EXPECT_EQ(result.run.workload, "uniform_random+nearest_neighbor");
  EXPECT_EQ(result.run.job_names.size(), 2u);
}

TEST(Runner, TrafficScaleScalesVolume) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 2 << 20}};
  cfg.window = 2.0e4;
  const auto full = run_experiment(cfg);
  cfg.traffic_scale = 0.5;
  const auto half = run_experiment(cfg);
  EXPECT_NEAR(half.run.total_injected(), full.run.total_injected() * 0.5,
              full.run.total_injected() * 0.15);
}

TEST(Runner, Validation) {
  ExperimentConfig cfg;
  EXPECT_THROW(run_experiment(cfg), Error);  // no jobs
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"bogus_workload", 8, placement::Policy::kContiguous, 1024}};
  EXPECT_THROW(run_experiment(cfg), Error);
  cfg.jobs = {{"uniform_random", 9999, placement::Policy::kContiguous, 1024}};
  EXPECT_THROW(run_experiment(cfg), Error);  // does not fit
  cfg.jobs = {{"uniform_random", 8, placement::Policy::kContiguous, 1024}};
  cfg.traffic_scale = 0.0;
  EXPECT_THROW(run_experiment(cfg), Error);
  cfg.traffic_scale = 1.0;
  cfg.parallel = 2;  // the parallel engine is gone
  EXPECT_THROW(run_experiment(cfg), Error);
  cfg.parallel = 1;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(Runner, ZeroLengthWindowRejected) {
  // Regression: window = 0 used to slip through and inject every message at
  // t = 0; it must be rejected up front with an explanation.
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 8, placement::Policy::kContiguous, 1024}};
  cfg.window = 0.0;
  try {
    (void)run_experiment(cfg);
    FAIL() << "zero-length window was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("window must be positive"),
              std::string::npos)
        << e.what();
  }
  cfg.window = -5.0;
  EXPECT_THROW(run_experiment(cfg), Error);
}

TEST(Runner, FaultPlanFlowsThroughExperiment) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.window = 2.0e4;
  cfg.faults = fault::FaultPlan::parse("router:g1.r0@0:15000");
  const auto result = run_experiment(cfg);
  ASSERT_EQ(result.run.router_downtime.size(),
            result.topo.num_routers());
  EXPECT_DOUBLE_EQ(result.run.router_downtime[result.topo.router_id(1, 0)],
                   15000.0);
}

// ----------------------------------------------------------------- CLI

TEST(Cli, SimRenderExportInfoPipeline) {
  const std::string run_path = tmp("dv_cli_run.json");
  const std::string spec_path = tmp("dv_cli_spec.json");
  const std::string svg_path = tmp("dv_cli_view.svg");
  const std::string csv_path = tmp("dv_cli_terms.csv");

  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--sample-dt", "2000", "--out", run_path}),
            0);
  ASSERT_TRUE(fs::exists(run_path));

  {
    std::ofstream os(spec_path);
    os << R"({ project: "global_link", aggregate: "router_rank",
               vmap: { color: "sat_time", size: "traffic" } })";
  }
  EXPECT_EQ(cli({"render", "--run", run_path, "--spec", spec_path, "--out",
                 svg_path}),
            0);
  ASSERT_TRUE(fs::exists(svg_path));
  EXPECT_GT(fs::file_size(svg_path), 500u);

  EXPECT_EQ(cli({"export", "--run", run_path, "--entity", "terminals",
                 "--out", csv_path}),
            0);
  ASSERT_TRUE(fs::exists(csv_path));

  EXPECT_EQ(cli({"info", "--run", run_path}), 0);

  const std::string ui_path = tmp("dv_cli_ui.svg");
  EXPECT_EQ(cli({"session", "--run", run_path, "--spec", spec_path, "--out",
                 ui_path, "--window", "0:10000"}),
            0);
  ASSERT_TRUE(fs::exists(ui_path));
  // An empty or inverted time range fails instead of rendering unranged.
  EXPECT_THROW(cli({"session", "--run", run_path, "--spec", spec_path,
                    "--out", ui_path, "--window", "5000:3000"}),
               Error);

  for (const auto& p : {run_path, spec_path, svg_path, csv_path, ui_path}) {
    std::remove(p.c_str());
  }
}

TEST(Cli, SimOutputFormatFollowsExtension) {
  const std::string dvr = tmp("dv_cli_fmt.dvr"), text = tmp("dv_cli_fmt.json");
  const std::string dvr_svg = tmp("dv_cli_fmt_dvr.svg");
  const std::string text_svg = tmp("dv_cli_fmt_text.svg");
  for (const auto& out : {dvr, text}) {
    EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                   "20000", "--sample-dt", "2000", "--out", out}),
              0);
  }
  EXPECT_TRUE(metrics::is_dvr_file(dvr));
  EXPECT_FALSE(metrics::is_dvr_file(text));
  EXPECT_EQ(cli({"render", "--run", dvr, "--spec", "preset:fig4", "--out",
                 dvr_svg}),
            0);
  EXPECT_EQ(cli({"render", "--run", text, "--spec", "preset:fig4", "--out",
                 text_svg}),
            0);
  const auto slurp = [](const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string svg = slurp(dvr_svg);
  EXPECT_FALSE(svg.empty());
  EXPECT_EQ(svg, slurp(text_svg));
  for (const auto& p : {dvr, text, dvr_svg, text_svg}) std::remove(p.c_str());
}

TEST(Cli, FlowSimReportsEpochs) {
  const std::string out = tmp("dv_cli_flow_epochs.dvr");
  ::testing::internal::CaptureStdout();
  const int rc = cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                      "20000", "--backend", "flow", "--out", out});
  const std::string printed = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(printed.find(" epochs, "), std::string::npos) << printed;
  EXPECT_EQ(printed.find(" events, "), std::string::npos) << printed;
  std::remove(out.c_str());
}

TEST(Cli, PackInspectStoreHonourProfile) {
  const std::string text = tmp("dv_cli_prof_run.json");
  const std::string packed = tmp("dv_cli_prof_run.dvr");
  const std::string store_dir = tmp("dv_cli_prof_store");
  const std::string pack_prof = tmp("dv_cli_prof_pack.profile.json");
  const std::string inspect_prof = tmp("dv_cli_prof_inspect.profile.json");
  const std::string store_prof = tmp("dv_cli_prof_store.profile.json");
  fs::remove_all(store_dir);
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--out", text}),
            0);
  EXPECT_EQ(cli({"pack", "--in", text, "--out", packed,
                 "--profile=" + pack_prof}),
            0);
  EXPECT_TRUE(metrics::is_dvr_file(packed));
  const auto phases = [](const std::string& path) {
    std::vector<std::string> names;
    for (const auto& p : dv::testing::load_profile(path).phases) {
      names.push_back(p.path);
    }
    return names;
  };
  if (obs::kEnabled) {
    const auto pack_phases = phases(pack_prof);
    EXPECT_NE(std::find(pack_phases.begin(), pack_phases.end(), "load"),
              pack_phases.end());
    EXPECT_NE(std::find(pack_phases.begin(), pack_phases.end(), "write"),
              pack_phases.end());
  }
  EXPECT_EQ(cli({"inspect", "--run", packed, "--profile=" + inspect_prof}),
            0);
  EXPECT_TRUE(fs::exists(inspect_prof));
  EXPECT_EQ(cli({"store", "--dir", store_dir, "--action", "add", "--run",
                 packed, "--name", "p", "--profile=" + store_prof}),
            0);
  EXPECT_TRUE(fs::exists(store_prof));
  // A bare --profile is named after the command inside its directory.
  EXPECT_EQ(cli({"store", "--dir", store_dir, "--profile"}), 0);
  EXPECT_TRUE(fs::exists(fs::path(store_dir) / "store.profile.json"));
  fs::remove_all(store_dir);
  for (const auto& p :
       {text, packed, pack_prof, inspect_prof, store_prof}) {
    std::remove(p.c_str());
  }
}

TEST(Cli, CompareProducesSharedScaleSvg) {
  const std::string a = tmp("dv_cli_a.json"), b = tmp("dv_cli_b.json");
  const std::string spec_path = tmp("dv_cli_cmp_spec.json");
  const std::string out = tmp("dv_cli_cmp.svg");
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--routing",
                 "minimal", "--window", "20000", "--out", a}),
            0);
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--routing",
                 "adaptive", "--window", "20000", "--out", b}),
            0);
  {
    std::ofstream os(spec_path);
    os << R"({ project: "terminal", aggregate: "workload",
               vmap: { color: "avg_latency", size: "avg_hops" } })";
  }
  EXPECT_EQ(cli({"compare", "--run", a, "--run", b, "--spec", spec_path,
                 "--out", out}),
            0);
  ASSERT_TRUE(fs::exists(out));
  for (const auto& p : {a, b, spec_path, out}) std::remove(p.c_str());
}

TEST(Cli, JobSpecParsing) {
  const std::string run_path = tmp("dv_cli_jobspec.json");
  // workload:ranks:policy:bytes form.
  EXPECT_EQ(cli({"sim", "--p", "2", "--job",
                 "nearest_neighbor:12:random_router:262144", "--window",
                 "20000", "--out", run_path}),
            0);
  const auto run = metrics::RunMetrics::load(run_path);
  EXPECT_EQ(run.placement, "random_router");
  int placed = 0;
  for (const auto& t : run.terminals) placed += (t.job == 0);
  EXPECT_EQ(placed, 12);
  std::remove(run_path.c_str());
}

TEST(Cli, FaultFlagsAndZeroWindow) {
  const std::string run_path = tmp("dv_cli_fault_run.json");
  const std::string plan_path = tmp("dv_cli_fault_plan.txt");
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--fault", "link:g0->g1@2000:6000", "--fault",
                 "router:g2.r1@1000:5000", "--out", run_path}),
            0);
  {
    const auto run = metrics::RunMetrics::load(run_path);
    ASSERT_FALSE(run.router_downtime.empty());
    EXPECT_EQ(cli({"info", "--run", run_path}), 0);
  }
  // Same plan via a --faults file; inline --fault specs append to it.
  {
    std::ofstream os(plan_path);
    os << "# test plan\nlink:g0->g1@2000:6000\n";
  }
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--faults", plan_path, "--fault",
                 "router:g2.r1@1000:5000", "--out", run_path}),
            0);
  EXPECT_THROW(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                    "20000", "--fault", "bogus", "--out", run_path}),
               Error);
  // Zero-length injection window is rejected at the CLI boundary too.
  EXPECT_THROW(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                    "0", "--out", run_path}),
               Error);
  std::remove(run_path.c_str());
  std::remove(plan_path.c_str());
}

TEST(Cli, TraceRecordReplayPipeline) {
  const std::string trace_path = tmp("dv_cli_trace.dvtr");
  const std::string run_path = tmp("dv_cli_trace_run.json");
  EXPECT_EQ(cli({"trace-record", "--workload", "amg", "--ranks", "64",
                 "--bytes", "2097152", "--window", "50000", "--out",
                 trace_path}),
            0);
  ASSERT_TRUE(fs::exists(trace_path));
  EXPECT_EQ(cli({"trace-replay", "--trace", trace_path, "--p", "2",
                 "--placement", "random_router", "--routing", "adaptive",
                 "--sample-dt", "5000", "--out", run_path}),
            0);
  const auto run = metrics::RunMetrics::load(run_path);
  EXPECT_EQ(run.workload, "amg");
  EXPECT_EQ(run.placement, "random_router");
  EXPECT_TRUE(run.has_time_series());
  EXPECT_GT(run.total_injected(), 1.5e6);
  std::remove(trace_path.c_str());
  std::remove(run_path.c_str());
}

TEST(Cli, StoreAndFocusWorkflow) {
  const std::string run_path = tmp("dv_cli_store_run.json");
  const std::string spec_path = tmp("dv_cli_store_spec.json");
  const std::string svg_path = tmp("dv_cli_focus.svg");
  const std::string store_dir = tmp("dv_cli_store_dir");
  fs::remove_all(store_dir);

  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--out", run_path}),
            0);
  EXPECT_EQ(cli({"store", "--dir", store_dir, "--action", "add", "--run",
                 run_path, "--name", "probe"}),
            0);
  EXPECT_EQ(cli({"store", "--dir", store_dir}), 0);  // list
  // add stores the text run packed: a store holds .dvr runs only.
  const auto stored = (fs::path(store_dir) / "probe.dvr").string();
  ASSERT_TRUE(fs::exists(stored));
  EXPECT_TRUE(metrics::is_dvr_file(stored));

  {
    std::ofstream os(spec_path);
    os << R"({ project: "global_link", aggregate: "group_id", maxBins: 4,
               vmap: { color: "sat_time", size: "traffic" } })";
  }
  EXPECT_EQ(cli({"render", "--run", run_path, "--spec", spec_path,
                 "--focus", "0:0", "--out", svg_path}),
            0);
  ASSERT_TRUE(fs::exists(svg_path));

  EXPECT_EQ(cli({"store", "--dir", store_dir, "--action", "remove",
                 "--name", "probe"}),
            0);
  EXPECT_THROW(cli({"store", "--dir", store_dir, "--action", "bogus"}),
               Error);
  fs::remove_all(store_dir);
  for (const auto& p : {run_path, spec_path, svg_path}) std::remove(p.c_str());
}

TEST(Cli, ReportSingleAndComparison) {
  const std::string a = tmp("dv_cli_rep_a.json"), b = tmp("dv_cli_rep_b.json");
  const std::string spec_path = tmp("dv_cli_rep_spec.json");
  const std::string out = tmp("dv_cli_report.html");
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--out", a}),
            0);
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--routing",
                 "minimal", "--window", "20000", "--out", b}),
            0);
  {
    std::ofstream os(spec_path);
    os << R"({ project: "global_link", aggregate: "router_rank",
               vmap: { color: "sat_time", size: "traffic" } })";
  }
  EXPECT_EQ(cli({"report", "--run", a, "--spec", spec_path, "--out", out,
                 "--title", "single run"}),
            0);
  EXPECT_GT(fs::file_size(out), 2000u);
  EXPECT_EQ(cli({"report", "--run", a, "--run", b, "--spec", spec_path,
                 "--out", out}),
            0);
  EXPECT_GT(fs::file_size(out), 2000u);
  for (const auto& p : {a, b, spec_path, out}) std::remove(p.c_str());
}

TEST(Cli, TraceRecordValidation) {
  EXPECT_THROW(cli({"trace-record", "--workload", "amg", "--out",
                    tmp("z.dvtr")}),
               Error);  // missing ranks/bytes
  EXPECT_THROW(cli({"trace-replay", "--trace", "/nonexistent.dvtr", "--out",
                    tmp("z.json")}),
               Error);
}

/// The message of the Error a CLI call throws ("" when it succeeds).
std::string cli_error(std::vector<std::string> args) {
  try {
    cli(std::move(args));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, NumericFlagsNameTheFlagAndRejectBadValues) {
  const std::string out = tmp("dv_cli_numeric.dvr");
  const std::vector<std::string> base = {"sim", "--job", "uniform_random",
                                         "--window", "1e4", "--out", out};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return cli_error(args);
  };
  EXPECT_NE(with({"--p", "abc"})
                .find("sim: bad --p value: abc (expected an integer in [0, "
                      "4294967295])"),
            std::string::npos);
  // The whole token must parse: no trailing garbage.
  EXPECT_NE(with({"--p", "2x"})
                .find("sim: bad --p value: 2x (expected an integer in [0, "
                      "4294967295])"),
            std::string::npos);
  EXPECT_NE(with({"--p", "2", "--p", "3"}).find("--p given multiple times"),
            std::string::npos);
  EXPECT_EQ(with({"--p", "2"}), "");
  EXPECT_NE(cli_error({"sweep", "--store", tmp("dv_cli_numeric_store"),
                       "--window", "1e4x"})
                .find("sweep: bad --window value: 1e4x (expected a number)"),
            std::string::npos);
  std::remove(out.c_str());
}

TEST(Cli, UnknownOptionsFailBeforeAnyWork) {
  const std::string out = tmp("dv_cli_unknown_opt.dvr");
  const std::string profile = tmp("dv_cli_unknown_opt.profile.json");
  std::remove(out.c_str());
  const std::vector<std::string> base = {"sim", "--p", "2", "--job",
                                         "uniform_random", "--window",
                                         "1e4", "--out", out};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return cli_error(args);
  };
  // A flag the command does not take fails and names itself, whether it
  // never existed or was removed (--flow-stepping).
  EXPECT_NE(with({"--flow-stepping", "fixed"})
                .find("sim: unknown option --flow-stepping"),
            std::string::npos);
  EXPECT_NE(with({"--bogus", "1"}).find("sim: unknown option --bogus"),
            std::string::npos);
  // A removed bare flag fails as itself, wherever it stands, rather than
  // taking the next token as its value.
  EXPECT_NE(with({"--backend", "flow", "--flow-coarsen"})
                .find("sim: unknown option --flow-coarsen"),
            std::string::npos);
  EXPECT_NE(cli_error({"sim", "--flow-coarsen", "--p", "2", "--out", out})
                .find("sim: unknown option --flow-coarsen"),
            std::string::npos);
  EXPECT_NE(cli_error({"session", "--t0", "0", "--t1", "1"})
                .find("session: unknown option --t0"),
            std::string::npos);
  // Keys are per command: --store belongs to sweep, not sim.
  EXPECT_NE(with({"--store", tmp("dv_cli_unknown_store")})
                .find("sim: unknown option --store"),
            std::string::npos);
  EXPECT_FALSE(fs::exists(out)) << "a rejected command still simulated";
  // Stores and sweeps write .dvr only: their removed --format fails before
  // the store directory is created.
  const std::string store_dir = tmp("dv_cli_unknown_format_store");
  fs::remove_all(store_dir);
  EXPECT_NE(cli_error({"store", "--dir", store_dir, "--format", "text"})
                .find("store: unknown option --format"),
            std::string::npos);
  EXPECT_NE(cli_error({"sweep", "--store", store_dir, "--format", "text"})
                .find("sweep: unknown option --format"),
            std::string::npos);
  EXPECT_FALSE(fs::exists(store_dir)) << "a rejected command opened a store";
  // --profile is accepted by every command.
  EXPECT_EQ(with({"--profile", profile}), "");
  EXPECT_TRUE(fs::exists(out));
  std::remove(out.c_str());
  std::remove(profile.c_str());
}

TEST(Cli, StoreRepackIsABadAction) {
  const std::string store_dir = tmp("dv_cli_repack_store");
  fs::remove_all(store_dir);
  const std::string err = cli_error(
      {"store", "--dir", store_dir, "--action", "repack", "--name", "probe"});
  EXPECT_EQ(err, "store action must be list|add|remove");
  fs::remove_all(store_dir);
}

TEST(Cli, HelpBlocksListExactlyTheAcceptedKeys) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(cli({"--help"}), 0);
  const std::string help = ::testing::internal::GetCapturedStdout();
  // The keys of a help block's `--key` tokens: "--", then a letter or
  // digit, then any run of letters, digits and '-'.
  auto flags = [](const std::string& text) {
    auto key_char = [](char ch) {
      return (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
             ch == '-';
    };
    std::set<std::string> keys;
    for (std::size_t at = text.find("--"); at != std::string::npos;
         at = text.find("--", at + 1)) {
      std::size_t end = at + 2;
      if (end == text.size() || !key_char(text[end]) || text[end] == '-') {
        continue;
      }
      while (end < text.size() && key_char(text[end])) ++end;
      keys.insert(text.substr(at + 2, end - at - 2));
      at = end - 1;
    }
    return keys;
  };
  const auto commands = command_options();
  ASSERT_FALSE(commands.empty());
  for (const auto& c : commands) {
    SCOPED_TRACE(c.name);
    EXPECT_NE(help.find(c.help), std::string::npos) << "block not printed";
    const std::set<std::string> listed = flags(c.help);
    const std::set<std::string> accepted(c.keys.begin(), c.keys.end());
    EXPECT_EQ(accepted.size(), c.keys.size()) << "duplicate accepted key";
    EXPECT_EQ(listed, accepted);
  }
}

TEST(Cli, HelpListsEveryWorkload) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(cli({"--help"}), 0);
  const std::string help = ::testing::internal::GetCapturedStdout();
  const std::string label = "\nworkloads: ";
  const auto at = help.find(label);
  ASSERT_NE(at, std::string::npos);
  const auto begin = at + label.size();
  const std::string line = help.substr(begin, help.find('\n', begin) - begin);
  EXPECT_EQ(split(line, ' '), workload::workload_names());
}

// The ranges parse_int names for 32- and 64-bit unsigned flags.
const std::string kU32 = "an integer in [0, 4294967295]";
const std::string kU64 = "an integer in [0, 18446744073709551615]";

TEST(Cli, IntegerFlagsParseAsIntegers) {
  const std::string out = tmp("dv_cli_int.dvr");
  std::remove(out.c_str());
  const std::vector<std::string> sim = {"sim", "--job", "uniform_random",
                                        "--window", "1e4", "--out", out};
  const std::vector<std::string> record = {"trace-record", "--workload",
                                           "uniform_random", "--out", out};
  const struct {
    std::vector<std::string> base;
    std::string key, value, expected;
  } cases[] = {
      {sim, "p", "1.9", kU32},
      {sim, "p", "-1", kU32},
      {sim, "p", "1e1", kU32},
      {sim, "seed", "18446744073709551616", kU64},
      {sim, "fault-retry-budget", "4294967296", kU32},
      {record, "ranks", "8.9", kU32},
      {record, "bytes", "1e6", kU64},
      {{"sweep", "--store", tmp("dv_cli_int_store")}, "bytes-per-rank",
       "-4096", kU64},
      {{"render", "--run", out, "--spec", "preset:overview", "--out", out},
       "focus", "0:1.5", kU64},
      {sim, "job", "uniform_random:8.9", kU32},
  };
  for (const auto& c : cases) {
    std::vector<std::string> args = c.base;
    args.push_back("--" + c.key);
    args.push_back(c.value);
    // A compound flag's error names the bad field, not the whole token.
    const std::string field = c.value.substr(c.value.rfind(':') + 1);
    const std::string want = args[0] + ": bad --" + c.key + " value: " +
                             field + " (expected " + c.expected + ")";
    EXPECT_NE(cli_error(args).find(want), std::string::npos)
        << "wanted: " << want;
  }
  EXPECT_FALSE(fs::exists(out)) << "a rejected command still did its work";
  EXPECT_FALSE(fs::exists(tmp("dv_cli_int_store")));

  // A seed above 2^53 survives exactly (a double would round it to even).
  ASSERT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "1e4", "--seed", "9007199254740993", "--out", out}),
            0);
  EXPECT_EQ(metrics::RunMetrics::load(out).seed, 9007199254740993ull);
  std::remove(out.c_str());
}

TEST(Cli, CompoundFlagsParseWholeNumbers) {
  const std::string run = tmp("dv_cli_compound.dvr");
  const std::string svg = tmp("dv_cli_compound.svg");
  const std::string html = tmp("dv_cli_compound.html");
  const std::string store = tmp("dv_cli_compound_store");
  ASSERT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "2e4", "--sample-dt", "1000", "--out", run}),
            0);
  // `expected` names the field's kind: "a number" or an integer range.
  auto expect_bad = [](std::vector<std::string> args, const std::string& key,
                       const std::string& v,
                       const std::string& expected = "a number") {
    const std::string want = args[0] + ": bad --" + key + " value: " + v +
                             " (expected " + expected + ")";
    const std::string got = cli_error(args);
    EXPECT_NE(got.find(want), std::string::npos)
        << "wanted: " << want << "\ngot: " << got;
  };
  const std::vector<std::string> sim = {"sim", "--p", "2", "--window", "1e4",
                                        "--out", tmp("dv_cli_compound_b.dvr")};
  auto sim_job = [&](const std::string& job) {
    std::vector<std::string> args = sim;
    args.push_back("--job");
    args.push_back(job);
    return args;
  };
  // One non-number and one trailing-garbage value per compound field.
  for (const std::string v : {"abc", "4x"}) {
    SCOPED_TRACE(v);
    // --job workload:ranks[:policy[:bytes]]
    expect_bad(sim_job("uniform_random:" + v), "job", v, kU32);
    expect_bad(sim_job("uniform_random:8:contiguous:" + v), "job", v, kU64);
    // --window t0:t1 on every command that takes it.
    expect_bad({"render", "--run", run, "--spec", "preset:overview",
                "--window", v + ":2e4", "--out", svg},
               "window", v);
    expect_bad({"session", "--run", run, "--spec", "preset:overview",
                "--window", "0:" + v, "--out", svg},
               "window", v);
    expect_bad({"report", "--run", run, "--spec", "preset:overview",
                "--window", v + ":2e4", "--out", html},
               "window", v);
    expect_bad({"client", "--connect", "unix:/nonexistent/dv.sock",
                "--render", "--spec", "preset:overview", "--window",
                v + ":2e4", "--out", svg},
               "window", v);
    // --scales a,b and its singular --scale.
    expect_bad({"sweep", "--store", store, "--p", "2", "--window", "1e4",
                "--scales", "1," + v},
               "scales", v);
    expect_bad({"sweep", "--store", store, "--p", "2", "--window", "1e4",
                "--scale", v},
               "scale", v);
    // --focus ring:item
    expect_bad({"render", "--run", run, "--spec", "preset:overview",
                "--focus", "0:" + v, "--out", svg},
               "focus", v, kU64);
    expect_bad({"client", "--connect", "unix:/nonexistent/dv.sock",
                "--render", "--spec", "preset:overview", "--focus",
                v + ":0", "--out", svg},
               "focus", v, kU64);
    // --brush axis:lo:hi
    expect_bad({"session", "--run", run, "--spec", "preset:overview",
                "--brush", "latency:" + v + ":10", "--out", svg},
               "brush", v);
  }
  EXPECT_FALSE(fs::exists(store)) << "a rejected sweep still ran";
  for (const auto& p : {run, svg, html}) std::remove(p.c_str());
}

TEST(Cli, SweepAppliesFaultPlans) {
  const std::string fault = "link:g0->g1@0:1e4";
  auto sweep = [&](const std::string& store, const std::string& backend,
                   bool faulted) {
    std::vector<std::string> args = {"sweep", "--p", "2", "--window", "1e4",
                                     "--backend", backend, "--store", store};
    if (faulted) {
      args.push_back("--fault");
      args.push_back(fault);
    }
    return cli_error(args);
  };
  const std::string healthy = tmp("dv_cli_sweep_healthy");
  const std::string faulted = tmp("dv_cli_sweep_faulted");
  fs::remove_all(healthy);
  fs::remove_all(faulted);
  ASSERT_EQ(sweep(healthy, "packet", false), "");
  ASSERT_EQ(sweep(faulted, "packet", true), "");
  const metrics::RunStore a(healthy), b(faulted);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  const auto run_a = a.load(a.list()[0].name);
  const auto run_b = b.load(b.list()[0].name);
  EXPECT_TRUE(run_a.router_downtime.empty());
  ASSERT_FALSE(run_b.router_downtime.empty()) << "the sweep dropped --fault";
  EXPECT_TRUE(std::any_of(run_b.global_links.begin(), run_b.global_links.end(),
                          [](const auto& l) { return l.downtime > 0.0; }));
  // The flow backend has no fault model; run_experiment says so.
  EXPECT_NE(sweep(tmp("dv_cli_sweep_flow"), "flow", true)
                .find("the flow backend does not model faults"),
            std::string::npos);
  fs::remove_all(healthy);
  fs::remove_all(faulted);
  fs::remove_all(tmp("dv_cli_sweep_flow"));
}

TEST(Cli, ErrorsAreReported) {
  EXPECT_THROW(cli({"frobnicate"}), Error);
  EXPECT_THROW(cli({"sim", "--p", "2", "--out", tmp("x.json")}), Error);
  EXPECT_THROW(cli({"sim", "--p"}), Error);             // missing value
  EXPECT_THROW(cli({"sim", "p", "2"}), Error);          // not an option
  EXPECT_THROW(cli({"render", "--run", "/nonexistent.json", "--spec",
                    "/nonexistent.json", "--out", tmp("y.svg")}),
               Error);
  EXPECT_EQ(cli({"help"}), 0);
}

}  // namespace
}  // namespace dv::app
