// Core micro-benchmarks (google-benchmark): simulator event rate,
// hierarchical aggregation, projection build, SVG render, script parsing,
// time-range re-aggregation — the operations behind the paper's claim of
// *interactive* exploration of large networks.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "core/projection.hpp"
#include "core/views.hpp"
#include "fault/fault.hpp"
#include "netsim/network.hpp"
#include "slice_oracle.hpp"
#include "workload/workload.hpp"

namespace {

using namespace dv;

/// One cached medium run (uniform random on the 2,550-terminal network).
const metrics::RunMetrics& cached_run() {
  static const metrics::RunMetrics run = [] {
    const auto topo = topo::Dragonfly::canonical(5);
    netsim::Network net(topo, routing::Algo::kAdaptive, {}, 7);
    workload::Config cfg;
    cfg.ranks = topo.num_terminals();
    cfg.total_bytes = 160ull << 20;
    cfg.window = 2.0e5;
    cfg.seed = 7;
    const auto placement = placement::place_jobs(
        topo, {{"ur", topo.num_terminals(), placement::Policy::kContiguous}},
        7);
    net.set_jobs(placement);
    net.add_messages(workload::map_to_terminals(
        workload::generate_uniform_random(cfg), placement, 0));
    net.enable_sampling(5'000.0);
    return net.run();
  }();
  return run;
}

core::ProjectionSpec default_spec() {
  return core::SpecBuilder()
      .level(core::Entity::kGlobalLink)
      .aggregate({"router_rank"})
      .color("sat_time")
      .size("traffic")
      .level(core::Entity::kTerminal)
      .aggregate({"router_rank", "router_port"})
      .color("sat_time")
      .level(core::Entity::kTerminal)
      .color("workload")
      .size("avg_latency")
      .x("avg_hops")
      .y("data_size")
      .ribbons(core::Entity::kLocalLink, "router_rank")
      .build();
}

/// One medium uniform-random netsim run. `faulted` adds a transient cable
/// outage plus a transient router outage inside the injection window;
/// `msg_bytes` sets the message granularity (the default 16 KiB gives one
/// message per terminal, 342). Returns events processed.
std::uint64_t run_netsim_once(bool faulted = false,
                              std::uint32_t msg_bytes = 16 * 1024) {
  const auto topo = topo::Dragonfly::canonical(3);
  netsim::Network net(topo, routing::Algo::kAdaptive, {}, 3);
  workload::Config cfg;
  cfg.ranks = topo.num_terminals();
  cfg.total_bytes = 8u << 20;
  cfg.window = 5.0e4;
  cfg.seed = 3;
  cfg.msg_bytes = msg_bytes;
  const auto placement = placement::place_jobs(
      topo, {{"ur", topo.num_terminals(), placement::Policy::kContiguous}}, 3);
  net.add_messages(workload::map_to_terminals(
      workload::generate_uniform_random(cfg), placement, 0));
  if (faulted) {
    net.set_fault_plan(fault::FaultPlan::parse(
        "link:g0->g1@1e4:3e4\nrouter:g2.r1@5e3:2.5e4\n"));
  }
  benchmark::DoNotOptimize(net.run());
  return net.events_processed();
}

void BM_SimulatorEventRate(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_netsim_once();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorEventRate)->Unit(benchmark::kMillisecond);

void BM_SimulatorEventRateFaulted(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_netsim_once(/*faulted=*/true);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
// The degraded-operation cost: same run with an active fault plan (per-port
// liveness checks, retries, detours). Compare against BM_SimulatorEventRate
// to see the overhead; the no-fault path itself stays branch-gated.
BENCHMARK(BM_SimulatorEventRateFaulted)->Unit(benchmark::kMillisecond);

void BM_SimulatorEventRateManyMessages(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_netsim_once(/*faulted=*/false, /*msg_bytes=*/256);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
// The same 8 MiB in 256-byte messages (95 per terminal, 32,490 in all):
// the scheduler's cost under message-heavy traffic, where every message is
// one packet. Not part of BENCH_perf.json.
BENCHMARK(BM_SimulatorEventRateManyMessages)->Unit(benchmark::kMillisecond);

void BM_DataSetBuild(benchmark::State& state) {
  const auto& run = cached_run();
  for (auto _ : state) {
    core::DataSet data(run);
    benchmark::DoNotOptimize(&data);
  }
}
BENCHMARK(BM_DataSetBuild)->Unit(benchmark::kMillisecond);

void BM_HierarchicalAggregation(benchmark::State& state) {
  const core::DataSet data(cached_run());
  const auto& table = data.table(core::Entity::kTerminal);
  core::AggregationSpec spec;
  spec.keys = {"group_id", "router_rank"};
  spec.max_bins = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::Aggregation agg(table, spec);
    benchmark::DoNotOptimize(agg.reduce("data_size"));
    benchmark::DoNotOptimize(agg.reduce("avg_latency"));
  }
  state.counters["rows"] = static_cast<double>(table.rows());
}
BENCHMARK(BM_HierarchicalAggregation)->Arg(0)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_ProjectionBuild(benchmark::State& state) {
  const core::DataSet data(cached_run());
  const auto spec = default_spec();
  for (auto _ : state) {
    core::ProjectionView view(data, spec);
    benchmark::DoNotOptimize(&view);
  }
}
BENCHMARK(BM_ProjectionBuild)->Unit(benchmark::kMillisecond);

void BM_SvgRender(benchmark::State& state) {
  const core::DataSet data(cached_run());
  const core::ProjectionView view(data, default_spec());
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.to_svg(800));
  }
}
BENCHMARK(BM_SvgRender)->Unit(benchmark::kMillisecond);

void BM_TimeRangeSlice(benchmark::State& state) {
  const core::DataSet data(cached_run());
  const double end = cached_run().end_time;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        testing::slice_time(data, end * 0.25, end * 0.5));
  }
}
BENCHMARK(BM_TimeRangeSlice)->Unit(benchmark::kMillisecond);

void BM_SpecScriptParse(benchmark::State& state) {
  const std::string script = default_spec().to_script();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ProjectionSpec::parse(script));
  }
}
BENCHMARK(BM_SpecScriptParse)->Unit(benchmark::kMicrosecond);

void BM_BrushSelection(benchmark::State& state) {
  const core::DataSet data(cached_run());
  for (auto _ : state) {
    core::DetailView dv(data);
    dv.brush("avg_latency", 1000.0, 1e18);
    benchmark::DoNotOptimize(dv.selected_terminals());
    benchmark::DoNotOptimize(dv.associated_links(core::Entity::kLocalLink));
  }
}
BENCHMARK(BM_BrushSelection)->Unit(benchmark::kMillisecond);

/// Timed sequential event rate, written as machine-readable JSON so CI
/// and EXPERIMENTS.md can track it across commits and hardware. The run
/// goes once untimed (warm-up), then `reps` timed repetitions; the
/// reported rate uses the *median* rep so one stray slow run on shared
/// hardware does not move it. The file also stamps build provenance — a
/// number measured with a different compiler or with assertions on is not
/// comparable.
void write_perf_json(const std::string& path) {
  const int reps = 5;
  std::uint64_t events = 0;  // per run (identical across reps by design)
  const double seconds =
      bench::median_seconds(reps, [&] { events = run_netsim_once(); });
  const double rate = static_cast<double>(events) / seconds;
  std::printf("perf: %-28s %10.0f events/s\n", "sequential", rate);

  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream os(path, std::ios::binary);
  os << "{\n  \"benchmark\": \"netsim_event_rate\",\n"
     << "  \"topology\": \"dragonfly canonical(3)\",\n"
     << "  \"workload\": \"uniform_random 8 MiB\",\n"
     << "  \"reps\": " << reps << ",\n"
     << "  \"timing\": \"median rep after one untimed warm-up\",\n"
     << "  \"provenance\": " << bench::provenance_json() << ",\n"
     << "  \"configs\": [\n"
     << "    {\"engine\": \"sequential\""
     << ", \"events\": " << events << ", \"seconds\": " << seconds
     << ", \"events_per_second\": " << rate << "}\n"
     << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // CI's perf-smoke leg wants only the event-rate JSON, not the
    // google-benchmark suite.
    if (arg == "--perf-json-only") {
      write_perf_json("bench_out/BENCH_perf.json");
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_perf_json("bench_out/BENCH_perf.json");
  return 0;
}
