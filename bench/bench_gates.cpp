// Machine-relative performance gates. Each compares two numbers measured
// in this process, so no baseline is read and the bounds hold anywhere:
//
//   va     — DF(4), 40 brushes x 3 rings: cached and windowed QueryEngine
//            answers vs one slice_time per brush + a fresh Aggregation
//            per ring; one slab build per ring;
//   store  — 50 DF(2) runs: attach the packed store + render preset:fig4
//            vs load the same runs' text exports eagerly; SVGs must be
//            byte-identical;
//   flow   — DF(3) uniform random at 60x, minimal routing: flow wall
//            clock vs packet, median of 5 each (skipped below 4 usable
//            CPUs, where a wall-clock ratio is too noisy to gate).
//
// Prints one line per gate and exits 1 when any gate fails. Writes no
// files: the stores live in a per-process temp directory, removed on exit.
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/projection.hpp"
#include "core/query.hpp"
#include "metrics/run_store.hpp"
#include "serve/catalog.hpp"
#include "slice_oracle.hpp"

namespace {

using namespace dv;

int g_failed = 0;

/// Prints `name value op bound` with its verdict; counts failures.
void gate(const char* name, double value, bool at_least, double bound) {
  const bool ok = at_least ? value >= bound : value <= bound;
  g_failed += !ok;
  std::printf("%-4s %-28s %12.3f %s %g\n", ok ? "OK" : "FAIL", name, value,
              at_least ? ">=" : "<=", bound);
}

void va_gates() {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 4;  // 1056 terminals
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.routing = routing::Algo::kAdaptive;
  cfg.window = 1.0e5;
  cfg.sample_dt = 500.0;
  cfg.seed = 7;
  const core::DataSet data(app::run_experiment(cfg).run);

  // The three rings of the "interactive" preset.
  const struct {
    core::Entity entity;
    const char* key;
    const char* attr;
  } rings[] = {
      {core::Entity::kGlobalLink, "group_id", "traffic"},
      {core::Entity::kLocalLink, "router_rank", "traffic"},
      {core::Entity::kTerminal, "router_rank", "data_size"},
  };
  std::vector<core::TimeWindow> windows;
  for (int i = 0; i < 40; ++i) {
    const double t0 = data.run().end_time * 0.6 * i / 40.0;
    windows.push_back(core::TimeWindow{t0, t0 + data.run().end_time * 0.35});
  }

  // Runs `answer` on every brush `passes` times; ms per (brush, ring) query.
  const auto per_query_ms = [&](int passes, auto&& answer) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < passes; ++rep) {
      for (const auto& w : windows) answer(w);
    }
    const std::chrono::duration<double, std::milli> ms =
        std::chrono::steady_clock::now() - t0;
    return ms.count() /
           static_cast<double>(passes * windows.size() * std::size(rings));
  };
  const double cold_ms = per_query_ms(1, [&](const core::TimeWindow& w) {
    const core::DataSet sliced = testing::slice_time(data, w.t0, w.t1);
    for (const auto& r : rings) {
      core::AggregationSpec spec;
      spec.keys = {r.key};
      (void)core::Aggregation(sliced.table(r.entity), spec)
          .reduce(r.attr, core::Reducer::kSum);
    }
  });
  core::QueryEngine engine(data, 512);
  const auto engine_answer = [&](const core::TimeWindow& w) {
    for (const auto& r : rings) {
      core::AggregationSpec spec;
      spec.keys = {r.key};
      spec.window = w;
      (void)engine.reduce(r.entity, spec, r.attr, core::Reducer::kSum);
    }
  };
  const double windowed_ms = per_query_ms(1, engine_answer);  // fresh engine
  const double cached_ms = per_query_ms(5, engine_answer);    // LRU hits

  gate("va.cached_vs_cold", cold_ms / cached_ms, true, 10.0);
  gate("va.windowed_vs_cold", cold_ms / windowed_ms, true, 2.0);
  gate("va.slab_builds", static_cast<double>(engine.stats().slab_builds),
       false, 3.0);
}

void store_gates(const std::filesystem::path& dir) {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.routing = routing::Algo::kAdaptive;
  cfg.window = 2.0e4;
  cfg.sample_dt = 400.0;
  // The text side is plain DIR/text/NAME.json exports (a store holds
  // .dvr only); the packed side is a RunStore.
  const auto text_dir = dir / "text";
  const std::string packed_dir = (dir / "packed").string();
  std::vector<std::string> names;
  {
    std::filesystem::create_directories(text_dir);
    metrics::RunStore packed_store(packed_dir);
    for (int i = 0; i < 50; ++i) {
      cfg.seed = 100 + i;
      const auto run = app::run_experiment(cfg).run;
      names.push_back("sweep_" + std::to_string(i));
      run.save((text_dir / (names.back() + ".json")).string());
      packed_store.add(run, names.back());
    }
  }

  const auto spec = core::preset_from_ref("preset:fig4");
  // Loads the text runs eagerly or attaches the packed store, then renders
  // sweep_25.
  const auto first_render = [&](bool eager, std::string& svg) {
    serve::RunCatalog catalog;
    if (eager) {
      for (const auto& name : names) {
        catalog.load((text_dir / (name + ".json")).string(), name);
      }
    } else {
      const metrics::RunStore store(packed_dir);
      for (const auto& info : store.list()) {
        catalog.attach(store.path(info.name), info.name);
      }
    }
    const auto lr = catalog.get("sweep_25");
    svg = core::ProjectionView(lr->data, spec, nullptr, &lr->engine)
              .to_svg(800, "store bench");
  };
  std::string text_svg, packed_svg;
  const double text_eager_s =
      bench::median_seconds(3, [&] { first_render(true, text_svg); });
  const double packed_lazy_s =
      bench::median_seconds(3, [&] { first_render(false, packed_svg); });

  gate("store.packed_lazy_vs_text", text_eager_s / packed_lazy_s, true, 3.0);
  gate("store.svg_identical", text_svg == packed_svg ? 1.0 : 0.0, true, 1.0);
}

void flow_gate() {
  // CPUs this process may run on, as `nproc` counts them.
  cpu_set_t cpus;  // filled by sched_getaffinity; unread if it fails
  const int threads =
      ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  if (threads < 4) {
    std::printf("SKIP %-28s %d usable CPUs < 4\n", "flow.heavy_ur_vs_packet",
                threads);
    return;
  }
  const auto median_run = [](app::Backend backend) {
    app::ExperimentConfig cfg;
    cfg.dragonfly_p = 3;
    cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
    cfg.routing = routing::Algo::kMinimal;
    cfg.traffic_scale = 60.0;
    cfg.window = 1.0e5;
    cfg.seed = 5;
    cfg.backend = backend;
    return bench::median_seconds(5, [&] { (void)app::run_experiment(cfg); });
  };
  const double flow_s = median_run(app::Backend::kFlow);
  const double packet_s = median_run(app::Backend::kPacket);
  std::printf("     heavy UR@60x: flow %.3f s, packet %.3f s\n", flow_s,
              packet_s);
  gate("flow.heavy_ur_vs_packet", flow_s / packet_s, false, 1.5);
}

}  // namespace

int main() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dv_bench_gates_" + std::to_string(::getpid()));
  int rc = 2;  // an error stops the run before every gate has spoken
  try {
    va_gates();
    store_gates(dir);
    flow_gate();
    std::printf("%d gate(s) failed\n", g_failed);
    rc = g_failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_gates: %s\n", e.what());
  }
  std::filesystem::remove_all(dir);
  return rc;
}
