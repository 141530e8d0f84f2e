// loop-df6-packet — one analyst's whole loop on the paper-scale DF(6):
// generate uniform-random traffic, simulate it on the packet backend with
// adaptive routing and sampling, persist the run through RunMetrics::save
// (the call `dragonviz sim --out run.dvr` makes), open it, render the first
// view, brush 40 seeded windows, and build a report.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"

namespace ab {

namespace {

constexpr std::size_t kBrushes = 40;

dv::app::ExperimentConfig loop_config(std::uint64_t seed) {
  dv::app::ExperimentConfig cfg;
  cfg.dragonfly_p = 6;  // 73 groups x 12 routers x 6 terminals = 5,256
  cfg.jobs = {{"uniform_random", 0, dv::placement::Policy::kContiguous, 0}};
  cfg.routing = dv::routing::Algo::kAdaptive;
  cfg.sample_dt = 20000.0;  // ~100 frames over the 2 ms injection window
  cfg.seed = seed;
  cfg.parallel = 1;
  return cfg;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

void run_loop_df6_packet(Context& ctx) {
  using namespace dv;
  const app::ExperimentConfig cfg = loop_config(ctx.seed);
  const std::string run_path = ctx.workdir + "/run.dvr";
  const std::string report_path = ctx.workdir + "/report.html";

  // Set-up: the inputs the seed implies — placement and traffic (kept for
  // the conservation check) and the brushing session.
  std::uint64_t expected_bytes = 0, expected_messages = 0;
  ScheduleSpec session;
  run_setups(ctx, 5, [&](Unit&) {
    const Traffic t = make_traffic(cfg, ctx.tracer);
    expected_bytes = t.bytes();
    expected_messages = t.messages.size();
    Prng rng(ctx.seed, 1);
    session.presets = {"overview", "fig7", "fig9", "fig5a"};
    session.steps = kBrushes;
    session.shared_windows = make_windows(6, rng);
    session.groups = t.topo.groups();
    session.ranks = t.topo.routers_per_group();
  });

  std::uint64_t sim_uid = 0;
  run_passes(ctx, 200 / kBrushes, [&](Unit& u, std::size_t pass) {
    // Every pass brushes a fresh session, so a run averages over many.
    Prng rng(ctx.seed, 1000 + pass);
    const auto schedule = make_schedule(session, rng);
    const auto dvr0 = metrics::dvr_stats();
    // A: simulate + persist.
    const auto ta = Clock::now();
    SimOutput sim;
    {
      Span stage(ctx.tracer, "stage.produce");
      sim = simulate_packet(cfg, ctx.tracer);
      Span save(ctx.tracer, "metrics.save");
      sim.run.save(run_path);
    }
    u.produce_s = seconds_since(ta);

    // B: open the run -> first SVG.
    const auto tb = Clock::now();
    std::optional<metrics::RunMetrics> loaded;
    std::optional<core::DataSet> data;
    std::optional<core::QueryEngine> engine;
    std::string svg;
    {
      Span stage(ctx.tracer, "stage.first_view");
      {
        Span s(ctx.tracer, "metrics.load");
        loaded.emplace(metrics::RunMetrics::load(run_path));
      }
      {
        Span s(ctx.tracer, "core.dataset");
        data.emplace(*loaded);
        engine.emplace(*data);
      }
      std::optional<core::ProjectionView> view;
      {
        Span s(ctx.tracer, "core.view_build");
        view.emplace(*data, core::preset("fig4"), nullptr, &*engine);
      }
      Span s(ctx.tracer, "core.svg");
      svg = view->to_svg(800, default_title(data->run()));
    }
    u.first_view_s = seconds_since(tb);
    std::uint64_t failed = svg.empty() ? 1 : 0;

    // C: the seeded brushing session, in process.
    const auto tc = Clock::now();
    {
      Span stage(ctx.tracer, "stage.brush");
      BrushState state;
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        const auto t0 = Clock::now();
        state.apply(schedule[i]);
        const auto spec = brush_spec(*data, schedule[i], state);
        std::optional<core::ProjectionView> view;
        {
          Span s(ctx.tracer, "core.view_build", i + 1);
          view.emplace(*data, spec, nullptr, &*engine);
        }
        Span s(ctx.tracer, "core.svg", i + 1);
        failed += view->to_svg(800, default_title(data->run())).empty();
        u.brush_ms.push_back(seconds_since(t0) * 1e3);
      }
    }
    u.brush_wall_s = seconds_since(tc);

    // D: the report.
    const auto td = Clock::now();
    {
      Span stage(ctx.tracer, "stage.report");
      Span s(ctx.tracer, "core.report");
      core::ReportBuilder report("dragonviz loop report");
      report.run_summary(*data);
      const core::ProjectionView view(*data, core::preset("overview"),
                                      nullptr, &*engine);
      report.projection(view, default_title(data->run()));
      report.query_stats(engine->stats());
      report.save(report_path);
    }
    u.report_s = seconds_since(td);
    ctx.rec.ops(4 + schedule.size(), failed);

    u.counts["workload.messages"] = static_cast<double>(sim.messages);
    u.counts["netsim.events"] = static_cast<double>(sim.events);
    u.counts["netsim.end_time_ns"] = sim.run.end_time;
    u.counts["metrics.bytes_written"] =
        static_cast<double>(file_bytes(run_path));
    count_dvr(u, dvr0);
    count_cache(u, engine->stats());

    return [&, sim = std::move(sim), loaded = std::move(*loaded)] {
      const std::uint64_t uid = metrics::run_content_uid(sim.run);
      const std::uint64_t reloaded = metrics::run_content_uid(loaded);
      ctx.rec.check("persisted run reloads to the in-memory content uid",
                    uid == reloaded, u64(uid) + " vs " + u64(reloaded));
      const std::uint64_t finished = sim.run.total_packets_finished();
      ctx.rec.check("packets finished == packets injected",
                    finished == sim.packets_injected &&
                        sim.packets_delivered == sim.packets_injected,
                    u64(finished) + " finished, " +
                        u64(sim.packets_delivered) + " delivered, " +
                        u64(sim.packets_injected) + " injected");
      ctx.rec.check(
          "generated traffic matches the set-up's",
          sim.messages == expected_messages && sim.bytes == expected_bytes &&
              static_cast<std::uint64_t>(sim.run.total_injected()) ==
                  expected_bytes,
          u64(sim.messages) + " messages, " + u64(sim.bytes) + " bytes");
      if (sim_uid == 0) sim_uid = uid;
      ctx.rec.check("same seed, same run", uid == sim_uid, u64(uid));
    };
  });

  // Once per run: the module-by-module simulation is the run_experiment
  // path, byte for byte.
  const auto ref = app::run_experiment(cfg);
  const std::uint64_t ref_uid = metrics::run_content_uid(ref.run);
  ctx.rec.check("module-driven simulation == app::run_experiment",
                ref_uid == sim_uid && ref.events > 0,
                u64(ref_uid) + " vs " + u64(sim_uid));
}

}  // namespace ab
