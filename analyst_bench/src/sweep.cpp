// sweep-df5-flow — a design-space grid on DF(5) under the flow backend:
// {nearest_neighbor, transpose, uniform_random} x {minimal, adaptive} x
// two load scales, run by app::run_sweep into a fresh packed RunStore.
// The store is then attached lazily to a serve::RunCatalog and the first
// view is one comparison report over the whole grid; the analyst then
// brushes 40 seeded views across the points.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "app/sweep.hpp"
#include "common.hpp"
#include "core/comparison.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "metrics/run_store.hpp"
#include "obs/profile.hpp"
#include "serve/catalog.hpp"

namespace ab {

namespace {

constexpr std::size_t kBrushes = 40;

dv::app::SweepConfig sweep_config(std::uint64_t seed,
                                  const std::string& store_dir) {
  dv::app::SweepConfig cfg;
  cfg.base.dragonfly_p = 5;
  cfg.base.backend = dv::app::Backend::kFlow;
  cfg.base.sample_dt = 50000.0;  // ~40 frames: the brushes re-window them
  cfg.base.seed = seed;
  cfg.base.parallel = 1;
  cfg.workloads = {"nearest_neighbor", "transpose", "uniform_random"};
  cfg.routings = {"minimal", "adaptive"};
  cfg.scales = {1.0, 4.0};
  cfg.store_dir = store_dir;
  cfg.format = dv::metrics::StoreFormat::kPacked;
  return cfg;
}

/// The grid point's experiment, as run_sweep derives it from the base.
dv::app::ExperimentConfig point_config(const dv::app::SweepConfig& cfg,
                                       const std::string& workload,
                                       double scale) {
  dv::app::ExperimentConfig point = cfg.base;
  point.jobs = {{workload, 0, dv::placement::Policy::kContiguous, 0}};
  point.traffic_scale = scale;
  return point;
}

std::string traffic_key(const std::string& workload, double scale) {
  return workload + "@" + std::to_string(scale);
}

}  // namespace

void run_sweep_df5_flow(Context& ctx) {
  using namespace dv;

  // Set-up: every grid point's traffic (kept for the conservation check)
  // and the brushing session.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> expected;
  ScheduleSpec session;
  std::size_t points = 0;
  run_setups(ctx, 5, [&](Unit&) {
    const auto cfg = sweep_config(ctx.seed, "");
    for (const auto& w : cfg.workloads) {
      for (const double s : cfg.scales) {
        const Traffic t = make_traffic(point_config(cfg, w, s), ctx.tracer);
        expected[traffic_key(w, s)] = {t.messages.size(), t.bytes()};
        session.groups = t.topo.groups();
        session.ranks = t.topo.routers_per_group();
      }
    }
    Prng rng(ctx.seed, 3);
    session.presets = {"overview", "fig7", "fig9"};
    session.steps = kBrushes;
    session.shared_windows = make_windows(4, rng);
    points = cfg.workloads.size() * cfg.routings.size() * cfg.scales.size();
  });

  std::map<std::string, std::uint64_t> first_uids;
  run_passes(ctx, 200 / kBrushes, [&](Unit& u, std::size_t pass) -> Verify {
    // Every pass brushes a fresh session, so a run averages over many.
    Prng rng(ctx.seed, 1000 + pass);
    const auto schedule = make_schedule(session, rng);
    const auto point_of_step = balanced_picks(points, kBrushes, rng);
    const std::string store_dir =
        ctx.workdir + "/store-" + std::to_string(pass);
    std::filesystem::remove_all(store_dir);
    const auto cfg = sweep_config(ctx.seed, store_dir);
    const auto dvr0 = metrics::dvr_stats();

    // A: the grid.
    const auto ta = Clock::now();
    app::SweepResult res;
    {
      Span stage(ctx.tracer, "stage.produce");
      Span sweep(ctx.tracer, "app.sweep");
      if (ctx.tracer.enabled()) obs::reset();
      res = app::run_sweep(cfg);
      if (ctx.tracer.enabled()) {
        // run_sweep is one public call: its inner split comes from the
        // program's own numbers — each point's flow-engine wall time and
        // the obs "setup" phase (placement, generation, flow network
        // build); the remainder is the RunStore writes.
        const double wall = seconds_since(ta);
        double flow_s = 0.0, setup_s = 0.0;
        for (const auto& p : res.points) flow_s += p.wall_seconds;
        for (const auto& ph : obs::capture().phases) {
          if (ph.path == "setup") setup_s += ph.seconds;
        }
        ctx.tracer.reported("flow.run", sweep.id(), flow_s);
        ctx.tracer.reported("workload.generate", sweep.id(), setup_s);
        ctx.tracer.reported("metrics.save", sweep.id(),
                            std::max(0.0, wall - flow_s - setup_s));
      }
    }
    u.produce_s = seconds_since(ta);
    const double sweep_wall = u.produce_s;

    // B: attach the store lazily -> the first view, which is the report:
    // one comparison over the whole grid under shared scales.
    auto catalog = std::make_shared<serve::RunCatalog>(1024, 8);
    const auto tb = Clock::now();
    std::string html;
    {
      Span stage(ctx.tracer, "stage.first_view");
      {
        Span s(ctx.tracer, "serve.attach");
        const metrics::RunStore store(store_dir);
        for (const auto& info : store.list()) {
          catalog->attach(store.path(info.name), info.name);
        }
      }
      std::vector<std::shared_ptr<const serve::LoadedRun>> runs;
      {
        Span s(ctx.tracer, "serve.get");
        for (const auto& p : res.points) runs.push_back(catalog->get(p.name));
      }
      std::vector<const core::DataSet*> ptrs;
      std::vector<std::string> labels;
      for (const auto& lr : runs) {
        ptrs.push_back(&lr->data);
        labels.push_back(lr->name);
      }
      std::optional<core::ComparisonView> cmp;
      {
        Span s(ctx.tracer, "core.comparison");
        cmp.emplace(ptrs, core::preset("overview"), labels);
      }
      Span s(ctx.tracer, "core.report");
      core::ReportBuilder report("dragonviz sweep");
      report.note("Sweep grid", std::to_string(res.points.size()) +
                                    " points, flow backend");
      report.comparison(*cmp, "All sweep points under shared scales");
      html = report.html();
      report.save(store_dir + "/report.html");
    }
    u.first_view_s = seconds_since(tb);
    u.report_s = u.first_view_s;
    std::uint64_t failed = html.empty();

    // C: brushes across the grid points.
    const auto tc = Clock::now();
    {
      Span stage(ctx.tracer, "stage.brush");
      BrushState state;
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        const auto t0 = Clock::now();
        std::shared_ptr<const serve::LoadedRun> lr;
        {
          Span s(ctx.tracer, "serve.get", i + 1);
          lr = catalog->get(res.points[point_of_step[i]].name);
        }
        state.apply(schedule[i]);
        const auto spec = brush_spec(lr->data, schedule[i], state);
        std::optional<core::ProjectionView> view;
        {
          Span s(ctx.tracer, "core.view_build", i + 1);
          view.emplace(lr->data, spec, nullptr, &lr->engine);
        }
        Span s(ctx.tracer, "core.svg", i + 1);
        failed += view->to_svg(800, default_title(lr->data.run())).empty();
        u.brush_ms.push_back(seconds_since(t0) * 1e3);
      }
    }
    u.brush_wall_s = seconds_since(tc);
    ctx.rec.ops(2 + schedule.size(), failed);

    double messages = 0.0, bytes_written = 0.0;
    for (const auto& p : res.points) {
      u.counts["flow.epochs"] += static_cast<double>(p.flow.epochs);
      u.counts["flow.solves"] += static_cast<double>(p.flow.solves);
      u.counts["flow.incremental_solves"] +=
          static_cast<double>(p.flow.incremental_solves);
      u.counts["flow.solver_rounds"] +=
          static_cast<double>(p.flow.solver_rounds);
      messages += static_cast<double>(
          expected.at(traffic_key(p.workload, p.scale)).first);
    }
    for (const auto& e : std::filesystem::directory_iterator(store_dir)) {
      if (e.path().extension() == ".dvr") {
        bytes_written += static_cast<double>(e.file_size());
      }
    }
    u.counts["workload.messages"] = messages;
    u.counts["metrics.bytes_written"] = bytes_written;
    u.counts["sweep.point_s"] =
        sweep_wall / static_cast<double>(res.points.size());
    u.counts["sweep.report_s"] = u.report_s;
    count_dvr(u, dvr0);
    count_cache(u, catalog->cache()->stats());

    return [&, res = std::move(res), catalog, store_dir] {
      std::size_t changed = 0, bad_uid = 0, bad_bytes = 0;
      for (const auto& p : res.points) {
        const auto [it, fresh] = first_uids.emplace(p.name, p.uid);
        changed += !fresh && it->second != p.uid;
        const auto& run = catalog->get(p.name)->data.run();
        bad_uid += metrics::run_content_uid(run) != p.uid;
        bad_bytes += static_cast<std::uint64_t>(run.total_injected()) !=
                     expected.at(traffic_key(p.workload, p.scale)).second;
      }
      ctx.rec.check("re-running the sweep reproduces every point uid",
                    changed == 0 && res.points.size() == 12,
                    std::to_string(changed) + " of " +
                        std::to_string(res.points.size()) + " changed");
      ctx.rec.check("stored runs reload to their indexed content uid",
                    bad_uid == 0, std::to_string(bad_uid) + " differ");
      ctx.rec.check("every generated byte is injected", bad_bytes == 0,
                    std::to_string(bad_bytes) + " points differ");
      std::filesystem::remove_all(store_dir);
    };
  });
}

}  // namespace ab
