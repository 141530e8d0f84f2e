// brush-serve-df6 — analysts brushing the paper's Fig. 4 run through the
// serve daemon. The run (AMG + AMR Boxlib + MiniFE, random-router
// placement, DF(6), sampled) is simulated and persisted during set-up;
// each pass starts a fresh daemon, attaches the run lazily, renders the
// first view, then runs closed-loop clients (one session each, at most
// nproc of them) through seeded window/brush/render schedules, and ends
// with a report. No simulation is timed here.
//
// Clients talk to an in-process serve::Server over socketpairs: the
// serve_fd path every accepted unix/TCP connection takes.
#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/presets.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace ab {

namespace {

constexpr std::size_t kStepsPerClient = 50;
const char* const kRunName = "fig4";

dv::app::ExperimentConfig fig4_config(std::uint64_t seed) {
  using dv::placement::Policy;
  dv::app::ExperimentConfig cfg;
  cfg.dragonfly_p = 6;
  cfg.jobs = {{"amg", 1728, Policy::kRandomRouter, 150u << 20},
              {"amr_boxlib", 1728, Policy::kRandomRouter, 30u << 20},
              {"minife", 1152, Policy::kRandomRouter, 735u << 20}};
  cfg.routing = dv::routing::Algo::kAdaptive;
  cfg.window = 5.0e5;
  cfg.sample_dt = 5000.0;  // ~95 frames
  cfg.seed = seed;
  cfg.parallel = 1;
  return cfg;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// One client connection with the daemon thread serving it.
class Connection {
 public:
  explicit Connection(dv::serve::Server& server) {
    int sv[2] = {-1, -1};
    DV_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
               "socketpair failed");
    thread_ = std::thread([&server, fd = sv[0]] { server.serve_fd(fd); });
    client_.emplace(sv[1]);
  }
  ~Connection() {
    try {
      client_->call("bye");
    } catch (const std::exception&) {
    }
    client_.reset();  // closes our end: the daemon side sees EOF
    thread_.join();
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  dv::serve::Client& client() { return *client_; }

 private:
  std::thread thread_;
  std::optional<dv::serve::Client> client_;
};

dv::json::Value obj(
    std::initializer_list<std::pair<const char*, dv::json::Value>> kv) {
  dv::json::Object o;
  for (const auto& [k, v] : kv) o[k] = v;
  return dv::json::Value(std::move(o));
}

/// What one client observed in one pass.
struct ClientLog {
  std::vector<double> ms;
  std::map<std::string, std::uint64_t> views;  ///< view key -> SVG hash
  std::uint64_t renders = 0, failed = 0, overloaded = 0, mismatched = 0;
};

void run_client(dv::serve::Server& server, Tracer& tr, std::uint32_t parent,
                std::size_t c, const std::vector<BrushStep>& steps,
                double end_time, ClientLog& log) {
  Connection conn(server);
  auto& client = conn.client();
  Span session(tr, "stage.session", parent, c + 1);
  BrushState state;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const BrushStep& st = steps[i];
    const std::uint64_t rid = (c + 1) * 1000000 + i + 1;
    const auto t0 = Clock::now();
    try {
      const auto [w0, w1] = window_ns(st, end_time);
      {
        Span s(tr, "serve.window", rid);
        client.call("window", obj({{"t0", w0}, {"t1", w1}}));
      }
      if (st.brush != BrushStep::Brush::kKeep) {
        Span s(tr, "serve.brush", rid);
        client.call("brush",
                    st.brush == BrushStep::Brush::kClear
                        ? obj({{"clear", true}})
                        : obj({{"axis", st.axis}, {"lo", st.lo},
                               {"hi", st.hi}}));
      }
      state.apply(st);
      std::string svg;
      {
        Span s(tr, "serve.render", rid);
        svg = client
                  .call("render", obj({{"run", kRunName},
                                       {"spec", "preset:" + st.preset}}))
                  .at("svg")
                  .as_string();
      }
      log.ms.push_back(seconds_since(t0) * 1e3);
      ++log.renders;
      const auto [it, fresh] =
          log.views.emplace(view_key(st, state, end_time), fnv1a(svg));
      if (!fresh && it->second != fnv1a(svg)) ++log.mismatched;
    } catch (const dv::serve::RpcError& e) {
      ++log.failed;
      if (e.code == "overloaded") ++log.overloaded;
      std::fprintf(stderr, "client %zu step %zu: %s\n", c, i, e.what());
    }
  }
}

}  // namespace

void run_brush_serve_df6(Context& ctx) {
  using namespace dv;
  const app::ExperimentConfig cfg = fig4_config(ctx.seed);
  const std::string run_path = ctx.workdir + "/fig4.dvr";

  std::optional<SimOutput> sim;
  run_setups(ctx, 3, [&](Unit& u) {
    sim = simulate_packet(cfg, ctx.tracer);
    Span s(ctx.tracer, "metrics.save");
    sim->run.save(run_path);
    u.counts["workload.messages"] = static_cast<double>(sim->messages);
    u.counts["netsim.events"] = static_cast<double>(sim->events);
    u.counts["netsim.end_time_ns"] = sim->run.end_time;
    u.counts["metrics.bytes_written"] =
        static_cast<double>(file_bytes(run_path));
  });
  const double end_time = sim->run.end_time;
  const topo::Dragonfly topo = topo::Dragonfly::canonical(cfg.dragonfly_p);
  {
    const std::uint64_t uid = metrics::run_content_uid(sim->run);
    const std::uint64_t reloaded =
        metrics::run_content_uid(metrics::RunMetrics::load(run_path));
    ctx.rec.check("persisted run reloads to the in-memory content uid",
                  uid == reloaded,
                  std::to_string(uid) + " vs " + std::to_string(reloaded));
    const std::uint64_t finished = sim->run.total_packets_finished();
    ctx.rec.check("packets finished == packets injected",
                  finished == sim->packets_injected &&
                      sim->packets_delivered == sim->packets_injected,
                  std::to_string(finished) + " of " +
                      std::to_string(sim->packets_injected));
    sim.reset();
  }

  // The seeded sessions: windows from one shared pool (every analyst looks
  // at the same phases) mixed with windows unique to one client.
  const std::size_t clients = std::min<std::size_t>(4, nproc());
  std::vector<std::vector<BrushStep>> schedules;
  {
    Prng shared(ctx.seed, 2);
    ScheduleSpec ss;
    ss.presets = {"overview", "fig7", "fig9", "fig5a"};
    ss.steps = kStepsPerClient;
    ss.shared_windows = make_windows(4, shared);
    ss.groups = topo.groups();
    ss.ranks = topo.routers_per_group();
    for (std::size_t c = 0; c < clients; ++c) {
      Prng rng(ctx.seed, 100 + c);
      schedules.push_back(make_schedule(ss, rng));
    }
  }

  std::map<std::string, std::uint64_t> first_views;  // across passes
  std::string first_svg;
  run_passes(ctx, 3, [&](Unit& u, std::size_t) -> Verify {
    const auto dvr0 = metrics::dvr_stats();
    serve::ServeOptions opts;
    opts.workers = 4;
    opts.max_queue = 64;
    opts.cache_capacity = 1024;
    opts.cache_shards = 8;
    serve::Server server(opts);
    std::uint64_t failed = 0;

    // B: lazy attach -> first SVG.
    const auto tb = Clock::now();
    Connection control(server);
    std::string svg;
    {
      Span stage(ctx.tracer, "stage.first_view");
      {
        Span s(ctx.tracer, "serve.attach");
        server.catalog().attach(run_path, kRunName);
      }
      Span s(ctx.tracer, "serve.render");
      svg = control.client()
                .call("render",
                      obj({{"run", kRunName}, {"spec", "preset:fig4"}}))
                .at("svg")
                .as_string();
    }
    u.first_view_s = seconds_since(tb);
    if (first_svg.empty()) first_svg = svg;
    failed += svg != first_svg;

    // C: closed-loop clients.
    std::vector<ClientLog> logs(clients);
    const auto tc = Clock::now();
    {
      Span stage(ctx.tracer, "stage.brush");
      std::vector<std::jthread> threads;  // join at scope end
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c, parent = stage.id()] {
          try {
            run_client(server, ctx.tracer, parent, c, schedules[c], end_time,
                       logs[c]);
          } catch (const std::exception& e) {
            logs[c].failed += kStepsPerClient;
            std::fprintf(stderr, "client %zu: %s\n", c, e.what());
          }
        });
      }
    }
    u.brush_wall_s = seconds_since(tc);

    // D: the report.
    const auto td = Clock::now();
    {
      Span stage(ctx.tracer, "stage.report");
      Span s(ctx.tracer, "serve.report");
      failed += control.client()
                    .call("report", obj({{"run", kRunName},
                                         {"spec", "preset:fig4"},
                                         {"cache_stats", true}}))
                    .at("html")
                    .as_string()
                    .empty();
    }
    u.report_s = seconds_since(td);
    const json::Value stats = control.client().call("stats");

    std::uint64_t renders = 0, overloaded = 0, mismatched = 0;
    std::map<std::string, std::uint64_t> views;
    for (const auto& log : logs) {
      u.brush_ms.insert(u.brush_ms.end(), log.ms.begin(), log.ms.end());
      renders += log.renders;
      failed += log.failed;
      overloaded += log.overloaded;
      mismatched += log.mismatched;
      for (const auto& [k, h] : log.views) {
        const auto [it, fresh] = views.emplace(k, h);
        if (!fresh && it->second != h) ++mismatched;
      }
    }
    ctx.rec.ops(2 + clients * kStepsPerClient, failed);

    const auto& cache = stats.at("cache");
    u.counts["serve.renders"] = static_cast<double>(renders);
    u.counts["serve.requests"] =
        stats.at("server").get_number("requests", 0.0);
    u.counts["serve.overloaded"] = static_cast<double>(overloaded);
    u.counts["serve.coalesced"] = cache.get_number("coalesced", 0.0);
    u.counts["serve.cache_hit_rate"] = cache.get_number("hit_rate", 0.0);
    u.counts["serve.server_p50_ms"] =
        stats.at("latency_ms").at("render").get_number("p50_ms", 0.0);
    u.counts["core.cache_hits"] = cache.get_number("hits", 0.0);
    u.counts["core.cache_misses"] = cache.get_number("misses", 0.0);
    u.counts["core.slab_builds"] = cache.get_number("slab_builds", 0.0);
    u.counts["core.slab_reduces"] = cache.get_number("slab_reduces", 0.0);
    count_dvr(u, dvr0);

    return [&, views = std::move(views), mismatched] {
      ctx.rec.check("clients saw identical bytes for identical views",
                    mismatched == 0,
                    std::to_string(mismatched) + " mismatches");
      std::size_t changed = 0;
      for (const auto& [k, h] : views) {
        const auto [it, fresh] = first_views.emplace(k, h);
        changed += !fresh && it->second != h;
      }
      ctx.rec.check("every pass renders the same bytes per view",
                    changed == 0, std::to_string(changed) + " views changed");
    };
  });

  // One in-process render per distinct view must equal the daemon's bytes
  // (the ProjectionView path `dragonviz render` takes).
  const metrics::RunMetrics run = metrics::RunMetrics::load(run_path);
  const core::DataSet data(run);
  core::QueryEngine engine(data);
  std::size_t differ = 0;
  std::map<std::string, std::pair<BrushStep, BrushState>> distinct;
  for (const auto& steps : schedules) {
    BrushState state;
    for (const auto& st : steps) {
      state.apply(st);
      distinct.emplace(view_key(st, state, end_time), std::make_pair(st, state));
    }
  }
  for (const auto& [key, view] : distinct) {
    const auto it = first_views.find(key);
    const core::ProjectionView pv(data, brush_spec(data, view.first,
                                                   view.second),
                                  nullptr, &engine);
    differ += it == first_views.end() ||
              it->second != fnv1a(pv.to_svg(800, default_title(run)));
  }
  const core::ProjectionView first(data, core::preset("fig4"), nullptr,
                                   &engine);
  ctx.rec.check("serve first view == in-process ProjectionView SVG",
                first.to_svg(800, default_title(run)) == first_svg,
                "preset fig4, no window");
  ctx.rec.check("serve renders == in-process ProjectionView SVG per view",
                differ == 0 && !distinct.empty(),
                std::to_string(differ) + " of " +
                    std::to_string(distinct.size()) + " distinct views differ");
}

}  // namespace ab
