#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "core/presets.hpp"
#include "obs/obs.hpp"
#include "placement/placement.hpp"
#include "workload/workload.hpp"

namespace ab {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- tracing

namespace {
thread_local std::uint32_t t_current = 0;
}  // namespace

std::uint32_t Tracer::open(const std::string& name, std::uint32_t parent,
                           std::uint64_t rid) {
  if (!enabled_) return 0;
  const double now = seconds_since(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.unit = unit_;
  s.name = name;
  s.rid = rid;
  s.start = now;
  s.end = now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  const double now = seconds_since(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = now;
}

void Tracer::reported(const std::string& name, std::uint32_t parent,
                      double seconds) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.unit = unit_;
  s.name = name;
  s.end = seconds;  // duration only
  s.reported = true;
  spans_.push_back(std::move(s));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Span::Span(Tracer& tr, const std::string& name, std::uint64_t rid)
    : Span(tr, name, t_current, rid) {}

Span::Span(Tracer& tr, const std::string& name, std::uint32_t parent,
           std::uint64_t rid)
    : tr_(tr) {
  id_ = tr_.open(name, parent, rid);
  saved_ = t_current;
  if (id_) t_current = id_;
}

Span::~Span() {
  tr_.close(id_);
  if (id_) t_current = saved_;
}

// --------------------------------------------------------------- recorder

void Recorder::check(const std::string& name, bool ok,
                     const std::string& detail) {
  checks.push_back({name, ok, detail});
  ops(1, ok ? 0 : 1);
  if (!ok) std::fprintf(stderr, "CHECK FAILED: %s: %s\n", name.c_str(),
                        detail.c_str());
}

void Recorder::ops(std::uint64_t n, std::uint64_t failed) {
  ops_attempted += n;
  ops_failed += failed;
}

Unit& Context::begin_unit(const std::string& kind, bool traced) {
  rec.units.emplace_back();
  Unit& u = rec.units.back();
  u.kind = kind;
  u.traced = traced;
  tracer.set_enabled(traced);
  tracer.set_unit(static_cast<std::uint32_t>(rec.units.size() - 1));
  return u;
}

void run_setups(Context& ctx, int reps,
                const std::function<void(Unit&)>& fn) {
  for (int i = 0; i < reps; ++i) {
    Unit& u = ctx.begin_unit("setup", ctx.trace);
    const auto t0 = Clock::now();
    {
      Span root(ctx.tracer, "unit");
      fn(u);
    }
    u.wall_s = seconds_since(t0);
  }
  ctx.tracer.set_enabled(false);
}

void run_passes(Context& ctx, std::size_t min_passes,
                const std::function<Verify(Unit&, std::size_t)>& fn) {
  if (ctx.trace) min_passes = std::max<std::size_t>(min_passes, 4);
  const auto start = Clock::now();
  double timed = 0.0;  // checks run between passes and are not timed
  // Pass 0 warms the page cache, allocator and code paths and is not
  // measured; its checks still count.
  for (std::size_t i = 0; i <= min_passes || timed < ctx.seconds; ++i) {
    Unit& u = ctx.begin_unit(i == 0 ? "warmup" : "pass",
                             ctx.trace && i > 0 && i % 2 == 0);
    const auto t0 = Clock::now();
    Verify verify;
    {
      Span root(ctx.tracer, "unit");
      verify = fn(u, i);
    }
    u.wall_s = seconds_since(t0);
    if (i > 0) timed += u.wall_s;
    ctx.tracer.set_enabled(false);
    std::fprintf(stderr, "[%s] %s %zu%s: %.3fs\n", ctx.rec.workload.c_str(),
                 u.kind.c_str(), i, u.traced ? " (traced)" : "", u.wall_s);
    if (verify) verify();
    // Bound the run even when checks are slow.
    if (i >= min_passes && seconds_since(start) > 2 * ctx.seconds) break;
  }
}

void count_dvr(Unit& u, const dv::metrics::DvrStats& before) {
  const auto now = dv::metrics::dvr_stats();
  u.counts["metrics.dvr_chunks_read"] =
      static_cast<double>(now.chunks_read - before.chunks_read);
  u.counts["metrics.dvr_chunk_bytes_read"] =
      static_cast<double>(now.chunk_bytes_read - before.chunk_bytes_read);
  u.counts["metrics.dvr_chunks_pruned"] =
      static_cast<double>(now.chunks_pruned - before.chunks_pruned);
}

void count_cache(Unit& u, const dv::core::QueryStats& s) {
  u.counts["core.cache_hits"] = static_cast<double>(s.hits);
  u.counts["core.cache_misses"] = static_cast<double>(s.misses);
  u.counts["core.slab_builds"] = static_cast<double>(s.slab_builds);
  u.counts["core.slab_reduces"] = static_cast<double>(s.slab_reduces);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void write_result(const Context& ctx, const std::string& path) {
  std::ostringstream os;
  const Recorder& rec = ctx.rec;
  os << "{\"workload\": " << quoted(rec.workload) << ", \"seed\": "
     << rec.seed << ", \"trace\": " << (rec.trace ? "true" : "false");
  os << ", \"provenance\": {\"compiler\": " << quoted(__VERSION__)
     << ", \"build_type\": " << quoted(AB_BUILD_TYPE) << ", \"ndebug\": "
#ifdef NDEBUG
     << "true"
#else
     << "false"
#endif
     << ", \"dv_obs_enabled\": " << (dv::obs::kEnabled ? "true" : "false")
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << "}";
  os << ", \"peak_rss_mb\": " << num(peak_rss_mb());
  os << ", \"ops_attempted\": " << rec.ops_attempted
     << ", \"ops_failed\": " << rec.ops_failed;
  os << ", \"checks\": [";
  for (std::size_t i = 0; i < rec.checks.size(); ++i) {
    const Check& c = rec.checks[i];
    os << (i ? ", " : "") << "{\"name\": " << quoted(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << quoted(c.detail) << "}";
  }
  os << "], \"units\": [";
  for (std::size_t i = 0; i < rec.units.size(); ++i) {
    const Unit& u = rec.units[i];
    os << (i ? ",\n" : "\n") << "{\"kind\": " << quoted(u.kind)
       << ", \"traced\": " << (u.traced ? "true" : "false")
       << ", \"wall_s\": " << num(u.wall_s)
       << ", \"produce_s\": " << num(u.produce_s)
       << ", \"first_view_s\": " << num(u.first_view_s)
       << ", \"brush_wall_s\": " << num(u.brush_wall_s)
       << ", \"report_s\": " << num(u.report_s) << ", \"brush_ms\": [";
    for (std::size_t k = 0; k < u.brush_ms.size(); ++k) {
      os << (k ? ", " : "") << num(u.brush_ms[k]);
    }
    os << "], \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : u.counts) {
      os << (first ? "" : ", ") << quoted(k) << ": " << num(v);
      first = false;
    }
    os << "}}";
  }
  os << "], \"spans\": [";
  const auto spans = ctx.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"unit\": " << s.unit
       << ", \"name\": " << quoted(s.name) << ", \"rid\": " << s.rid;
    if (s.reported) {
      os << ", \"seconds\": " << num(s.end);
    } else {
      os << ", \"start\": " << num(s.start) << ", \"end\": " << num(s.end);
    }
    os << "}";
  }
  os << "]}\n";
  std::ofstream out(path, std::ios::binary);
  out << os.str();
  DV_REQUIRE(out.good(), "cannot write " + path);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------- simulation

std::uint64_t Traffic::bytes() const {
  std::uint64_t n = 0;
  for (const auto& m : messages) n += m.bytes;
  return n;
}

Traffic make_traffic(const dv::app::ExperimentConfig& cfg, Tracer& tr) {
  using namespace dv;
  Traffic t;
  std::vector<placement::JobRequest> requests;
  std::vector<std::uint64_t> volumes;
  t.topo = topo::Dragonfly::canonical(cfg.dragonfly_p);
  {
    Span span(tr, "workload.place");
    for (const auto& j : cfg.jobs) {
      placement::JobRequest req;
      req.name = j.workload;
      req.policy = j.policy;
      std::uint64_t bytes = j.bytes;
      const bool app = j.workload == "amg" || j.workload == "amr_boxlib" ||
                       j.workload == "minife";
      if (app) {
        const auto& info = workload::app_info(j.workload);
        req.ranks = j.ranks ? j.ranks : info.ranks;
        if (!bytes) bytes = static_cast<std::uint64_t>(info.scaled_bytes);
      } else {
        req.ranks = j.ranks ? j.ranks : t.topo.num_terminals();
        if (!bytes) bytes = cfg.synthetic_bytes_per_rank * req.ranks;
      }
      bytes = static_cast<std::uint64_t>(static_cast<double>(bytes) *
                                         cfg.traffic_scale);
      requests.push_back(req);
      volumes.push_back(bytes);
      t.job_names.push_back(j.workload);
      t.label += (t.label.empty() ? "" : "+") + j.workload;
    }
    t.placed = placement::place_jobs(t.topo, requests, cfg.seed);
  }
  {
    Span span(tr, "workload.generate");
    for (std::size_t j = 0; j < cfg.jobs.size(); ++j) {
      workload::Config wcfg;
      wcfg.ranks = requests[j].ranks;
      wcfg.total_bytes = volumes[j];
      wcfg.window = cfg.window;
      wcfg.seed = cfg.seed + j * 1000003;
      wcfg.neighbor_stride =
          cfg.nn_stride ? cfg.nn_stride : t.topo.terminals_per_router();
      const auto msgs = workload::generate(cfg.jobs[j].workload, wcfg);
      const auto mapped = workload::map_to_terminals(msgs, t.placed, j);
      t.messages.insert(t.messages.end(), mapped.begin(), mapped.end());
    }
  }
  return t;
}

SimOutput simulate_packet(const dv::app::ExperimentConfig& cfg, Tracer& tr) {
  using namespace dv;
  DV_REQUIRE(cfg.backend == app::Backend::kPacket && cfg.faults.empty(),
             "simulate_packet drives the healthy packet backend only");
  const Traffic t = make_traffic(cfg, tr);
  SimOutput out;
  out.messages = t.messages.size();
  out.bytes = t.bytes();

  std::optional<netsim::Network> net;
  {
    Span span(tr, "netsim.build");
    net.emplace(t.topo, cfg.routing, cfg.params, cfg.seed);
    net->set_jobs(t.placed);
    net->set_labels(t.label, cfg.placement_label(), t.job_names);
    net->add_messages(t.messages);
    if (cfg.sample_dt > 0) net->enable_sampling(cfg.sample_dt);
    net->set_parallel(1);
  }
  {
    Span span(tr, "netsim.run");
    out.run = net->run();
  }
  out.events = net->events_processed();
  out.packets_injected = net->packets_injected();
  out.packets_delivered = net->packets_delivered();
  return out;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

// ------------------------------------------------------------ brush views

void BrushState::apply(const BrushStep& step) {
  if (step.brush == BrushStep::Brush::kClear) {
    brushes.clear();
  } else if (step.brush == BrushStep::Brush::kSet) {
    for (auto& b : brushes) {
      if (b.attr == step.axis) {
        b.lo = step.lo;
        b.hi = step.hi;
        return;
      }
    }
    dv::core::AttrFilter f;
    f.attr = step.axis;
    f.lo = step.lo;
    f.hi = step.hi;
    brushes.push_back(f);
  }
}

std::string BrushState::key() const {
  std::string k;
  for (const auto& b : brushes) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s[%.17g,%.17g]", b.attr.c_str(), b.lo,
                  b.hi);
    k += buf;
  }
  return k;
}

std::pair<double, double> window_ns(const BrushStep& step, double end_time) {
  return {step.w0 * end_time, step.w1 * end_time};
}

dv::core::ProjectionSpec brush_spec(const dv::core::DataSet& data,
                                    const BrushStep& step,
                                    const BrushState& state) {
  auto spec = dv::core::preset(step.preset);
  const auto [t0, t1] = window_ns(step, data.run().end_time);
  spec.window.t0 = t0;
  spec.window.t1 = t1;
  for (const auto& b : state.brushes) {
    for (auto& lvl : spec.levels) {
      if (data.table(lvl.entity).has_column(b.attr)) lvl.filters.push_back(b);
    }
  }
  return spec;
}

std::string view_key(const BrushStep& step, const BrushState& state,
                     double end_time) {
  const auto [t0, t1] = window_ns(step, end_time);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|", t0, t1);
  return step.preset + buf + state.key();
}

std::string default_title(const dv::metrics::RunMetrics& run) {
  return run.workload + " / " + run.routing;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Prng::Prng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9e3779b97f4a7c15ull ^ (stream + 0x632be59bd9b4e019ull)) {
  next();
}

std::uint64_t Prng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Prng::below(std::uint64_t n) { return next() % n; }

std::vector<std::pair<double, double>> make_windows(std::size_t n,
                                                    Prng& rng) {
  std::vector<std::pair<double, double>> out;
  for (std::size_t i = 0; i < n; ++i) {
    // Millesimal fractions: a window the analyst drags on a timeline.
    const double w = static_cast<double>(50 + rng.below(600)) / 1000.0;
    const double t0 = static_cast<double>(rng.below(
                          static_cast<std::uint64_t>((1.0 - w) * 1000))) /
                      1000.0;
    out.emplace_back(t0, t0 + w);
  }
  return out;
}

std::vector<std::size_t> balanced_picks(std::size_t n, std::size_t count,
                                        Prng& rng) {
  std::vector<std::size_t> out, block(n);
  while (out.size() < count) {
    for (std::size_t i = 0; i < n; ++i) block[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(block[i - 1], block[rng.below(i)]);
    }
    for (std::size_t i = 0; i < n && out.size() < count; ++i) {
      out.push_back(block[i]);
    }
  }
  return out;
}

std::vector<BrushStep> make_schedule(const ScheduleSpec& spec, Prng& rng) {
  const auto presets = balanced_picks(spec.presets.size(), spec.steps, rng);
  std::vector<BrushStep> steps;
  for (std::size_t i = 0; i < spec.steps; ++i) {
    BrushStep s;
    s.preset = spec.presets[presets[i]];
    if (!spec.shared_windows.empty() && i % 2 == 0) {
      std::tie(s.w0, s.w1) =
          spec.shared_windows[rng.below(spec.shared_windows.size())];
    } else {
      std::tie(s.w0, s.w1) = make_windows(1, rng)[0];
    }
    if (i % 10 == 9) {
      s.brush = BrushStep::Brush::kClear;
    } else if (i % 5 == 2) {
      s.brush = BrushStep::Brush::kSet;
      if (i % 10 == 2) {
        // A contiguous block of groups, at least a third of the network.
        const std::uint32_t span = std::max<std::uint32_t>(1, spec.groups / 3);
        const auto lo = rng.below(spec.groups - span + 1);
        s.axis = "group_id";
        s.lo = static_cast<double>(lo);
        s.hi = static_cast<double>(lo + span + rng.below(span));
      } else {
        const std::uint32_t span = std::max<std::uint32_t>(1, spec.ranks / 2);
        const auto lo = rng.below(spec.ranks - span + 1);
        s.axis = "router_rank";
        s.lo = static_cast<double>(lo);
        s.hi = static_cast<double>(lo + span - 1);
      }
    }
    steps.push_back(s);
  }
  return steps;
}

}  // namespace ab
