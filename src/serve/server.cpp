#include "serve/server.hpp"

#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <future>
#include <limits>

#include "core/comparison.hpp"
#include "core/presets.hpp"
#include "metrics/dvr.hpp"
#include "core/projection.hpp"
#include "core/report.hpp"
#include "core/spec.hpp"
#include "obs/obs.hpp"
#include "serve/net_io.hpp"

namespace dv::serve {

namespace {

constexpr std::size_t kLatencyRingCap = 2048;

/// Render and report responses are whole SVG/HTML documents, hundreds of
/// KiB each, built on a worker thread and copied and freed on connection
/// threads. glibc raises its mmap threshold past that size after the first
/// large free, after which such buffers come from per-thread arenas that
/// keep the freed pages: the resident set then depends on how the threads
/// interleaved, not on what the daemon holds. Fixed thresholds (which also
/// turn the adaptive ones off) map each large buffer on its own and return
/// it on free, and trim arena tops beyond 1 MiB. The trim hands back what
/// the process freed before the daemon started (a simulation, a parse).
void tune_allocator_for_serving() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 256 << 10);
  mallopt(M_TRIM_THRESHOLD, 1 << 20);
  malloc_trim(0);
#endif
}

/// Nearest-rank percentile (p in [0, 1]) over a sample copy.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

json::Value run_info(const LoadedRun& lr) {
  const metrics::RunMetrics& run = lr.data.run();
  json::Object o;
  o["name"] = json::Value(lr.name);
  o["source"] = json::Value(lr.source_path);
  o["workload"] = json::Value(run.workload);
  o["routing"] = json::Value(run.routing);
  o["placement"] = json::Value(run.placement);
  o["terminals"] = json::Value(run.groups * run.routers_per_group *
                               run.terminals_per_router);
  o["end_time"] = json::Value(run.end_time);
  o["sampled"] = json::Value(run.has_time_series());
  o["resident"] = json::Value(true);
  return json::Value(std::move(o));
}

json::Value pending_info(const RunCatalog::PendingInfo& p) {
  json::Object o;
  o["name"] = json::Value(p.name);
  o["source"] = json::Value(p.path);
  o["packed"] = json::Value(p.packed);
  o["resident"] = json::Value(false);
  return json::Value(std::move(o));
}

}  // namespace

const std::vector<VerbInfo>& protocol_verbs() {
  static const std::vector<VerbInfo> kVerbs = {
      {"hello", "protocol handshake: server identity, version, verb list",
       false},
      {"ping", "liveness probe", false},
      {"load",
       "load a run file (text or packed .dvr) into the shared catalog; "
       "params.lazy attaches it for on-demand materialization",
       true},
      {"list", "enumerate catalog runs, resident and attached", false},
      {"use", "set this session's default run", false},
      {"window", "set or clear this session's time window", false},
      {"brush", "set, replace, or clear this session's attribute brushes",
       false},
      {"render", "build a projection view and return its SVG", true},
      {"report", "build a standalone HTML analysis report", true},
      {"stats", "server, cache, latency, and per-session counters", false},
      {"bye", "close this connection", false},
      {"shutdown", "stop the whole daemon", false},
  };
  return kVerbs;
}

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)),
      catalog_(opts_.cache_capacity, opts_.cache_shards),
      started_(std::chrono::steady_clock::now()) {
  DV_REQUIRE(::pipe(stop_pipe_) == 0, "cannot create stop pipe");
  tune_allocator_for_serving();
  if (opts_.workers > 0) pool_ = std::make_unique<ThreadPool>(opts_.workers);
}

Server::~Server() {
  stop();
  close_fd(stop_pipe_[0]);
  close_fd(stop_pipe_[1]);
}

void Server::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  const char byte = 'x';
  // Best-effort wake of the accept loop; async-signal-safe.
  [[maybe_unused]] const auto n = ::write(stop_pipe_[1], &byte, 1);
}

json::Value Server::run_on_pool(const std::function<json::Value()>& job) {
  if (!pool_) return job();  // workers=0: execute inline
  // The worker hands back the result, or the error's code and message, as
  // plain values through a promise; run_on_pool rethrows on the calling
  // thread, so no exception object crosses threads.
  struct Outcome {
    json::Value result;
    bool failed = false;
    ErrorCode code = ErrorCode::kInternal;
    std::string message;
  };
  auto promise = std::make_shared<std::promise<Outcome>>();
  std::future<Outcome> outcome = promise->get_future();
  ThreadPool& pool = *pool_;
  auto task = [&pool, promise, job] {
    DV_OBS_GAUGE_SET("serve.queue_depth", static_cast<double>(pool.queued()));
    Outcome out;
    const auto fail = [&](ErrorCode code, const char* message) {
      out.failed = true;
      out.code = code;
      out.message = message;
    };
    try {
      out.result = job();
    } catch (const VerbError& e) {
      fail(e.code, e.what());
    } catch (const Error& e) {
      fail(ErrorCode::kBadRequest, e.what());
    } catch (const std::exception& e) {
      fail(ErrorCode::kInternal, e.what());
    } catch (...) {
      fail(ErrorCode::kInternal, "unknown failure on a worker thread");
    }
    promise->set_value(std::move(out));
  };
  if (!pool.try_submit(std::move(task), opts_.max_queue)) {
    throw VerbError(ErrorCode::kOverloaded,
                    "request queue full (" + std::to_string(opts_.max_queue) +
                        " pending); retry later");
  }
  DV_OBS_GAUGE_SET("serve.queue_depth", static_cast<double>(pool.queued()));
  Outcome out = outcome.get();
  if (out.failed) throw VerbError(out.code, out.message);
  return std::move(out.result);
}

void Server::record_latency(const std::string& verb, double seconds) {
  std::lock_guard<std::mutex> lock(lat_mu_);
  LatencyRing& ring = latency_[verb];
  if (ring.samples.size() < kLatencyRingCap) {
    ring.samples.push_back(seconds);
  } else {
    ring.samples[ring.next] = seconds;
    ring.next = (ring.next + 1) % kLatencyRingCap;
  }
  ring.count += 1;
}

// ---------------------------------------------------------------------------
// Verb handlers.

json::Value Server::verb_hello(Session& s, const json::Value&) {
  json::Object o;
  o["server"] = json::Value("dragonviz serve");
  o["protocol"] = json::Value(kProtocolVersion);
  o["session"] = json::Value(s.id);
  json::Array verbs;
  for (const auto& v : protocol_verbs()) verbs.emplace_back(v.name);
  o["verbs"] = json::Value(std::move(verbs));
  return json::Value(std::move(o));
}

json::Value Server::verb_ping(Session&, const json::Value&) {
  json::Object o;
  o["pong"] = json::Value(true);
  return json::Value(std::move(o));
}

json::Value Server::verb_load(Session& s, const json::Value& p) {
  const std::string path = p.get_string("path", "");
  if (path.empty()) {
    throw VerbError(ErrorCode::kBadRequest, "load needs params.path");
  }
  if (p.get_bool("lazy", false)) {
    // Attach only: the parse + dataset build are deferred to the first
    // verb that actually touches the run.
    std::string name;
    try {
      name = catalog_.attach(path, p.get_string("name", ""));
    } catch (const Error& e) {
      throw VerbError(ErrorCode::kNotFound, e.what());
    }
    if (s.run_name.empty()) s.run_name = name;
    json::Object o;
    o["name"] = json::Value(name);
    o["source"] = json::Value(path);
    o["resident"] = json::Value(false);
    return json::Value(std::move(o));
  }
  std::shared_ptr<const LoadedRun> lr;
  try {
    lr = catalog_.load(path, p.get_string("name", ""));
  } catch (const Error& e) {
    throw VerbError(ErrorCode::kNotFound, e.what());
  }
  if (s.run_name.empty()) s.run_name = lr->name;
  return run_info(*lr);
}

json::Value Server::verb_list(Session&, const json::Value&) {
  json::Array runs;
  for (const auto& lr : catalog_.list()) runs.push_back(run_info(*lr));
  for (const auto& p : catalog_.list_pending()) {
    runs.push_back(pending_info(p));
  }
  json::Object o;
  o["runs"] = json::Value(std::move(runs));
  return json::Value(std::move(o));
}

json::Value Server::verb_use(Session& s, const json::Value& p) {
  const std::string name = p.get_string("run", "");
  if (name.empty()) {
    throw VerbError(ErrorCode::kBadRequest, "use needs params.run");
  }
  try {
    catalog_.get(name);  // existence check
  } catch (const Error& e) {
    throw VerbError(ErrorCode::kNotFound, e.what());
  }
  s.run_name = name;
  json::Object o;
  o["run"] = json::Value(name);
  return json::Value(std::move(o));
}

json::Value Server::verb_window(Session& s, const json::Value& p) {
  if (p.get_bool("clear", false)) {
    s.window = core::TimeWindow{};
  } else {
    core::TimeWindow w;
    w.t0 = p.get_number("t0", 0.0);
    w.t1 = p.get_number("t1", 0.0);
    if (!w.active()) {
      throw VerbError(ErrorCode::kBadRequest,
                      "window needs t0 < t1 (or clear: true)");
    }
    s.window = w;
  }
  json::Object o;
  if (s.window.active()) {
    o["window"] = json::Value(json::Array{json::Value(s.window.t0),
                                          json::Value(s.window.t1)});
  } else {
    o["window"] = json::Value(nullptr);
  }
  return json::Value(std::move(o));
}

json::Value Server::verb_brush(Session& s, const json::Value& p) {
  if (p.get_bool("clear", false)) {
    s.clear_brushes();
  } else {
    const std::string axis = p.get_string("axis", "");
    if (axis.empty()) {
      throw VerbError(ErrorCode::kBadRequest,
                      "brush needs params.axis (or clear: true)");
    }
    constexpr double inf = std::numeric_limits<double>::infinity();
    s.brush(axis, p.get_number("lo", -inf), p.get_number("hi", inf));
  }
  json::Array brushes;
  for (const auto& b : s.brushes) {
    json::Object bo;
    bo["axis"] = json::Value(b.attr);
    // Omit unbounded sides: infinities are not representable in JSON.
    if (std::isfinite(b.lo)) bo["lo"] = json::Value(b.lo);
    if (std::isfinite(b.hi)) bo["hi"] = json::Value(b.hi);
    brushes.emplace_back(std::move(bo));
  }
  json::Object o;
  o["brushes"] = json::Value(std::move(brushes));
  return json::Value(std::move(o));
}

std::shared_ptr<const LoadedRun> Server::resolve_run(
    const Session& s, const json::Value& p) const {
  const std::string name = p.get_string("run", s.run_name);
  if (name.empty()) {
    throw VerbError(ErrorCode::kBadRequest,
                    "no run selected: pass params.run, or load/use one");
  }
  try {
    return catalog_.get(name);
  } catch (const Error& e) {
    throw VerbError(ErrorCode::kNotFound, e.what());
  }
}

namespace {

/// Resolves params.spec — a preset reference ("preset:<name>"), a script
/// text (the Fig. 5 language), or a spec JSON object — into a spec. The
/// same resolution the CLI applies to --spec file contents, so a script
/// sent over the wire renders byte-identically to `dragonviz render`.
core::ProjectionSpec resolve_spec(const json::Value& p) {
  const json::Value* spec = p.find("spec");
  DV_REQUIRE(spec != nullptr, "missing params.spec");
  if (spec->is_string()) {
    const std::string& ref = spec->as_string();
    if (core::is_preset_ref(ref)) return core::preset_from_ref(ref);
    return core::ProjectionSpec::parse(ref);
  }
  return core::ProjectionSpec::from_json(*spec);
}

/// Window precedence mirrors the CLI: an explicit params.window overrides
/// the spec's own window; otherwise the session window fills in only when
/// the spec does not carry one.
void apply_window(const json::Value& p, const Session& s,
                  core::ProjectionSpec& spec) {
  if (const json::Value* w = p.find("window")) {
    DV_REQUIRE(w->is_array() && w->as_array().size() == 2,
               "params.window must be [t0, t1]");
    spec.window.t0 = w->as_array()[0].as_number();
    spec.window.t1 = w->as_array()[1].as_number();
    DV_REQUIRE(spec.window.active(), "params.window needs t0 < t1");
  } else if (!spec.window.active() && s.window.active()) {
    spec.window = s.window;
  }
}

/// Applies the session's brushes as AND-combined filters on every level
/// whose entity table carries the brushed attribute.
void apply_brushes(const Session& s, const core::DataSet& data,
                   core::ProjectionSpec& spec) {
  for (const auto& b : s.brushes) {
    for (auto& lvl : spec.levels) {
      if (data.table(lvl.entity).has_column(b.attr)) {
        lvl.filters.push_back(b);
      }
    }
  }
}

}  // namespace

json::Value Server::verb_render(Session& s, const json::Value& p) {
  const auto lr = resolve_run(s, p);
  auto spec = resolve_spec(p);
  apply_window(p, s, spec);
  apply_brushes(s, lr->data, spec);
  // Drill-down focus: params.focus is a list of [ring, item] pairs, applied
  // in order exactly like repeated --focus flags.
  if (const json::Value* focus = p.find("focus")) {
    DV_REQUIRE(focus->is_array(), "params.focus must be [[ring, item], ...]");
    for (const auto& f : focus->as_array()) {
      DV_REQUIRE(f.is_array() && f.as_array().size() == 2,
                 "each focus entry must be [ring, item]");
      const core::ProjectionView overview(lr->data, spec, nullptr,
                                          &lr->engine);
      spec = overview.drill_down(
          static_cast<std::size_t>(f.as_array()[0].as_number()),
          static_cast<std::size_t>(f.as_array()[1].as_number()));
    }
  }
  const core::ProjectionView view(lr->data, spec, nullptr, &lr->engine);
  const metrics::RunMetrics& run = lr->data.run();
  const std::string title =
      p.get_string("title", run.workload + " / " + run.routing);
  s.renders.fetch_add(1, std::memory_order_relaxed);
  json::Object o;
  o["run"] = json::Value(lr->name);
  o["rings"] = json::Value(view.rings().size());
  o["ribbons"] = json::Value(view.ribbons().size());
  o["svg"] = json::Value(view.to_svg(p.get_number("size", 800), title));
  return json::Value(std::move(o));
}

json::Value Server::verb_report(Session& s, const json::Value& p) {
  // Accept params.runs (list of names) or a single params.run / default.
  std::vector<std::shared_ptr<const LoadedRun>> runs;
  if (const json::Value* list = p.find("runs")) {
    DV_REQUIRE(list->is_array() && !list->as_array().empty(),
               "params.runs must be a non-empty array of run names");
    for (const auto& name : list->as_array()) {
      json::Object one;
      one["run"] = name;
      runs.push_back(resolve_run(s, json::Value(std::move(one))));
    }
  } else {
    runs.push_back(resolve_run(s, p));
  }
  auto spec = resolve_spec(p);
  apply_window(p, s, spec);

  core::ReportBuilder report(
      p.get_string("title", "dragonviz analysis report"));
  if (runs.size() == 1) {
    const LoadedRun& lr = *runs[0];
    apply_brushes(s, lr.data, spec);
    const metrics::RunMetrics& run = lr.data.run();
    report.run_summary(lr.data);
    const core::ProjectionView view(lr.data, spec, nullptr, &lr.engine);
    report.projection(view, run.workload + " / " + run.routing + " / " +
                                run.placement);
    if (p.get_bool("cache_stats", false)) {
      report.query_stats(lr.engine.stats());
    }
  } else {
    std::vector<const core::DataSet*> ptrs;
    ptrs.reserve(runs.size());
    for (const auto& lr : runs) ptrs.push_back(&lr->data);
    const core::ComparisonView cmp(ptrs, spec);
    report.comparison(cmp, "comparison under shared visual scales");
  }
  s.renders.fetch_add(1, std::memory_order_relaxed);
  json::Object o;
  json::Array names;
  for (const auto& lr : runs) names.emplace_back(lr->name);
  o["runs"] = json::Value(std::move(names));
  o["html"] = json::Value(report.html());
  return json::Value(std::move(o));
}

json::Value Server::stats_json(const Session* session) const {
  json::Object server;
  server["protocol"] = json::Value(kProtocolVersion);
  server["uptime_s"] = json::Value(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count());
  server["requests"] =
      json::Value(total_requests_.load(std::memory_order_relaxed));
  server["errors"] =
      json::Value(total_errors_.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    server["sessions"] = json::Value(sessions_.size());
    std::size_t brushes = 0;
    for (const auto& [id, s] : sessions_) {
      brushes += s->brush_count.load(std::memory_order_relaxed);
    }
    server["active_brushes"] = json::Value(brushes);
  }
  server["queue_depth"] = json::Value(pool_ ? pool_->queued() : 0);
  server["workers"] = json::Value(opts_.workers);
  server["max_queue"] = json::Value(opts_.max_queue);
  server["runs"] = json::Value(catalog_.size());
  server["runs_resident"] = json::Value(catalog_.resident());
  server["runs_pending"] = json::Value(catalog_.pending());

  // Packed-store reader counters: how much of the mapped .dvr bytes
  // queries actually touched, and how many chunks zone maps pruned.
  const metrics::DvrStats ds = metrics::dvr_stats();
  json::Object store;
  store["dvr_opens"] = json::Value(ds.opens);
  store["dvr_bytes_mapped"] = json::Value(ds.bytes_mapped);
  store["dvr_chunks_read"] = json::Value(ds.chunks_read);
  store["dvr_chunk_bytes_read"] = json::Value(ds.chunk_bytes_read);
  store["dvr_chunks_pruned"] = json::Value(ds.chunks_pruned);

  const core::QueryStats cs = catalog_.cache()->stats();
  json::Object cache;
  cache["hits"] = json::Value(cs.hits);
  cache["misses"] = json::Value(cs.misses);
  cache["coalesced"] = json::Value(cs.coalesced);
  cache["evictions"] = json::Value(cs.evictions);
  cache["entries"] = json::Value(cs.entries);
  cache["slab_builds"] = json::Value(cs.slab_builds);
  cache["slab_reduces"] = json::Value(cs.slab_reduces);
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  cache["hit_rate"] =
      json::Value(lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0);

  json::Object latency;
  {
    std::lock_guard<std::mutex> lock(lat_mu_);
    for (const auto& [verb, ring] : latency_) {
      json::Object v;
      v["count"] = json::Value(ring.count);
      v["p50_ms"] = json::Value(percentile(ring.samples, 0.50) * 1e3);
      v["p99_ms"] = json::Value(percentile(ring.samples, 0.99) * 1e3);
      latency[verb] = json::Value(std::move(v));
    }
  }

  json::Object o;
  o["server"] = json::Value(std::move(server));
  o["store"] = json::Value(std::move(store));
  o["cache"] = json::Value(std::move(cache));
  o["latency_ms"] = json::Value(std::move(latency));
  if (session != nullptr) {
    json::Object s;
    s["id"] = json::Value(session->id);
    s["run"] = json::Value(session->run_name);
    s["requests"] =
        json::Value(session->requests.load(std::memory_order_relaxed));
    s["renders"] =
        json::Value(session->renders.load(std::memory_order_relaxed));
    s["errors"] =
        json::Value(session->errors.load(std::memory_order_relaxed));
    s["brushes"] = json::Value(session->brushes.size());
    if (session->window.active()) {
      s["window"] = json::Value(json::Array{json::Value(session->window.t0),
                                            json::Value(session->window.t1)});
    } else {
      s["window"] = json::Value(nullptr);
    }
    o["session"] = json::Value(std::move(s));
  }
  return json::Value(std::move(o));
}

json::Value Server::verb_stats(Session& s, const json::Value&) {
  return stats_json(&s);
}

// ---------------------------------------------------------------------------
// Dispatch.

json::Value Server::execute(Session& session, const Request& req,
                            ConnControl& cc) {
  // Handlers see an object even when params was omitted.
  const json::Value params =
      req.params.is_object() ? req.params : json::Value(json::Object{});

  using Handler = json::Value (Server::*)(Session&, const json::Value&);
  struct Entry {
    Handler handler;
    bool heavy;
  };
  static const std::map<std::string, Entry> kDispatch = {
      {"hello", {&Server::verb_hello, false}},
      {"ping", {&Server::verb_ping, false}},
      {"load", {&Server::verb_load, true}},
      {"list", {&Server::verb_list, false}},
      {"use", {&Server::verb_use, false}},
      {"window", {&Server::verb_window, false}},
      {"brush", {&Server::verb_brush, false}},
      {"render", {&Server::verb_render, true}},
      {"report", {&Server::verb_report, true}},
      {"stats", {&Server::verb_stats, false}},
  };

  if (req.verb == "bye") {
    cc.close = true;
    json::Object o;
    o["bye"] = json::Value(true);
    return json::Value(std::move(o));
  }
  if (req.verb == "shutdown") {
    cc.close = true;
    cc.shutdown = true;
    json::Object o;
    o["stopping"] = json::Value(true);
    return json::Value(std::move(o));
  }

  const auto it = kDispatch.find(req.verb);
  if (it == kDispatch.end()) {
    throw VerbError(ErrorCode::kUnknownVerb,
                    "unknown verb: " + req.verb +
                        " (see docs/SERVE_PROTOCOL.md)");
  }
  const Entry& entry = it->second;
  try {
    if (entry.heavy) {
      return run_on_pool(
          [&] { return (this->*entry.handler)(session, params); });
    }
    return (this->*entry.handler)(session, params);
  } catch (const VerbError&) {
    throw;
  } catch (const Error& e) {
    throw VerbError(ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    throw VerbError(ErrorCode::kInternal, e.what());
  }
}

void Server::serve_fd(int fd) {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.insert(fd);
  }
  Session session;
  session.id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_[session.id] = &session;
    DV_OBS_GAUGE_SET("serve.sessions", static_cast<double>(sessions_.size()));
  }

  try {
    FrameStream stream(fd, opts_.max_frame);  // owns fd
    std::string frame;
    bool done = false;
    while (!done && !stopping() && stream.read_frame(frame)) {
      const auto start = std::chrono::steady_clock::now();
      total_requests_.fetch_add(1, std::memory_order_relaxed);
      DV_OBS_COUNT("serve.requests", 1);
      std::int64_t id = 0;
      std::string verb = "(invalid)";
      std::string reply;
      ConnControl cc;
      try {
        const Request req = Request::parse(frame);
        id = req.id;
        verb = req.verb;
        session.requests.fetch_add(1, std::memory_order_relaxed);
        reply = ok_frame(id, execute(session, req, cc));
      } catch (const VerbError& e) {
        session.errors.fetch_add(1, std::memory_order_relaxed);
        total_errors_.fetch_add(1, std::memory_order_relaxed);
        DV_OBS_COUNT("serve.errors", 1);
        reply = error_frame(id, e.code, e.what());
      } catch (const Error& e) {
        // Request::parse failures land here: the frame was not a request.
        session.errors.fetch_add(1, std::memory_order_relaxed);
        total_errors_.fetch_add(1, std::memory_order_relaxed);
        DV_OBS_COUNT("serve.errors", 1);
        reply = error_frame(id, ErrorCode::kParse, e.what());
      }
      record_latency(verb, std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
      stream.write_frame(reply);
      if (cc.shutdown) stop();
      if (cc.close) done = true;
    }
  } catch (const Error&) {
    // Connection-level I/O failure (mid-frame EOF, oversized frame, broken
    // pipe): nothing sensible can be sent; drop the connection.
  }

  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(session.id);
    DV_OBS_GAUGE_SET("serve.sessions", static_cast<double>(sessions_.size()));
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.erase(fd);
  }
}

int Server::listen_and_serve() {
  const Address addr = Address::parse(opts_.listen);
  const int lfd = listen_socket(addr);
  if (!opts_.ready_file.empty()) {
    std::ofstream os(opts_.ready_file, std::ios::binary | std::ios::trunc);
    os << addr.describe() << "\n";
  }

  std::vector<std::thread> conns;
  while (!stopping()) {
    pollfd pfds[2] = {{lfd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) continue;  // EINTR
    if (pfds[1].revents != 0) break;
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) continue;
    std::size_t active;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      active = sessions_.size();
    }
    if (active >= opts_.max_sessions) {
      // Refuse politely: one error frame, then close.
      try {
        FrameStream stream(cfd, opts_.max_frame);
        stream.write_frame(error_frame(
            0, ErrorCode::kOverloaded,
            "session limit reached (" + std::to_string(opts_.max_sessions) +
                ")"));
      } catch (const Error&) {
      }
      continue;
    }
    conns.emplace_back([this, cfd] { serve_fd(cfd); });
  }

  close_fd(lfd);
  if (addr.kind == Address::Kind::kUnix) ::unlink(addr.path.c_str());
  {
    // Wake connection readers blocked in read_frame.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : conn_fds_) shutdown_fd(fd);
  }
  for (auto& t : conns) t.join();
  if (!opts_.ready_file.empty()) ::unlink(opts_.ready_file.c_str());
  return 0;
}

}  // namespace dv::serve
