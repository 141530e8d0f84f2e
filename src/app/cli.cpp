// dragonviz CLI: simulate dragonfly networks and render spec-driven
// projection / detail / timeline views headlessly.
//
//   dragonviz sim --p 3 --job amg:0:contiguous --routing adaptive
//       ... --out run.dvr [--sample-dt 1000] [--scale 0.5]
//   dragonviz render  --run run.dvr --spec spec.json --out view.svg
//   dragonviz session --run run.json --spec spec.json --out ui.svg
//       ... [--window t0:t1] [--brush axis:lo:hi]
//   dragonviz compare --run a.json --run b.json --spec spec.json --out c.svg
//   dragonviz export  --run run.json --entity terminals --out t.csv
//   dragonviz info    --run run.json
#include "app/cli.hpp"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "app/sweep.hpp"
#include "core/comparison.hpp"
#include "fault/fault.hpp"
#include "obs/profile.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "core/views.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_schema.hpp"
#include "metrics/run_store.hpp"
#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/trace.hpp"
#include "util/str.hpp"
#include "workload/workload.hpp"

namespace dv::app {

namespace {

/// A number from one option token (or one field of a compound token);
/// the whole field must parse, so "4x" and "abc" are both rejected.
double parse_num(const std::string& cmd, const std::string& key,
                 const std::string& v) {
  std::size_t used = 0;
  double x = 0.0;
  try {
    x = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  DV_REQUIRE(used > 0 && used == v.size(),
             cmd + ": bad --" + key + " value: " + v + " (expected a number)");
  return x;
}

/// A whole number of type T from one option token (or compound field):
/// decimal digits only, within T's range, so "1.9", "-1" for an unsigned
/// T and 2^64 are rejected instead of truncated, wrapped or rounded.
template <typename T>
T parse_int(const std::string& cmd, const std::string& key,
            const std::string& v) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  DV_REQUIRE(ec == std::errc() && ptr == end,
             cmd + ": bad --" + key + " value: " + v +
                 " (expected an integer in [" +
                 std::to_string(std::numeric_limits<T>::min()) + ", " +
                 std::to_string(std::numeric_limits<T>::max()) + "])");
  return x;
}

/// Minimal option parser: --key value or --key=value (repeatable keys
/// collect). Keys optional_value() names may appear bare; they collect "".
/// A key outside the command's table fails as it is met, before it can
/// take the next token as its value.
struct Args {
  std::string cmd;  ///< the subcommand, for error messages
  std::map<std::string, std::vector<std::string>> opts;

  static bool optional_value(const std::string& key) {
    return key == "profile" || key == "cache-stats" || key == "lazy" ||
           // `client` action flags take no value.
           key == "list" || key == "stats" || key == "render" ||
           key == "report" || key == "shutdown";
  }

  static Args parse(std::string cmd, const std::vector<std::string>& keys,
                    int argc, char** argv, int start) {
    Args a;
    a.cmd = std::move(cmd);
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      DV_REQUIRE(starts_with(key, "--"), "expected --option, got: " + key);
      key = key.substr(2);
      const auto eq = key.find('=');
      const std::string name = key.substr(0, eq);
      if (name != "profile" &&
          std::find(keys.begin(), keys.end(), name) == keys.end()) {
        throw Error(a.cmd + ": unknown option --" + name);
      }
      if (eq != std::string::npos) {
        a.opts[name].push_back(key.substr(eq + 1));
        continue;
      }
      if (optional_value(key) &&
          (i + 1 >= argc || starts_with(argv[i + 1], "--"))) {
        a.opts[key].push_back("");
        continue;
      }
      DV_REQUIRE(i + 1 < argc, "missing value for --" + key);
      a.opts[key].push_back(argv[++i]);
    }
    return a;
  }

  const std::string& one(const std::string& key) const {
    const auto it = opts.find(key);
    DV_REQUIRE(it != opts.end() && it->second.size() == 1,
               "exactly one --" + key + " required");
    return it->second[0];
  }
  std::string one_or(const std::string& key, const std::string& dflt) const {
    const auto it = opts.find(key);
    if (it == opts.end()) return dflt;
    DV_REQUIRE(it->second.size() == 1, "--" + key + " given multiple times");
    return it->second[0];
  }
  /// A numeric option; the whole value must parse as a number.
  double num_or(const std::string& key, double dflt) const {
    if (opts.find(key) == opts.end()) return dflt;
    return parse_num(cmd, key, one_or(key, ""));
  }
  /// An integer option of the default's type (see parse_int).
  template <typename T>
  T int_or(const std::string& key, T dflt) const {
    if (opts.find(key) == opts.end()) return dflt;
    return parse_int<T>(cmd, key, one_or(key, ""));
  }
  std::vector<std::string> many(const std::string& key) const {
    const auto it = opts.find(key);
    return it == opts.end() ? std::vector<std::string>{} : it->second;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DV_REQUIRE(is.good(), "cannot open: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// What a bare --profile names its file after: the command's output
/// (--out, else --report), else its input (--run, else --in), else
/// "<dir>/<cmd>" inside its --store/--dir directory.
std::string profile_base(const std::string& cmd, const Args& args) {
  for (const char* key : {"out", "report", "run", "in"}) {
    const auto it = args.opts.find(key);
    if (it != args.opts.end()) return it->second.front();
  }
  for (const char* key : {"store", "dir"}) {
    const auto it = args.opts.find(key);
    if (it != args.opts.end()) return it->second.front() + "/" + cmd;
  }
  return cmd;
}

/// Writes the observability profile when --profile was given — every
/// subcommand honours it. An empty value (bare --profile) derives the path
/// from profile_base() by replacing a trailing extension with
/// ".profile.json".
void maybe_write_profile(const std::string& cmd, const Args& args) {
  const auto it = args.opts.find("profile");
  if (it == args.opts.end()) return;
  std::string path = it->second.back();
  if (path.empty()) {
    std::string base = profile_base(cmd, args);
    const auto dot = base.find_last_of('.');
    if (dot != std::string::npos && base.find('/', dot) == std::string::npos) {
      base = base.substr(0, dot);
    }
    path = base + ".profile.json";
  }
  const obs::RunProfile profile = obs::capture();
  profile.save(path);
  std::printf("wrote %s (%zu counters, %zu phases, %.3fs wall)\n",
              path.c_str(), profile.counters.size(), profile.phases.size(),
              profile.wall_seconds);
  if (!obs::kEnabled) {
    std::printf("note: built with DV_OBS_ENABLED=OFF — profile is empty\n");
  }
}

/// Collects the fault plan from --faults FILE (at most one) plus any
/// number of inline --fault SPEC arguments.
fault::FaultPlan parse_fault_args(const Args& args) {
  fault::FaultPlan plan;
  const std::string file = args.one_or("faults", "");
  if (!file.empty()) plan = fault::FaultPlan::load(file);
  for (const auto& s : args.many("fault")) {
    plan.faults.push_back(fault::parse_fault(s));
  }
  return plan;
}

/// Applies the --fault-retry-* tuning knobs to the simulation parameters.
void apply_fault_params(const Args& args, netsim::Params& params) {
  params.fault_retry_base =
      args.num_or("fault-retry-base", params.fault_retry_base);
  params.fault_retry_budget =
      args.int_or("fault-retry-budget", params.fault_retry_budget);
}

/// Every --focus ring:item, in order.
std::vector<std::pair<std::size_t, std::size_t>> parse_focus(
    const Args& args) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const auto& f : args.many("focus")) {
    const auto parts = split(f, ':');
    DV_REQUIRE(parts.size() == 2, "--focus must be ring:item");
    out.emplace_back(parse_int<std::size_t>(args.cmd, "focus", parts[0]),
                     parse_int<std::size_t>(args.cmd, "focus", parts[1]));
  }
  return out;
}

/// --spec accepts either a script file path or "preset:<name>".
core::ProjectionSpec load_spec(const Args& args) {
  const std::string& ref = args.one("spec");
  if (core::is_preset_ref(ref)) return core::preset_from_ref(ref);
  return core::ProjectionSpec::parse(read_file(ref));
}

/// Parses "--window t0:t1" (ns, half-open) into a spec time window. Note
/// this is the analysis-side window; `sim --window` is the injection
/// window and is unrelated.
core::TimeWindow parse_time_window(const std::string& cmd,
                                   const std::string& s) {
  const auto parts = split(s, ':');
  DV_REQUIRE(parts.size() == 2, "--window must be t0:t1 (ns)");
  core::TimeWindow w;
  w.t0 = parse_num(cmd, "window", parts[0]);
  w.t1 = parse_num(cmd, "window", parts[1]);
  DV_REQUIRE(w.active(), "--window needs t0 < t1");
  return w;
}

/// Applies --window to the projection spec when given.
void maybe_apply_window(const Args& args, core::ProjectionSpec& spec) {
  const std::string w = args.one_or("window", "");
  if (!w.empty()) spec.window = parse_time_window(args.cmd, w);
}

/// Prints the query-engine cache summary when --cache-stats was given.
void maybe_print_cache_stats(const Args& args, const core::QueryStats& s) {
  if (args.opts.find("cache-stats") == args.opts.end()) return;
  std::printf("query cache: %llu hits / %llu misses, %llu evictions, "
              "%llu live entries; group slabs: %llu built, %llu reductions\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.evictions),
              static_cast<unsigned long long>(s.entries),
              static_cast<unsigned long long>(s.slab_builds),
              static_cast<unsigned long long>(s.slab_reduces));
}

/// The experiment flags `sim` and `sweep` share: network size, injection
/// window, sampling, seed, backend, and the fault plan with its retry
/// tuning. Each command names its own backend default.
ExperimentConfig parse_experiment(const Args& args, Backend default_backend) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = args.int_or("p", cfg.dragonfly_p);
  cfg.window = args.num_or("window", 2.0e6);
  cfg.sample_dt = args.num_or("sample-dt", 0.0);
  cfg.seed = args.int_or("seed", cfg.seed);
  cfg.backend = backend_from_string(
      args.one_or("backend", to_string(default_backend)));
  cfg.faults = parse_fault_args(args);
  apply_fault_params(args, cfg.params);
  return cfg;
}

int cmd_sim(const Args& args) {
  ExperimentConfig cfg = parse_experiment(args, Backend::kPacket);
  cfg.routing = routing::algo_from_string(args.one_or("routing", "adaptive"));
  cfg.traffic_scale = args.num_or("scale", 1.0);
  const auto jobs = args.many("job");
  DV_REQUIRE(!jobs.empty(),
             "at least one --job workload[:ranks[:policy]] required");
  for (const auto& spec : jobs) {
    const auto parts = split(spec, ':');
    JobSpec job;
    job.workload = parts[0];
    if (parts.size() > 1 && !parts[1].empty() && parts[1] != "0") {
      job.ranks = parse_int<std::uint32_t>(args.cmd, "job", parts[1]);
    }
    if (parts.size() > 2) job.policy = placement::policy_from_string(parts[2]);
    if (parts.size() > 3 && !parts[3].empty()) {
      job.bytes = parse_int<std::uint64_t>(args.cmd, "job", parts[3]);
    }
    DV_REQUIRE(parts.size() <= 4, "bad --job spec: " + spec);
    cfg.jobs.push_back(job);
  }
  const auto result = run_experiment(cfg);
  const std::string out = args.one("out");
  {
    obs::ScopedPhase phase("write");
    result.run.save(out);
  }
  // The flow backend steps in epochs; result.events holds that count.
  std::printf(
      "simulated %s on %s: %llu %s, %.2fs wall, end=%.0f ns\n",
      result.run.workload.c_str(), result.topo.describe().c_str(),
      static_cast<unsigned long long>(result.events),
      cfg.backend == Backend::kFlow ? "epochs" : "events", result.wall_seconds,
      result.run.end_time);
  if (!cfg.faults.empty()) {
    std::uint64_t retries = 0, drops = 0;
    for (const auto c : result.run.router_retries) retries += c;
    for (const auto c : result.run.router_drops) drops += c;
    std::printf("faults: %zu scheduled, %llu retries, %llu packets dropped\n",
                cfg.faults.faults.size(),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(drops));
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

/// Collects a sweep axis from repeatable --<singular> options plus a
/// comma-separated --<plural> list, e.g. --workload ur --workloads a,b.
std::vector<std::string> axis_values(const Args& args,
                                     const std::string& singular,
                                     const std::string& plural) {
  std::vector<std::string> vals = args.many(singular);
  for (const auto& lst : args.many(plural)) {
    for (const auto& v : split(lst, ',')) {
      if (!trim(v).empty()) vals.push_back(trim(v));
    }
  }
  return vals;
}

int cmd_sweep(const Args& args) {
  SweepConfig cfg;
  cfg.base = parse_experiment(args, Backend::kFlow);
  cfg.base.synthetic_bytes_per_rank =
      args.int_or("bytes-per-rank", cfg.base.synthetic_bytes_per_rank);

  cfg.workloads = axis_values(args, "workload", "workloads");
  cfg.routings = axis_values(args, "routing", "routings");
  // Same collection order as axis_values; errors name the flag used.
  for (const auto& s : args.many("scale")) {
    cfg.scales.push_back(parse_num(args.cmd, "scale", s));
  }
  for (const auto& lst : args.many("scales")) {
    for (const auto& v : split(lst, ',')) {
      if (!trim(v).empty()) {
        cfg.scales.push_back(parse_num(args.cmd, "scales", trim(v)));
      }
    }
  }
  if (cfg.workloads.empty()) cfg.workloads = {"uniform_random"};
  if (cfg.routings.empty()) cfg.routings = {"adaptive"};
  if (cfg.scales.empty()) cfg.scales = {1.0};

  cfg.store_dir = args.one("store");
  cfg.report_path = args.one_or("report", "");
  cfg.report_spec = args.one_or("spec", "preset:overview");
  cfg.report_title = args.one_or("title", "dragonviz sweep");

  const SweepResult res = run_sweep(cfg);
  for (const auto& p : res.points) {
    std::printf("point %-40s uid=%llu end=%.0f ns %.3fs wall\n",
                p.name.c_str(), static_cast<unsigned long long>(p.uid),
                p.end_time, p.wall_seconds);
  }
  std::printf("sweep: %zu points (%s backend) into %s in %.2fs\n",
              res.points.size(), to_string(cfg.base.backend).c_str(),
              cfg.store_dir.c_str(), res.wall_seconds);
  if (!res.report_path.empty()) {
    std::printf("wrote %s\n", res.report_path.c_str());
  }
  return 0;
}

int cmd_render(const Args& args) {
  const auto focus = parse_focus(args);
  const core::DataSet data = load_run_dataset(args.one("run"));
  auto spec = load_spec(args);
  maybe_apply_window(args, spec);
  core::QueryEngine engine(data);
  // --focus ring:item applies the paper's click-to-focus drill-down
  // before rendering (may be repeated for nested drill-down).
  for (const auto& [ring, item] : focus) {
    const core::ProjectionView overview(data, spec, nullptr, &engine);
    spec = overview.drill_down(ring, item);
  }
  auto build_phase = std::make_unique<obs::ScopedPhase>("build");
  const core::ProjectionView view(data, spec, nullptr, &engine);
  build_phase.reset();
  const std::string out = args.one("out");
  {
    obs::ScopedPhase phase("render");
    view.save_svg(out, args.num_or("size", 800),
                  args.one_or("title", data.run().workload + " / " +
                                           data.run().routing));
  }
  std::printf("wrote %s (%zu rings, %zu ribbons)\n", out.c_str(),
              view.rings().size(), view.ribbons().size());
  maybe_print_cache_stats(args, engine.stats());
  return 0;
}

int cmd_store(const Args& args) {
  metrics::RunStore store(args.one("dir"));
  const std::string action = args.one_or("action", "list");
  if (action == "add") {
    auto load_phase = std::make_unique<obs::ScopedPhase>("load");
    const auto run = metrics::RunMetrics::load(args.one("run"));
    load_phase.reset();
    obs::ScopedPhase phase("write");
    const auto name = store.add(run, args.one_or("name", ""));
    std::printf("stored as '%s' (dvr)\n", name.c_str());
    return 0;
  }
  if (action == "remove") {
    store.remove(args.one("name"));
    std::printf("removed '%s'\n", args.one("name").c_str());
    return 0;
  }
  DV_REQUIRE(action == "list", "store action must be list|add|remove");
  std::printf("%-36s %-20s %-12s %-18s %9s %16s\n", "name", "workload",
              "routing", "placement", "terminals", "uid");
  for (const auto& info : store.list()) {
    std::printf("%-36s %-20s %-12s %-18s %9u %016llx\n", info.name.c_str(),
                info.workload.c_str(), info.routing.c_str(),
                info.placement.c_str(), info.terminals,
                static_cast<unsigned long long>(info.uid));
  }
  std::printf("%zu run(s) in %s\n", store.size(), store.dir().c_str());
  return 0;
}

int cmd_pack(const Args& args) {
  const std::string in = args.one("in");
  const std::string out = args.one("out");
  // The output path decides the format (metrics::format_for_path).
  const auto fmt = metrics::format_for_path(out);
  auto load_phase = std::make_unique<obs::ScopedPhase>("load");
  const auto run = metrics::RunMetrics::load(in);
  load_phase.reset();
  std::uint64_t uid = 0;
  {
    obs::ScopedPhase phase("write");
    uid = run.save(out);
  }
  const auto size_of = [](const std::string& p) {
    std::ifstream is(p, std::ios::binary | std::ios::ate);
    return is.good() ? static_cast<long long>(is.tellg()) : 0ll;
  };
  const long long in_b = size_of(in), out_b = size_of(out);
  std::printf("packed %s (%lld bytes) -> %s (%lld bytes, %s, %.2fx)\n",
              in.c_str(), in_b, out.c_str(), out_b,
              metrics::to_string(fmt).c_str(),
              out_b > 0 ? static_cast<double>(in_b) / out_b : 0.0);
  std::printf("run uid: %016llx\n", static_cast<unsigned long long>(uid));
  return 0;
}

int cmd_inspect(const Args& args) {
  const std::string path = args.one("run");
  if (!metrics::is_dvr_file(path)) {
    std::printf("%s: text (JSON) run — no chunk directory; use "
                "`dragonviz pack` to convert, `info` for run summary\n",
                path.c_str());
    return 0;
  }
  // Header + directory only: no column payload is touched, which is the
  // point — this is what a catalog sees before the first query.
  const metrics::DvrFile f(path);
  std::printf("%s: dvr v%u, %llu bytes, run uid %016llx\n", path.c_str(),
              metrics::kDvrVersion,
              static_cast<unsigned long long>(f.file_bytes()),
              static_cast<unsigned long long>(f.run_uid()));
  const metrics::RunMetrics& h = f.header();
  std::printf("config:   %s / %s / %s\n", h.workload.c_str(),
              h.routing.c_str(), h.placement.c_str());
  std::printf("topology: g=%u a=%u p=%u h=%u, end=%.0f ns%s\n", h.groups,
              h.routers_per_group, h.terminals_per_router,
              h.global_per_router, h.end_time,
              h.has_time_series() ? ", sampled" : "");
  // Per-section rollup of the chunk directory; series sections also count
  // the values their chunks store (the rest are zeros).
  struct Rollup {
    std::size_t chunks = 0;
    std::uint64_t bytes = 0, values = 0, nonzeros = 0;
  };
  std::map<std::uint16_t, Rollup> sections;
  for (const auto& c : f.chunks()) {
    Rollup& r = sections[c.section];
    ++r.chunks;
    r.bytes += c.bytes;
    r.values += c.rows;
    r.nonzeros += c.nonzeros;
  }
  std::printf("chunks:   %zu total\n", f.chunks().size());
  for (const auto& [section, r] : sections) {
    const std::size_t series =
        section - static_cast<std::size_t>(metrics::DvrSection::kSeriesBase);
    const char* label = series < metrics::schema::kSeries.size()
                            ? metrics::schema::kSeries[series].name
                            : "unknown";
    switch (static_cast<metrics::DvrSection>(section)) {
      case metrics::DvrSection::kLocalLinks: label = "local_links"; break;
      case metrics::DvrSection::kGlobalLinks: label = "global_links"; break;
      case metrics::DvrSection::kTerminals: label = "terminals"; break;
      case metrics::DvrSection::kRouterTallies: label = "router_tallies"; break;
      default: break;
    }
    std::printf("  section %2u (%s): %zu chunk(s), %llu bytes", section,
                label, r.chunks, static_cast<unsigned long long>(r.bytes));
    if (series < metrics::schema::kSeries.size()) {
      std::printf(", %llu of %llu values nonzero",
                  static_cast<unsigned long long>(r.nonzeros),
                  static_cast<unsigned long long>(r.values));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_session(const Args& args) {
  const auto spec = load_spec(args);
  core::AnalysisSession session{load_run_dataset(args.one("run")), spec};
  const std::string w = args.one_or("window", "");
  if (!w.empty()) {
    const auto win = parse_time_window(args.cmd, w);
    session.select_time_range(win.t0, win.t1);
  }
  for (const auto& b : args.many("brush")) {
    const auto parts = split(b, ':');
    DV_REQUIRE(parts.size() == 3, "--brush must be axis:lo:hi");
    session.brush(parts[0], parse_num(args.cmd, "brush", parts[1]),
                  parse_num(args.cmd, "brush", parts[2]));
  }
  const std::string out = args.one("out");
  session.save_svg(out, args.num_or("width", 1400),
                   args.num_or("height", 900));
  std::printf("wrote %s\n", out.c_str());
  maybe_print_cache_stats(args, session.query_stats());
  return 0;
}

int cmd_compare(const Args& args) {
  const auto paths = args.many("run");
  DV_REQUIRE(paths.size() >= 2, "compare needs at least two --run files");
  std::vector<core::DataSet> datasets;
  datasets.reserve(paths.size());
  for (const auto& p : paths) datasets.push_back(load_run_dataset(p));
  std::vector<const core::DataSet*> ptrs;
  for (const auto& d : datasets) ptrs.push_back(&d);
  const auto spec = load_spec(args);
  const core::ComparisonView cmp(ptrs, spec);
  const std::string out = args.one("out");
  cmp.save_svg(out, args.num_or("size", 520));
  // Also print the per-job summary table (Fig. 13d style).
  const auto summaries = cmp.job_summaries();
  std::printf("%-32s %-12s %14s %14s %10s\n", "run", "job",
              "avg_latency_ns", "data_bytes", "avg_hops");
  for (std::size_t r = 0; r < summaries.size(); ++r) {
    for (const auto& s : summaries[r]) {
      std::printf("%-32s %-12s %14.1f %14.0f %10.2f\n", cmp.label(r).c_str(),
                  s.name.c_str(), s.avg_latency, s.data_size, s.avg_hops);
    }
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_export(const Args& args) {
  const auto run = metrics::RunMetrics::load(args.one("run"));
  const auto table = run.to_csv(args.one_or("entity", "terminals"));
  const std::string out = args.one("out");
  std::ofstream os(out, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open: " + out);
  write_csv(os, table);
  std::printf("wrote %s (%zu rows)\n", out.c_str(), table.rows.size());
  return 0;
}

int cmd_report(const Args& args) {
  const auto paths = args.many("run");
  DV_REQUIRE(!paths.empty(), "at least one --run required");
  auto spec = load_spec(args);
  maybe_apply_window(args, spec);
  std::vector<core::DataSet> datasets;
  datasets.reserve(paths.size());
  for (const auto& p : paths) datasets.push_back(load_run_dataset(p));

  core::ReportBuilder report(
      args.one_or("title", "dragonviz analysis report"));
  if (datasets.size() == 1) {
    const metrics::RunMetrics& run = datasets[0].run();
    report.run_summary(datasets[0]);
    core::QueryEngine engine(datasets[0]);
    const core::ProjectionView view(datasets[0], spec, nullptr, &engine);
    report.projection(view, run.workload + " / " + run.routing + " / " +
                                run.placement);
    if (args.opts.find("cache-stats") != args.opts.end()) {
      report.query_stats(engine.stats());
    }
    maybe_print_cache_stats(args, engine.stats());
  } else {
    std::vector<const core::DataSet*> ptrs;
    for (const auto& d : datasets) ptrs.push_back(&d);
    const core::ComparisonView cmp(ptrs, spec);
    report.comparison(cmp, "comparison under shared visual scales");
  }
  const std::string out = args.one("out");
  report.save(out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_trace_record(const Args& args) {
  const std::string workload = args.one("workload");
  workload::Config cfg;
  cfg.ranks = args.int_or("ranks", std::uint32_t{0});
  cfg.total_bytes = args.int_or("bytes", std::uint64_t{0});
  DV_REQUIRE(cfg.ranks > 0, "--ranks required");
  DV_REQUIRE(cfg.total_bytes > 0, "--bytes required");
  cfg.window = args.num_or("window", 2.0e6);
  cfg.seed = args.int_or("seed", std::uint64_t{1});
  const auto t =
      trace::record(workload, cfg.ranks, workload::generate(workload, cfg));
  const std::string out = args.one("out");
  trace::save_binary(t, out);
  std::printf("recorded %zu messages (%s) from %s to %s\n",
              t.messages.size(),
              human_bytes(static_cast<double>(t.total_bytes())).c_str(),
              workload.c_str(), out.c_str());
  return 0;
}

int cmd_trace_info(const Args& args) {
  const auto t = trace::load_binary(args.one("trace"));
  const auto s = trace::summarize(t);
  std::printf("app:          %s\n", t.app.c_str());
  std::printf("ranks:        %u (%u active senders)\n", t.ranks,
              s.active_ranks);
  std::printf("messages:     %llu\n",
              static_cast<unsigned long long>(s.messages));
  std::printf("bytes:        %s\n",
              human_bytes(static_cast<double>(s.bytes)).c_str());
  std::printf("time span:    %.0f .. %.0f ns\n", s.t_first, s.t_last);
  std::printf("avg degree:   %.1f (max %u)\n", s.avg_degree, s.max_degree);
  std::printf("top 10%% share: %.0f%%\n", s.top_decile_share * 100);
  return 0;
}

int cmd_trace_replay(const Args& args) {
  const auto p = args.int_or("p", std::uint32_t{3});
  const auto seed = args.int_or("seed", std::uint64_t{1});
  const auto t = trace::load_binary(args.one("trace"));
  const auto topo = topo::Dragonfly::canonical(p);
  const auto policy =
      placement::policy_from_string(args.one_or("placement", "contiguous"));
  const auto placement =
      placement::place_jobs(topo, {{t.app, t.ranks, policy}}, seed);
  netsim::Params params;
  apply_fault_params(args, params);
  netsim::Network net(topo, routing::algo_from_string(
                                args.one_or("routing", "adaptive")),
                      params, seed);
  net.set_jobs(placement);
  net.set_labels(t.app, placement::to_string(policy), {t.app});
  net.add_messages(workload::map_to_terminals(t.messages, placement, 0));
  const auto fault_plan = parse_fault_args(args);
  if (!fault_plan.empty()) net.set_fault_plan(fault_plan);
  const double dt = args.num_or("sample-dt", 0.0);
  if (dt > 0) net.enable_sampling(dt);
  const auto run = net.run();
  const std::string out = args.one("out");
  {
    obs::ScopedPhase phase("write");
    run.save(out);
  }
  std::printf("replayed %s (%u ranks) on %s: %llu packets, end=%.0f ns\n",
              t.app.c_str(), t.ranks, topo.describe().c_str(),
              static_cast<unsigned long long>(run.total_packets_finished()),
              run.end_time);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_info(const Args& args) {
  const auto run = metrics::RunMetrics::load(args.one("run"));
  std::printf("workload:   %s\nrouting:    %s\nplacement:  %s\n",
              run.workload.c_str(), run.routing.c_str(),
              run.placement.c_str());
  std::printf("dragonfly:  g=%u a=%u p=%u h=%u (%u terminals)\n", run.groups,
              run.routers_per_group, run.terminals_per_router,
              run.global_per_router,
              run.groups * run.routers_per_group * run.terminals_per_router);
  std::printf("end time:   %.0f ns\n", run.end_time);
  std::printf("traffic:    local=%s global=%s injected=%s\n",
              human_bytes(run.total_local_traffic()).c_str(),
              human_bytes(run.total_global_traffic()).c_str(),
              human_bytes(run.total_injected()).c_str());
  std::printf("packets:    %llu finished\n",
              static_cast<unsigned long long>(run.total_packets_finished()));
  if (!run.router_downtime.empty()) {
    double downtime = 0.0;
    std::uint64_t retries = 0, drops = 0, rerouted = 0;
    for (const auto d : run.router_downtime) downtime += d;
    for (const auto c : run.router_retries) retries += c;
    for (const auto c : run.router_drops) drops += c;
    for (const auto& t : run.terminals) rerouted += t.packets_rerouted;
    std::printf("faults:     %.0f router-ns down, %llu retries, %llu dropped,"
                " %llu rerouted\n",
                downtime, static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(drops),
                static_cast<unsigned long long>(rerouted));
  }
  if (run.has_time_series()) {
    std::printf("sampling:   dt=%.0f ns, %zu frames\n", run.sample_dt,
                run.local_traffic_ts.frames());
  }
  return 0;
}

serve::Server* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

int cmd_serve(const Args& args) {
  serve::ServeOptions opts;
  opts.listen = args.one_or("listen", opts.listen);
  opts.workers = args.int_or("workers", opts.workers);
  opts.max_queue = args.int_or("max-queue", opts.max_queue);
  opts.max_sessions = args.int_or("max-sessions", opts.max_sessions);
  opts.cache_capacity = args.int_or("cache-capacity", opts.cache_capacity);
  opts.cache_shards = args.int_or("cache-shards", opts.cache_shards);
  opts.ready_file = args.one_or("ready-file", "");

  serve::Server server(opts);
  const bool lazy = args.opts.count("lazy") != 0;
  for (const auto& ref : args.many("run")) {
    const auto [name, path] = serve::split_run_ref(ref);
    if (lazy) {
      server.catalog().attach(path, name);
      std::printf("attached '%s' from %s (lazy)\n", name.c_str(),
                  path.c_str());
    } else {
      server.catalog().load(path, name);
      std::printf("preloaded '%s' from %s\n", name.c_str(), path.c_str());
    }
  }
  // --store DIR: lazily attach every run of a RunStore (e.g. a sweep's
  // output) — entries materialize on first use, so sweep-scale catalogs
  // open instantly.
  for (const auto& dir : args.many("store")) {
    const metrics::RunStore store(dir);
    for (const auto& info : store.list()) {
      server.catalog().attach(store.path(info.name), info.name);
    }
    std::printf("attached store %s (%zu runs, lazy)\n", dir.c_str(),
                store.size());
  }

  g_server = &server;
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("dragonviz serve: listening on %s (%zu runs, %zu workers)\n",
              serve::Address::parse(opts.listen).describe().c_str(),
              server.catalog().size(), opts.workers);
  std::fflush(stdout);
  const int rc = server.listen_and_serve();
  g_server = nullptr;
  std::printf("dragonviz serve: stopped\n");
  return rc;
}

/// --spec for the client: a preset reference travels as-is; a script file
/// travels as its contents (the daemon parses the same text the CLI
/// would, so renders are byte-identical to `dragonviz render`).
std::string client_spec_payload(const Args& args) {
  const std::string& ref = args.one("spec");
  return core::is_preset_ref(ref) ? ref : read_file(ref);
}

int cmd_client(const Args& args) {
  // The render request's compound values parse before connecting, so a
  // bad one fails without a daemon round trip.
  json::Array window;
  const std::string w = args.one_or("window", "");
  if (!w.empty()) {
    const auto win = parse_time_window(args.cmd, w);
    window = {json::Value(win.t0), json::Value(win.t1)};
  }
  json::Array focus;
  for (const auto& [ring, item] : parse_focus(args)) {
    focus.push_back(
        json::Value(json::Array{json::Value(ring), json::Value(item)}));
  }

  auto client = serve::Client::connect(
      args.one_or("connect", "unix:/tmp/dragonviz.sock"));

  for (const auto& ref : args.many("load")) {
    const auto [name, path] = serve::split_run_ref(ref);
    json::Object p;
    p["path"] = json::Value(path);
    p["name"] = json::Value(name);
    const auto r = client.call("load", json::Value(std::move(p)));
    std::printf("loaded '%s' (%s / %s)\n", r.get_string("name", "").c_str(),
                r.get_string("workload", "").c_str(),
                r.get_string("routing", "").c_str());
  }

  if (args.opts.count("render") != 0) {
    json::Object p;
    const std::string run = args.one_or("run", "");
    if (!run.empty()) p["run"] = json::Value(run);
    p["spec"] = json::Value(client_spec_payload(args));
    if (!window.empty()) p["window"] = json::Value(std::move(window));
    if (!focus.empty()) p["focus"] = json::Value(std::move(focus));
    if (args.opts.count("size") != 0) {
      p["size"] = json::Value(args.num_or("size", 800));
    }
    if (args.opts.count("title") != 0) {
      p["title"] = json::Value(args.one("title"));
    }
    const auto r = client.call("render", json::Value(std::move(p)));
    const std::string out = args.one("out");
    std::ofstream os(out, std::ios::binary);
    DV_REQUIRE(os.good(), "cannot open: " + out);
    os << r.at("svg").as_string();
    std::printf("wrote %s (run '%s', %.0f rings, %.0f ribbons)\n",
                out.c_str(), r.get_string("run", "").c_str(),
                r.get_number("rings", 0), r.get_number("ribbons", 0));
  }

  if (args.opts.count("report") != 0) {
    json::Object p;
    json::Array runs;
    for (const auto& name : args.many("run")) runs.emplace_back(name);
    if (runs.size() == 1) {
      p["run"] = runs[0];
    } else if (!runs.empty()) {
      p["runs"] = json::Value(std::move(runs));
    }
    p["spec"] = json::Value(client_spec_payload(args));
    if (args.opts.count("title") != 0) {
      p["title"] = json::Value(args.one("title"));
    }
    const auto r = client.call("report", json::Value(std::move(p)));
    const std::string out = args.one("out");
    std::ofstream os(out, std::ios::binary);
    DV_REQUIRE(os.good(), "cannot open: " + out);
    os << r.at("html").as_string();
    std::printf("wrote %s\n", out.c_str());
  }

  if (args.opts.count("list") != 0) {
    const auto r = client.call("list");
    std::printf("%-24s %-20s %-12s %-18s %10s\n", "name", "workload",
                "routing", "placement", "terminals");
    for (const auto& run : r.at("runs").as_array()) {
      std::printf("%-24s %-20s %-12s %-18s %10.0f\n",
                  run.get_string("name", "").c_str(),
                  run.get_string("workload", "").c_str(),
                  run.get_string("routing", "").c_str(),
                  run.get_string("placement", "").c_str(),
                  run.get_number("terminals", 0));
    }
  }

  if (args.opts.count("stats") != 0) {
    std::printf("%s\n", json::dump(client.call("stats"), 2).c_str());
  }

  if (args.opts.count("shutdown") != 0) {
    client.call("shutdown");
    std::printf("daemon stopping\n");
  }
  return 0;
}

/// One subcommand: its handler, the option keys it accepts (without the
/// leading "--"; every command also takes --profile) and its --help
/// block. Args::parse rejects any other key before the handler runs.
struct Command {
  const char* name;
  int (*fn)(const Args&);
  std::vector<std::string> keys;
  const char* help;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"sim", cmd_sim,
       {"p", "job", "out", "routing", "scale", "window", "sample-dt", "seed",
        "faults", "fault", "fault-retry-base", "fault-retry-budget",
        "backend"},
       "  sim      --p N --job workload[:ranks[:policy]] ... --out run.dvr\n"
       "           (--out *.json writes the text export; any other path\n"
       "           the packed .dvr format)\n"
       "           [--routing minimal|nonminimal|adaptive|par]\n"
       "           [--scale F] [--window NS] [--sample-dt NS] [--seed N]\n"
       "           [--faults plan.txt] [--fault SPEC ...]  (fault injection;\n"
       "           SPEC: link:g0.r1->g2.r0@T0[:T1] | link:g0->g2@T0[:T1] |\n"
       "           router:g1.r2@T0[:T1], times in ns, no T1 = permanent)\n"
       "           [--fault-retry-base NS] [--fault-retry-budget N]\n"
       "           [--backend packet|flow]  (flow: max-min water-filling\n"
       "           fluid model — same RunMetrics schema, orders of magnitude\n"
       "           faster; no faults)\n"},
      {"sweep", cmd_sweep,
       {"store", "backend", "p", "workloads", "workload", "routings",
        "routing", "scales", "scale", "window", "seed", "sample-dt",
        "bytes-per-rank", "faults", "fault",
        "fault-retry-base", "fault-retry-budget", "report", "spec", "title"},
       "  sweep    --store DIR [--backend packet|flow] [--p N]\n"
       "           [--workloads a,b|--workload W ...]\n"
       "           [--routings a,b|--routing R ...]"
       " [--scales 0.5,1|--scale F ...]\n"
       "           [--window NS] [--seed N] [--sample-dt NS]"
       " [--bytes-per-rank B]\n"
       "           [--faults plan.txt] [--fault SPEC ...]\n"
       "           [--fault-retry-base NS] [--fault-retry-budget N]"
       "  (packet only)\n"
       "           [--report out.html] [--spec S] [--title T]\n"
       "           (fans the grid, one packed run per point, deterministic\n"
       "           content uids; report = side-by-side shared-scale panels)\n"},
      {"render", cmd_render,
       {"run", "spec", "out", "size", "title", "focus", "window",
        "cache-stats"},
       "  render   --run run.json --spec spec.json --out view.svg [--size PX]\n"
       "           [--title T]\n"
       "           [--focus ring:item]   (click-to-focus drill-down)\n"
       "           [--window T0:T1]      (time-window the aggregation, ns)\n"
       "           [--cache-stats]\n"},
      {"store", cmd_store,
       {"dir", "action", "run", "name"},
       "  store    --dir runs/ [--action list|add|remove]\n"
       "           [--run run.dvr|run.json] [--name NAME]\n"
       "           (add stores the run packed, as DIR/NAME.dvr)\n"},
      {"pack", cmd_pack,
       {"in", "out"},
       "  pack     --in run.json --out run.dvr\n"
       "           (lossless conversion between text and packed columnar\n"
       "           runs; every reader accepts both, bit-identically; --out\n"
       "           *.json is text, any other path dvr)\n"},
      {"inspect", cmd_inspect,
       {"run"},
       "  inspect  --run run.dvr   (header, chunk directory, nonzero counts\n"
       "           of the sampled series — reads no column payload; see\n"
       "           docs/RUN_FORMAT.md)\n"},
      {"session", cmd_session,
       {"run", "spec", "out", "width", "height", "window", "brush",
        "cache-stats"},
       "  session  --run run.json --spec spec.json --out ui.svg\n"
       "           [--width PX] [--height PX]\n"
       "           [--window T0:T1] [--brush axis:lo:hi]\n"
       "           [--cache-stats]\n"},
      {"compare", cmd_compare,
       {"run", "spec", "out", "size"},
       "  compare  --run a.json --run b.json ... --spec spec.json --out c.svg\n"
       "           [--size PX]\n"},
      {"export", cmd_export,
       {"run", "entity", "out"},
       "  export   --run run.json --entity terminals|routers|local_links|"
       "global_links --out t.csv\n"},
      {"info", cmd_info, {"run"}, "  info     --run run.json\n"},
      {"report", cmd_report,
       {"run", "spec", "out", "title", "window", "cache-stats"},
       "  report   --run run.json [--run more.json ...] --spec spec.json\n"
       "           --out report.html [--title T] [--window T0:T1]"
       " [--cache-stats]\n"},
      {"serve", cmd_serve,
       {"listen", "run", "lazy", "store", "workers", "max-queue",
        "max-sessions", "cache-capacity", "cache-shards", "ready-file"},
       "  serve    [--listen unix:/path|tcp:PORT] [--run [name=]run.json ...]\n"
       "           [--lazy]  (attach preloads without materializing; runs\n"
       "           parse on first use — sweep-scale catalogs open instantly)\n"
       "           [--store DIR ...]  (lazily attach every run of a RunStore,\n"
       "           e.g. a sweep's output directory)\n"
       "           [--workers N] [--max-queue N] [--max-sessions N]\n"
       "           [--cache-capacity N] [--cache-shards N]"
       " [--ready-file F]\n"
       "           (multi-tenant query daemon; see docs/SERVE_PROTOCOL.md)\n"},
      {"client", cmd_client,
       {"connect", "load", "render", "spec", "out", "run", "size", "title",
        "window", "focus", "report", "list", "stats", "shutdown"},
       "  client   [--connect ADDR] [--load [name=]run.json ...]\n"
       "           [--render --spec S --out view.svg [--run NAME] [--size PX]\n"
       "            [--title T] [--window T0:T1] [--focus ring:item]]\n"
       "           [--report --spec S --out report.html [--run NAME ...]]\n"
       "           [--list] [--stats] [--shutdown]\n"},
      {"trace-record", cmd_trace_record,
       {"workload", "ranks", "bytes", "window", "seed", "out"},
       "  trace-record --workload amg --ranks N --bytes B --out t.dvtr\n"
       "           [--window NS] [--seed N]\n"},
      {"trace-info", cmd_trace_info,
       {"trace"},
       "  trace-info   --trace t.dvtr\n"},
      {"trace-replay", cmd_trace_replay,
       {"trace", "p", "out", "placement", "routing", "seed", "sample-dt",
        "faults", "fault", "fault-retry-base", "fault-retry-budget"},
       "  trace-replay --trace t.dvtr --p N --out run.dvr\n"
       "           (--out *.json writes the text export)\n"
       "           [--placement P] [--routing R] [--seed N] [--sample-dt NS]\n"
       "           [--faults plan.txt] [--fault SPEC ...]\n"
       "           [--fault-retry-base NS] [--fault-retry-budget N]\n"},
  };
  return table;
}

void print_help() {
  std::printf(
      "dragonviz — visual analytics for large-scale dragonfly networks\n\n"
      "every subcommand takes [--profile[=prof.json]]  (counters + phase\n"
      "breakdown of the invocation; bare --profile names it after --out)\n\n"
      "subcommands:\n");
  for (const Command& c : commands()) std::printf("%s", c.help);
  std::printf(
      "\n"
      "workloads: %s\n"
      "policies:  contiguous random_group random_router random_node\n",
      join(workload::workload_names(), " ").c_str());
}

}  // namespace

std::vector<CommandOptions> command_options() {
  std::vector<CommandOptions> out;
  for (const Command& c : commands()) out.push_back({c.name, c.keys, c.help});
  return out;
}

int run_cli(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "--help" ||
      std::string(argv[1]) == "help") {
    print_help();
    return argc < 2 ? 1 : 0;
  }
  const std::string cmd = argv[1];
  const auto& table = commands();
  const auto c = std::find_if(table.begin(), table.end(),
                              [&](const Command& e) { return cmd == e.name; });
  if (c == table.end()) {
    throw Error("unknown subcommand: " + cmd + " (try --help)");
  }
  const Args args = Args::parse(cmd, c->keys, argc, argv, 2);
  obs::reset();  // profile this invocation only
  const int rc = c->fn(args);
  maybe_write_profile(cmd, args);
  return rc;
}

}  // namespace dv::app
