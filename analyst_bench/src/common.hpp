// Shared machinery of the analyst-loop benchmark: the in-memory span
// tracer, the per-run recorder (set-up repetitions, timed passes, counts,
// correctness checks), the module-level packet simulation the workloads
// drive, and the brush-view helpers shared by the in-process and daemon
// paths.
//
// Every span is opened by the benchmark around a call into a public entry
// point of one dragonviz module; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "core/projection.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_metrics.hpp"

namespace ab {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

// ---------------------------------------------------------------- tracing

/// Spans kept in memory and written out when the run ends. A span has a
/// name ("<layer>.<call>", or "stage.*"/"unit" for the benchmark's own
/// structure), an interval, a parent, a request id and the unit (set-up
/// repetition or pass) it belongs to. A *reported* span carries a duration
/// the program itself returned (e.g. a sweep point's simulation wall time)
/// but no interval; it only reduces its parent's self time.
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = none
  std::uint32_t unit = 0;
  std::string name;
  std::uint64_t rid = 0;  ///< request id (client/step), 0 when not a request
  double start = 0.0, end = 0.0;  ///< seconds since the tracer started
  bool reported = false;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  /// Switches recording on or off (untraced passes of a traced run).
  void set_enabled(bool on) { enabled_ = on; }
  void set_unit(std::uint32_t unit) { unit_ = unit; }

  std::uint32_t open(const std::string& name, std::uint32_t parent,
                     std::uint64_t rid);
  void close(std::uint32_t id);
  void reported(const std::string& name, std::uint32_t parent,
                double seconds);

  std::vector<SpanRecord> spans() const;

 private:
  bool enabled_ = false;
  std::uint32_t unit_ = 0;
  Clock::time_point t0_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // index = id - 1
};

/// RAII span. Nested spans on one thread find their parent through a
/// thread-local stack; a thread that starts work for another span (a serve
/// client) passes that span's id explicitly.
class Span {
 public:
  Span(Tracer& tr, const std::string& name, std::uint64_t rid = 0);
  Span(Tracer& tr, const std::string& name, std::uint32_t parent,
       std::uint64_t rid);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tr_;
  std::uint32_t id_ = 0;
  std::uint32_t saved_ = 0;
};

// --------------------------------------------------------------- recorder

/// One set-up repetition or one timed pass.
struct Unit {
  std::string kind;  ///< "setup", "warmup" or "pass"
  bool traced = false;
  double wall_s = 0.0;
  // Stage timings (passes only).
  double produce_s = 0.0;     ///< simulate/sweep + persist (0 when in set-up)
  double first_view_s = 0.0;  ///< open the run(s) -> first SVG
  double brush_wall_s = 0.0;  ///< whole brush stage
  double report_s = 0.0;      ///< report build
  std::vector<double> brush_ms;  ///< one sample per brush step
  std::map<std::string, double> counts;  ///< per-layer counts
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Recorder {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::vector<Unit> units;
  std::vector<Check> checks;
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_failed = 0;

  void check(const std::string& name, bool ok, const std::string& detail);
  /// Counts `n` attempted operations of which `failed` failed.
  void ops(std::uint64_t n, std::uint64_t failed = 0);
};

/// Everything a workload needs from the command line.
struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  Tracer tracer;
  Recorder rec;

  /// Starts a unit: records it and, in a traced run, tags later spans
  /// with its index. `traced` selects whether this unit records spans.
  Unit& begin_unit(const std::string& kind, bool traced);
};

/// Runs `fn` `reps` times as set-up units, each timed as a whole.
void run_setups(Context& ctx, int reps, const std::function<void(Unit&)>& fn);

/// Correctness checks of one pass, run after its wall time is taken.
using Verify = std::function<void()>;

/// Runs `fn(unit, pass)` once as an unmeasured warm-up (pass 0), then as
/// timed passes (each a fixed amount of work) until ctx.seconds of them
/// have run and at least `min_passes`; each pass's returned checks run
/// after its wall time is taken. A traced run alternates untraced and
/// traced passes, at least two of each, so the tracing overhead is
/// measured within one run.
void run_passes(Context& ctx, std::size_t min_passes,
                const std::function<Verify(Unit&, std::size_t)>& fn);

/// Records the .dvr reader counters accumulated since `before`.
void count_dvr(Unit& u, const dv::metrics::DvrStats& before);
/// Records a result cache's effectiveness counters.
void count_cache(Unit& u, const dv::core::QueryStats& s);

/// Writes the raw result (units, checks, spans, provenance) as JSON.
void write_result(const Context& ctx, const std::string& path);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

// ------------------------------------------------------------- simulation

/// The placed jobs and terminal-level messages an experiment config
/// implies — the first half of app::run_experiment.
struct Traffic {
  dv::topo::Dragonfly topo = dv::topo::Dragonfly::canonical(1);
  dv::placement::Placement placed;
  std::vector<dv::netsim::Message> messages;
  std::string label;
  std::vector<std::string> job_names;
  std::uint64_t bytes() const;
};
Traffic make_traffic(const dv::app::ExperimentConfig& cfg, Tracer& tr);

struct SimOutput {
  dv::metrics::RunMetrics run;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
};

/// The packet-backend path of app::run_experiment, driven module by module
/// (placement -> workload -> netsim) so each layer gets its own span. The
/// loop workload checks once per run that its run content uid equals
/// run_experiment's.
SimOutput simulate_packet(const dv::app::ExperimentConfig& cfg, Tracer& tr);

std::uint64_t file_bytes(const std::string& path);

// ------------------------------------------------------------ brush views

/// One step of an analyst's brushing session: a preset, a time window
/// given as fractions of the run's end time, and the attribute brush
/// change applied before rendering.
struct BrushStep {
  std::string preset;
  double w0 = 0.0, w1 = 1.0;  ///< window as fractions of end_time
  enum class Brush { kKeep, kSet, kClear } brush = Brush::kKeep;
  std::string axis;
  double lo = 0.0, hi = 0.0;
};

/// Brush state as the serve daemon keeps it per session: re-brushing an
/// axis replaces its range, clear drops all.
struct BrushState {
  std::vector<dv::core::AttrFilter> brushes;
  void apply(const BrushStep& step);
  std::string key() const;
};

/// The spec a daemon render of `step` builds: preset + window + the
/// session brushes as AND-combined filters on every level whose entity
/// table carries the attribute (serve's apply_window/apply_brushes).
dv::core::ProjectionSpec brush_spec(const dv::core::DataSet& data,
                                    const BrushStep& step,
                                    const BrushState& state);

/// Canonical description of a view (preset, window, brushes) — equal keys
/// must render byte-identical SVGs.
std::string view_key(const BrushStep& step, const BrushState& state,
                     double end_time);

/// Window of `step` in ns for a run ending at `end_time`.
std::pair<double, double> window_ns(const BrushStep& step, double end_time);

/// The default render title of the CLI and the daemon.
std::string default_title(const dv::metrics::RunMetrics& run);

std::uint64_t fnv1a(const std::string& bytes);

/// The benchmark's own input generator (splitmix64), so the inputs a seed
/// produces never depend on the code under test.
class Prng {
 public:
  Prng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n);    ///< [0, n)

 private:
  std::uint64_t state_;
};

/// How a brushing session is drawn. Its mix is fixed and only the order
/// and values are random, so sessions from different seeds cost alike:
/// every block of presets.size() steps uses each preset once; even steps
/// take a window from the shared pool (when there is one), odd steps a
/// fresh one; every fifth step sets a group_id or router_rank brush and
/// every tenth clears all brushes.
struct ScheduleSpec {
  std::vector<std::string> presets;
  std::size_t steps = 40;
  std::vector<std::pair<double, double>> shared_windows;
  std::uint32_t groups = 1;  ///< brush ranges stay inside [0, groups)
  std::uint32_t ranks = 1;   ///< routers per group
};

/// A seeded brushing session.
std::vector<BrushStep> make_schedule(const ScheduleSpec& spec, Prng& rng);

/// `count` indices into `n` items where every block of n is a permutation.
std::vector<std::size_t> balanced_picks(std::size_t n, std::size_t count,
                                        Prng& rng);

/// `n` windows (fractions of end time) drawn from `rng`, at least 5% wide.
std::vector<std::pair<double, double>> make_windows(std::size_t n, Prng& rng);

// -------------------------------------------------------------- workloads

void run_loop_df6_packet(Context& ctx);   // loop.cpp
void run_brush_serve_df6(Context& ctx);   // serve_brush.cpp
void run_sweep_df5_flow(Context& ctx);    // sweep.cpp

}  // namespace ab
