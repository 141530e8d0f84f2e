// Simulation output schema — the data the VA layer consumes.
//
// Mirrors Fig. 2(a) of the paper: per-entity metric records for routers,
// local/global links and terminals, plus (Sec. III) time-series sampling of
// every link-class metric at a configurable rate so temporal behaviour can
// be explored and a time range re-aggregated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "util/common.hpp"
#include "util/csv.hpp"

namespace dv::metrics {

/// One directed network link (local or global).
struct LinkMetrics {
  std::uint32_t src_router = 0;
  std::uint32_t src_port = 0;
  std::uint32_t dst_router = 0;
  std::uint32_t dst_port = 0;
  double traffic = 0.0;   ///< bytes transmitted
  double sat_time = 0.0;  ///< total ns during which VC buffers were full
  // Fault injection (all zero on a healthy run).
  double downtime = 0.0;  ///< ns the link was effectively unusable
  std::uint64_t retries = 0;       ///< fault retries of packets aimed here
  std::uint64_t pkts_dropped = 0;  ///< packets dropped while aimed here
};

/// One terminal (compute node NIC) — Fig. 2(a) "Terminal".
struct TerminalMetrics {
  std::uint32_t router = 0;  ///< router the terminal attaches to
  std::uint32_t port = 0;    ///< terminal slot on that router
  double data_size = 0.0;    ///< bytes injected by this terminal
  double sat_time = 0.0;     ///< injection-link buffer-full time (ns)
  std::uint64_t packets_finished = 0;  ///< packets delivered to this terminal
  double sum_latency = 0.0;  ///< over finished packets (ns)
  double sum_hops = 0.0;     ///< router visits over finished packets
  std::int32_t job = -1;     ///< job id, -1 when idle
  // Fault injection (all zero on a healthy run).
  std::uint64_t packets_rerouted = 0;  ///< delivered via a fault detour
  std::uint64_t packets_dropped = 0;   ///< sourced here, dropped in flight
  double downtime = 0.0;               ///< ns the attached router was down

  double avg_latency() const {
    return packets_finished ? sum_latency / static_cast<double>(packets_finished) : 0.0;
  }
  double avg_hops() const {
    return packets_finished ? sum_hops / static_cast<double>(packets_finished) : 0.0;
  }
  /// Fraction of delivered packets that reached here via a fault detour.
  double rerouted_frac() const {
    return packets_finished
               ? static_cast<double>(packets_rerouted) /
                     static_cast<double>(packets_finished)
               : 0.0;
  }
};

/// Per-router aggregate — Fig. 2(a) "Router" (derived from link metrics).
struct RouterMetrics {
  std::uint32_t router = 0;
  std::uint32_t group = 0;
  std::uint32_t rank = 0;
  double global_traffic = 0.0;
  double global_sat_time = 0.0;
  double local_traffic = 0.0;
  double local_sat_time = 0.0;
  // Fault injection (all zero on a healthy run).
  double downtime = 0.0;           ///< ns the router was down
  std::uint64_t retries = 0;       ///< fault retries issued at this router
  std::uint64_t pkts_dropped = 0;  ///< packets dropped at this router
};

/// Fixed-rate sampled series for one entity class: frame f stores the
/// *delta* of a metric for every entity during [f*dt, (f+1)*dt).
class SampledSeries {
 public:
  SampledSeries() = default;
  SampledSeries(std::size_t entities, double dt)
      : entities_(entities), dt_(dt) {}

  std::size_t entities() const { return entities_; }
  std::size_t frames() const {
    return entities_ ? data_.size() / entities_ : 0;
  }
  double dt() const { return dt_; }
  bool empty() const { return data_.empty(); }

  void push_frame(const std::vector<float>& deltas);
  /// Appends one frame and returns a pointer to its `entities()` floats for
  /// in-place filling — the allocation-free counterpart of push_frame used
  /// by the simulator's per-tick flush (no temporary frame vector).
  float* push_frame_raw();
  float at(std::size_t frame, std::size_t entity) const;

  /// Frame-major raw storage (frames() x entities() floats) — the
  /// contiguous span the vectorized kernels, the prefix-slab build, and
  /// the .dvr column writer read directly.
  const float* data() const { return data_.data(); }

  /// Adopts whole frame-major storage in one move (the .dvr reader's
  /// allocation-free ingest path). `data.size()` must be a multiple of
  /// `entities` (zero entities requires empty data).
  static SampledSeries adopt(std::size_t entities, double dt,
                             std::vector<float> data);

  /// Sum over all entities in one frame.
  double frame_total(std::size_t frame) const;

 private:
  std::size_t entities_ = 0;
  double dt_ = 0.0;
  std::vector<float> data_;  // frame-major
};

/// Prefix-summed view of a SampledSeries: P[f][e] accumulates the frames
/// [0, f) of entity e, so the windowed sum over frames [f0, f1) is the O(1)
/// delta P[f1][e] - P[f0][e] instead of an O(f1-f0) scan. The VA layer's
/// windowed tables and the tests' from-scratch slicing oracle both reduce
/// through one PrefixSeries per sampled metric, which makes them bit-exact
/// with each other.
class PrefixSeries {
 public:
  PrefixSeries() = default;
  explicit PrefixSeries(const SampledSeries& s);

  std::size_t entities() const { return entities_; }
  std::size_t frames() const {
    return entities_ ? prefix_.size() / entities_ - 1 : 0;
  }
  double dt() const { return dt_; }
  bool empty() const { return prefix_.empty(); }

  /// Sum over frames [f0, f1) for one entity, as a prefix delta.
  double range_sum(std::size_t entity, std::size_t f0, std::size_t f1) const;

  /// Frame-major raw prefix storage ((frames()+1) x entities() doubles).
  /// Hot loops (the query engine's group-slab build) index this directly:
  /// range_sum(e, f0, f1) == p[f1*entities()+e] - p[f0*entities()+e].
  const double* prefix_data() const { return prefix_.data(); }

  /// Half-open frame quantization of the time range [t0, t1): frame f
  /// covers [f*dt, (f+1)*dt), so adjacent ranges partition the frames
  /// exactly (no double counting). Clamped to the sampled span.
  std::pair<std::size_t, std::size_t> frame_range(double t0, double t1) const;

 private:
  std::size_t entities_ = 0;
  double dt_ = 0.0;
  std::vector<double> prefix_;  // (frames+1) x entities, frame-major
};

/// On-disk representation of a run: the text (JSON) export or the packed
/// columnar .dvr format of dvr.hpp. Both load() identically.
enum class StoreFormat { kText, kPacked };

std::string to_string(StoreFormat f);

/// The one rule every run writer follows: a path ending in ".json" is the
/// text export, every other path is written packed.
StoreFormat format_for_path(const std::string& path);

/// Everything one simulation run produces.
struct RunMetrics {
  // Configuration echo (enough to rebuild entity relations in the VA layer).
  std::uint32_t groups = 0;
  std::uint32_t routers_per_group = 0;
  std::uint32_t terminals_per_router = 0;
  std::uint32_t global_per_router = 0;
  std::string workload;
  std::string routing;
  std::string placement;
  std::uint64_t seed = 0;
  double end_time = 0.0;  ///< simulated ns at completion
  std::vector<std::string> job_names;

  std::vector<LinkMetrics> local_links;   // id = router*(a-1)+lport
  std::vector<LinkMetrics> global_links;  // id = router*h+channel
  std::vector<TerminalMetrics> terminals;

  // Per-router fault tallies (empty on a healthy run; index = router id).
  std::vector<double> router_downtime;
  std::vector<std::uint64_t> router_retries;
  std::vector<std::uint64_t> router_drops;

  // Optional sampling (enabled per run); indices match the vectors above.
  double sample_dt = 0.0;
  SampledSeries local_traffic_ts, local_sat_ts;
  SampledSeries global_traffic_ts, global_sat_ts;
  SampledSeries term_traffic_ts, term_sat_ts;

  bool has_time_series() const { return sample_dt > 0.0; }

  /// Derives the per-router record of Fig. 2(a).
  std::vector<RouterMetrics> derive_routers() const;

  // Totals (used by timeline plots and sanity tests).
  double total_local_traffic() const;
  double total_global_traffic() const;
  double total_terminal_traffic() const;
  double total_injected() const;
  std::uint64_t total_packets_finished() const;

  // Serialization. save() picks the format from the path through
  // format_for_path: a ".json" path gets the text export, any other path
  // the packed .dvr format of dvr.hpp (save_dvr). load() sniffs the
  // on-disk magic, not the extension, and accepts either, so every
  // reader (CLI, serve catalog, `store --action add`) takes both and old
  // text runs still open. Text parse errors are rethrown with the file
  // path and the offending line number; a UTF-8 BOM, CRLF line endings and
  // trailing whitespace are tolerated. Either format is published atomically
  // (tmp + fsync + rename), so a reader never sees a torn file, and
  // save() returns the run's content uid (run_content_uid in dvr.hpp).
  // Both readers (from_json, and DvrFile::load_all behind load_dvr) end
  // with validate(), so a loaded run never indexes past its shape.
  json::Value to_json() const;
  static RunMetrics from_json(const json::Value& v);
  std::uint64_t save(const std::string& path) const;
  static RunMetrics load(const std::string& path);

  /// Checks what the views index by: sample_dt is finite and >= 0, every
  /// router id column of the records is below groups × routers_per_group,
  /// every terminal job is in [-1, job_names.size()), and, on a sampled
  /// run, each series' dt equals sample_dt, its entity count equals its
  /// record count and every series with entities has the same frame
  /// count. Throws a dv::Error naming the section, column and row, e.g.
  /// `local_links.src_router[0] = 5898240 (>= 36 routers)`.
  void validate() const;

  /// CSV export of one entity class: "local_links", "global_links",
  /// "terminals" or "routers".
  CsvTable to_csv(const std::string& entity_class) const;
};

}  // namespace dv::metrics
