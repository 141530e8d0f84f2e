// Column-oriented data tables — the substrate of the VA layer.
//
// A DataTable holds one entity class (routers, links, terminals...) as
// named numeric columns. The EntityTree of Fig. 2(a) is represented as a
// DataSet: one table per entity class plus the cross-references that link
// them (router ids on links and terminals), which is what the aggregation
// and projection machinery traverses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "util/common.hpp"

namespace dv::core {

/// One entity class as named columns of doubles (column-major).
class DataTable {
 public:
  DataTable() = default;
  explicit DataTable(std::size_t rows) : rows_(rows) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return names_.size(); }

  /// Adds a column (must match the row count; a table with 0 rows adopts
  /// the column's length).
  void add_column(const std::string& name, std::vector<double> values);
  /// Replaces an existing column (same length).
  void set_column(const std::string& name, std::vector<double> values);
  bool has_column(const std::string& name) const;
  const std::vector<double>& column(const std::string& name) const;  // throws
  const std::vector<std::string>& column_names() const { return names_; }

  /// Min/max of a column. Extents are precomputed at add/set time
  /// (table-level zone maps), so this is O(1) and safe to call from
  /// concurrent readers.
  std::pair<double, double> extent(const std::string& name) const;

 private:
  std::size_t rows_ = 0;
  std::vector<std::string> names_;
  std::vector<std::vector<double>> columns_;
  std::vector<std::pair<double, double>> extents_;  // parallel to columns_
};

/// Entity classes in a Dragonfly run (Fig. 2a).
enum class Entity { kRouter, kLocalLink, kGlobalLink, kTerminal };

Entity entity_from_string(const std::string& name);  // throws on unknown
std::string to_string(Entity e);

/// A full run as a set of linked entity tables, plus the topology shape
/// needed to resolve references and time series for range re-aggregation.
/// Immutable once built: a copy shares the run, tables, slabs and uid(),
/// and therefore every cache entry keyed on them.
class DataSet {
 public:
  /// Builds all entity tables from a simulation result (pass an rvalue to
  /// move the run in instead of copying it). Columns:
  ///  routers:      router, group_id, router_rank, global_traffic,
  ///                global_sat_time, local_traffic, local_sat_time
  ///  local_links / global_links:
  ///                src_router, src_port, dst_router, dst_port,
  ///                group_id, router_rank, router_port, traffic, sat_time
  ///  terminals:    terminal, router, group_id, router_rank, router_port,
  ///                data_size, sat_time, packets_finished, avg_latency
  ///                (alias: avg_packet_latency), avg_hops, workload (job id)
  explicit DataSet(metrics::RunMetrics run);

  const DataTable& table(Entity e) const;
  const metrics::RunMetrics& run() const { return *run_; }

  std::uint32_t groups() const { return run_->groups; }
  std::uint32_t routers_per_group() const { return run_->routers_per_group; }

  bool has_time_series() const { return run_->has_time_series(); }
  /// The prefix-summed slabs backing windowed reduction, one per sampled
  /// series and indexed like metrics::schema::kSeries (requires time
  /// series). Built once per DataSet (O(frames x entities)); every windowed
  /// reduction afterwards is a prefix delta, so a brushed time range
  /// re-aggregates in O(rows) instead of O(rows x frames).
  const std::vector<metrics::PrefixSeries>& slabs() const;

  /// True when `attr` of entity `e` varies with the time window: a
  /// schema::kSeries entry windows it (its `column` on the series' own
  /// section, its `router_column` on routers).
  static bool windowable(Entity e, const std::string& attr);
  /// The prefix slab whose entity index matches rows of table(e), for a
  /// windowable attr. Router attrs are sums over links, so they have no
  /// per-row slab — use windowed_table for those.
  const metrics::PrefixSeries& prefix_for(Entity e,
                                          const std::string& attr) const;
  /// The frame range [t0, t1) quantizes to for entity `e`: that of the
  /// first series windowing `e`.
  std::pair<std::size_t, std::size_t> frame_range(Entity e, double t0,
                                                  double t1) const;

  /// Copy of table(e) with every windowable column restricted to [t0, t1),
  /// the values a DataSet rebuilt from the run sliced to [t0, t1) would
  /// hold. Router columns are re-accumulated from the windowed links in the
  /// same order as metrics::RunMetrics::derive_routers, so they are
  /// bit-exact with such a rebuild too. QueryEngine::table caches these.
  DataTable windowed_table(Entity e, double t0, double t1) const;

  /// Process-unique dataset identity (assigned at construction, shared by
  /// copies, never reused). Cache keys embed it so one ResultCache can be
  /// shared across many datasets — e.g. the serve daemon's catalog —
  /// without key collisions between runs.
  std::uint64_t uid() const { return uid_; }

 private:
  struct Tables {
    DataTable routers, local_links, global_links, terminals;
  };

  void build();

  static std::uint64_t next_uid();

  std::shared_ptr<const metrics::RunMetrics> run_;
  std::shared_ptr<const std::vector<metrics::PrefixSeries>> slabs_;
  std::shared_ptr<const Tables> tables_;
  std::uint64_t uid_ = next_uid();
};

}  // namespace dv::core
