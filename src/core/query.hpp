// Query engine for the VA pipeline (the paper's interactive loop, Fig. 6).
//
// Brushing a time range re-executes filter → aggregate → project; doing
// that from scratch over the full run is O(rows x samples) per brush. The
// QueryEngine makes it incremental:
//
//  1. Time-windowed tables: windowable metric columns are restricted to
//     [t0, t1) through the DataSet's prefix slabs (O(rows) per window, no
//     RunMetrics copy, no table rebuild).
//  2. Group slabs: for window-independent groupings reduced with kSum over
//     a sampled attribute, a per-(grouping, attr) prefix array over groups
//     is built once; every subsequent window is an O(groups) delta.
//  3. A result cache keyed by a canonical 64-bit hash of (kind, entity,
//     spec, filters, quantized window, dataset uid) with LRU eviction. A
//     DataSet is immutable, so an entry never goes stale; entries of
//     datasets that are gone simply age out of the LRU.
//
// Determinism contract: the evaluation path for a query is a pure function
// of the query itself (never of cache state), so a cached result is
// bit-exact with what a fresh engine would recompute.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aggregation.hpp"
#include "core/datatable.hpp"

namespace dv {
namespace obs {
class Counter;
class Gauge;
}  // namespace obs

namespace core {

/// Cache effectiveness counters. Per cache instance: each ResultCache owns
/// its own QueryStats (and mirrors into its own obs scope, "core.cache.*"
/// by default), so a daemon's shared cache and a CLI engine's private cache
/// in the same process never alias each other's numbers.
struct QueryStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;    ///< hits that joined an in-flight compute
  std::uint64_t evictions = 0;
  std::uint64_t slab_builds = 0;  ///< group-slab constructions (cold)
  std::uint64_t slab_reduces = 0; ///< O(groups) windowed reductions (warm)
  std::size_t entries = 0;        ///< live cache entries
};

/// Sharded LRU result cache — the concurrency substrate
/// the QueryEngine (and the serve daemon's shared catalog) computes through.
///
/// Keys are canonical 64-bit hashes (FNV-1a over the dataset uid and the
/// query description); values are type-erased shared_ptrs. The cache is
/// safe for concurrent use: each shard has its own mutex + LRU list, and a
/// key maps to exactly one shard. Identical concurrent computations are
/// coalesced — the second caller blocks on the first's in-flight compute and
/// shares its result instead of recomputing (the request "batching" of the
/// serve daemon's admission layer). This is sound because of the engine's
/// determinism contract: a result is a pure function of its key's query.
class ResultCache {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const void> value;
    // Keeps a windowed table alive while a cached Aggregation refers to it.
    std::shared_ptr<const void> dep;
  };

  /// `capacity` bounds live entries across all shards; `shards` must be a
  /// power of two (1 = the PR 3 single-list behaviour, byte-compatible
  /// eviction order). `obs_scope` prefixes the mirrored obs counter names.
  explicit ResultCache(std::size_t capacity = 128, std::size_t shards = 1,
                       std::string obs_scope = "core.cache");

  /// LRU lookup-or-compute. `make` runs outside every cache lock; identical
  /// concurrent calls coalesce onto one compute. If `make` throws, waiters
  /// are released and retry the compute themselves.
  std::shared_ptr<const void> get_or_compute(
      std::uint64_t key, const std::function<Entry()>& make);

  /// Aggregated over shards. `entries` is exact; the counters are summed.
  QueryStats stats() const;
  void clear();

  /// Slab counters live here too so QueryStats stays one struct; the
  /// QueryEngine calls these from its slab build / reduce paths.
  void count_slab_build();
  void count_slab_reduce();

 private:
  struct InFlight {
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    std::shared_ptr<const void> value;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> in_flight;
    QueryStats stats;
  };

  Shard& shard_of(std::uint64_t key) {
    return shards_[(key >> 48) & shard_mask_];
  }

  std::size_t cap_per_shard_;
  std::size_t shard_mask_;
  std::vector<Shard> shards_;
  std::atomic<std::size_t> entries_{0};  ///< live entries across shards

  // Per-instance obs mirror (null when observability is compiled out).
  obs::Counter* obs_hit_ = nullptr;
  obs::Counter* obs_miss_ = nullptr;
  obs::Counter* obs_evict_ = nullptr;
  obs::Counter* obs_slab_build_ = nullptr;
  obs::Counter* obs_slab_reduce_ = nullptr;
  obs::Gauge* obs_size_ = nullptr;
};

class QueryEngine {
 public:
  /// The dataset must outlive the engine. `capacity` bounds the number of
  /// cached results (tables, aggregations, slabs, reductions combined) in
  /// the engine's own private cache.
  explicit QueryEngine(const DataSet& data, std::size_t capacity = 128);

  /// Shares `cache` with other engines (the serve daemon: one sharded cache
  /// across every loaded run and session). Keys embed the dataset's uid, so
  /// engines over different datasets never collide.
  QueryEngine(const DataSet& data, std::shared_ptr<ResultCache> cache);

  const DataSet& data() const { return *data_; }

  /// The entity table restricted to `w`: DataSet::windowed_table, cached
  /// per quantized frame range. An inactive window returns the base table
  /// itself (an aliasing pointer: no copy, no cache entry).
  std::shared_ptr<const DataTable> table(Entity e, TimeWindow w);

  /// Grouping for `spec`. Built over the windowed table only when a key or
  /// filter attribute actually varies with the window; otherwise the
  /// grouping is window-independent and shared across brushes.
  std::shared_ptr<const Aggregation> aggregate(Entity e,
                                               const AggregationSpec& spec);

  /// Per-group reduction of one attribute. Windowed kSum reductions over
  /// sampled attributes go through a group slab when the grouping is
  /// window-independent.
  std::shared_ptr<const std::vector<double>> reduce(
      Entity e, const AggregationSpec& spec, const std::string& attr,
      Reducer r);
  std::shared_ptr<const std::vector<double>> reduce(
      Entity e, const AggregationSpec& spec, const std::string& attr);

  /// The cache this engine computes through (its own, or the shared one it
  /// was constructed with).
  const std::shared_ptr<ResultCache>& cache() const { return cache_; }

  QueryStats stats() const;
  void clear();

 private:
  struct GroupSlab {
    std::size_t groups = 0;
    std::size_t frames = 0;
    std::vector<double> prefix;  // (frames+1) x groups, frame-major
    double value(std::size_t g, std::size_t f0, std::size_t f1) const {
      return prefix[f1 * groups + g] - prefix[f0 * groups + g];
    }
  };

  /// True when the grouping (keys or filters) reads a windowable attribute,
  /// i.e. the group structure itself depends on the window.
  bool grouping_windowed(Entity e, const AggregationSpec& spec) const;
  /// Quantized [f0, f1) of an active window for entity e's series.
  std::pair<std::size_t, std::size_t> frame_range(Entity e,
                                                  TimeWindow w) const;

  std::shared_ptr<const GroupSlab> group_slab(Entity e,
                                              const AggregationSpec& spec,
                                              const std::string& attr);

  const DataSet* data_;
  std::shared_ptr<ResultCache> cache_;
};

/// Runs independent view-pipeline tasks (projection rings, report panels)
/// on a small shared worker pool. Exceptions thrown by tasks are captured
/// and the first one is rethrown on the caller after all tasks finish.
/// Each call waits only for its own tasks, so concurrent callers (daemon
/// renders) do not wait on each other. Nested calls from inside a pool
/// task run sequentially. Thread count: min(4, hardware_concurrency).
void run_parallel(std::vector<std::function<void()>> tasks);

}  // namespace core
}  // namespace dv
