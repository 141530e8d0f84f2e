#include "core/query.hpp"

#include <algorithm>
#include <cstring>
#include <latch>

#include "obs/obs.hpp"
#include "util/threadpool.hpp"

namespace dv::core {

namespace {

// FNV-1a 64-bit over a canonical byte stream. Doubles hash by bit pattern,
// so -0.0 != 0.0 — acceptable: distinct keys only cost a duplicate entry.
struct Hasher {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    u64(b);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

enum CacheKind : std::uint64_t {
  kTableKind = 1,
  kAggKind = 2,
  kSlabKind = 3,
  kReduceKind = 4,
};

// Filters are AND-combined, so their order is irrelevant — sort for a
// canonical key. Key order matters and is hashed as-is.
void hash_spec(Hasher& h, Entity e, const AggregationSpec& spec) {
  h.u64(static_cast<std::uint64_t>(e));
  h.u64(spec.keys.size());
  for (const auto& k : spec.keys) h.str(k);
  h.u64(spec.max_bins);
  std::vector<AttrFilter> filters = spec.filters;
  std::sort(filters.begin(), filters.end(),
            [](const AttrFilter& a, const AttrFilter& b) {
              if (a.attr != b.attr) return a.attr < b.attr;
              if (a.lo != b.lo) return a.lo < b.lo;
              return a.hi < b.hi;
            });
  h.u64(filters.size());
  for (const auto& f : filters) {
    h.str(f.attr);
    h.f64(f.lo);
    h.f64(f.hi);
  }
}

}  // namespace

// ------------------------------------------------------------- ResultCache

ResultCache::ResultCache(std::size_t capacity, std::size_t shards,
                         std::string obs_scope) {
  DV_REQUIRE(shards > 0 && (shards & (shards - 1)) == 0,
             "cache shard count must be a power of two");
  shard_mask_ = shards - 1;
  cap_per_shard_ = std::max<std::size_t>(1, (capacity + shards - 1) / shards);
  shards_ = std::vector<Shard>(shards);
  if (obs::kEnabled) {
    obs_hit_ = &obs::counter(obs_scope + ".hit");
    obs_miss_ = &obs::counter(obs_scope + ".miss");
    obs_evict_ = &obs::counter(obs_scope + ".evict");
    obs_slab_build_ = &obs::counter(obs_scope + ".slab_build");
    obs_slab_reduce_ = &obs::counter(obs_scope + ".slab_reduce");
    obs_size_ = &obs::gauge(obs_scope + ".size");
  }
}

std::shared_ptr<const void> ResultCache::get_or_compute(
    std::uint64_t key, const std::function<Entry()>& make) {
  Shard& sh = shard_of(key);
  std::shared_ptr<InFlight> mine;
  {
    std::unique_lock<std::mutex> lock(sh.mu);
    for (;;) {
      auto it = sh.index.find(key);
      if (it != sh.index.end()) {
        ++sh.stats.hits;
        if (obs_hit_) obs_hit_->add(1);
        sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
        return it->second->value;
      }
      auto fl = sh.in_flight.find(key);
      if (fl == sh.in_flight.end()) break;
      // Someone is computing this exact key right now: join their result
      // instead of duplicating the work (request coalescing).
      std::shared_ptr<InFlight> theirs = fl->second;
      ++sh.stats.hits;
      ++sh.stats.coalesced;
      if (obs_hit_) obs_hit_->add(1);
      theirs->cv.wait(lock, [&] { return theirs->done; });
      if (!theirs->failed) return theirs->value;
      // The computing thread threw; fall through and retry ourselves.
    }
    ++sh.stats.misses;
    if (obs_miss_) obs_miss_->add(1);
    mine = std::make_shared<InFlight>();
    sh.in_flight.emplace(key, mine);
  }

  // Compute outside the lock (make may recurse into other cache keys).
  Entry fresh;
  std::exception_ptr error;
  try {
    fresh = make();
  } catch (...) {
    error = std::current_exception();
  }

  std::lock_guard<std::mutex> lock(sh.mu);
  sh.in_flight.erase(key);
  mine->done = true;
  if (error) {
    mine->failed = true;
    mine->cv.notify_all();
    std::rethrow_exception(error);
  }
  mine->value = fresh.value;
  mine->cv.notify_all();
  sh.lru.push_front(std::move(fresh));
  sh.index[key] = sh.lru.begin();
  entries_.fetch_add(1, std::memory_order_relaxed);
  while (sh.lru.size() > cap_per_shard_) {
    sh.index.erase(sh.lru.back().key);
    sh.lru.pop_back();
    ++sh.stats.evictions;
    entries_.fetch_sub(1, std::memory_order_relaxed);
    if (obs_evict_) obs_evict_->add(1);
  }
  sh.stats.entries = sh.lru.size();
  if (obs_size_) {
    obs_size_->set(
        static_cast<double>(entries_.load(std::memory_order_relaxed)));
  }
  return sh.lru.front().value;
}

QueryStats ResultCache::stats() const {
  QueryStats out;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    out.hits += sh.stats.hits;
    out.misses += sh.stats.misses;
    out.coalesced += sh.stats.coalesced;
    out.evictions += sh.stats.evictions;
    out.slab_builds += sh.stats.slab_builds;
    out.slab_reduces += sh.stats.slab_reduces;
    out.entries += sh.lru.size();
  }
  return out;
}

void ResultCache::clear() {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    entries_.fetch_sub(sh.lru.size(), std::memory_order_relaxed);
    sh.lru.clear();
    sh.index.clear();
    sh.stats.entries = 0;
  }
}

void ResultCache::count_slab_build() {
  Shard& sh = shards_[0];
  std::lock_guard<std::mutex> lock(sh.mu);
  ++sh.stats.slab_builds;
  if (obs_slab_build_) obs_slab_build_->add(1);
}

void ResultCache::count_slab_reduce() {
  Shard& sh = shards_[0];
  std::lock_guard<std::mutex> lock(sh.mu);
  ++sh.stats.slab_reduces;
  if (obs_slab_reduce_) obs_slab_reduce_->add(1);
}

// ------------------------------------------------------------- QueryEngine

QueryEngine::QueryEngine(const DataSet& data, std::size_t capacity)
    : data_(&data),
      cache_(std::make_shared<ResultCache>(capacity, /*shards=*/1)) {}

QueryEngine::QueryEngine(const DataSet& data,
                         std::shared_ptr<ResultCache> cache)
    : data_(&data), cache_(std::move(cache)) {
  DV_REQUIRE(cache_ != nullptr, "QueryEngine requires a cache");
}

bool QueryEngine::grouping_windowed(Entity e,
                                    const AggregationSpec& spec) const {
  for (const auto& k : spec.keys) {
    if (DataSet::windowable(e, k)) return true;
  }
  for (const auto& f : spec.filters) {
    if (DataSet::windowable(e, f.attr)) return true;
  }
  return false;
}

std::pair<std::size_t, std::size_t> QueryEngine::frame_range(
    Entity e, TimeWindow w) const {
  return data_->frame_range(e, w.t0, w.t1);
}

std::shared_ptr<const DataTable> QueryEngine::table(Entity e, TimeWindow w) {
  if (!w.active()) {
    // Aliasing pointer to the live base table (no copy, not cached).
    return std::shared_ptr<const DataTable>(std::shared_ptr<const void>(),
                                            &data_->table(e));
  }
  const auto [f0, f1] = frame_range(e, w);
  Hasher h;
  h.u64(kTableKind);
  h.u64(static_cast<std::uint64_t>(e));
  h.u64(f0);
  h.u64(f1);
  h.u64(data_->uid());
  auto v = cache_->get_or_compute(h.h, [&] {
    ResultCache::Entry en;
    en.key = h.h;
    en.value = std::make_shared<const DataTable>(
        data_->windowed_table(e, w.t0, w.t1));
    return en;
  });
  return std::static_pointer_cast<const DataTable>(v);
}

std::shared_ptr<const Aggregation> QueryEngine::aggregate(
    Entity e, const AggregationSpec& spec) {
  const bool gw = spec.window.active() && grouping_windowed(e, spec);
  auto tbl = table(e, gw ? spec.window : TimeWindow{});

  Hasher h;
  h.u64(kAggKind);
  hash_spec(h, e, spec);
  if (gw) {
    const auto [f0, f1] = frame_range(e, spec.window);
    h.u64(1);
    h.u64(f0);
    h.u64(f1);
  } else {
    h.u64(0);
  }
  h.u64(data_->uid());
  auto v = cache_->get_or_compute(h.h, [&] {
    ResultCache::Entry en;
    en.key = h.h;
    en.value = std::make_shared<const Aggregation>(*tbl, spec);
    en.dep = tbl;  // the Aggregation holds a reference into tbl
    return en;
  });
  return std::static_pointer_cast<const Aggregation>(v);
}

std::shared_ptr<const QueryEngine::GroupSlab> QueryEngine::group_slab(
    Entity e, const AggregationSpec& spec, const std::string& attr) {
  Hasher h;
  h.u64(kSlabKind);
  hash_spec(h, e, spec);
  h.str(attr);
  h.u64(data_->uid());
  auto v = cache_->get_or_compute(h.h, [&] {
    DV_OBS_PHASE("query/slab_build");
    auto agg = aggregate(e, spec);  // window-independent grouping
    const metrics::PrefixSeries& ps = data_->prefix_for(e, attr);
    auto slab = std::make_shared<GroupSlab>();
    slab->groups = agg->size();
    slab->frames = ps.frames();
    slab->prefix.assign((slab->frames + 1) * slab->groups, 0.0);
    // Raw prefix-slab indexing: range_sum(row, 0, f) is the prefix delta
    // P[f*E + row] - P[row]. Hoisting the frame base pointer out of the
    // row loop drops the per-element bounds checks and index math while
    // keeping the accumulation order (and therefore the bits) unchanged.
    // An all-zero series has no prefix; its slab stays +0.0, which is what
    // summing its +0.0 deltas gives.
    const double* prefix = ps.prefix_data();
    const std::size_t entities = ps.entities();
    for (std::size_t g = 0; !ps.all_zero() && g < slab->groups; ++g) {
      const auto& rows = agg->groups()[g].rows;
      for (std::size_t f = 1; f <= slab->frames; ++f) {
        const double* frame = prefix + f * entities;
        double acc = 0.0;
        for (std::uint32_t row : rows) acc += frame[row] - prefix[row];
        slab->prefix[f * slab->groups + g] = acc;
      }
    }
    cache_->count_slab_build();
    ResultCache::Entry en;
    en.key = h.h;
    en.value = std::move(slab);
    return en;
  });
  return std::static_pointer_cast<const GroupSlab>(v);
}

std::shared_ptr<const std::vector<double>> QueryEngine::reduce(
    Entity e, const AggregationSpec& spec, const std::string& attr,
    Reducer r) {
  const bool windowed = spec.window.active();
  const bool attr_w = DataSet::windowable(e, attr);
  const bool gw = windowed && grouping_windowed(e, spec);
  // Whether the result depends on the window at all; if not, brushes with
  // different windows share one cache entry.
  const bool window_sensitive = windowed && (attr_w || gw);
  // Group-slab fast path: window-independent grouping, plain sum of a
  // sampled per-row attribute. Routers have no per-row series (their sums
  // span links), so they take the windowed-table path below.
  const bool slab_ok = window_sensitive && !gw && r == Reducer::kSum &&
                       attr_w && e != Entity::kRouter;

  Hasher h;
  h.u64(kReduceKind);
  hash_spec(h, e, spec);
  h.str(attr);
  h.u64(static_cast<std::uint64_t>(r));
  if (window_sensitive) {
    const auto [f0, f1] = frame_range(e, spec.window);
    h.u64(1);
    h.u64(f0);
    h.u64(f1);
  } else {
    h.u64(0);
  }
  h.u64(data_->uid());

  auto v = cache_->get_or_compute(h.h, [&] {
    ResultCache::Entry en;
    en.key = h.h;
    if (slab_ok) {
      auto slab = group_slab(e, spec, attr);
      const auto [f0, f1] = frame_range(e, spec.window);
      auto out = std::make_shared<std::vector<double>>(slab->groups);
      for (std::size_t g = 0; g < slab->groups; ++g) {
        (*out)[g] = slab->value(g, f0, f1);
      }
      cache_->count_slab_reduce();
      en.value = std::move(out);
    } else if (window_sensitive) {
      // Reuse the grouping (windowed only when it must be) and reduce over
      // the windowed table; bit-exact with slicing from scratch because the
      // groups, row order, and windowed values all coincide.
      auto agg = aggregate(e, spec);
      auto tbl = table(e, spec.window);
      en.value = std::make_shared<std::vector<double>>(
          agg->reduce_over(*tbl, attr, r));
    } else {
      auto agg = aggregate(e, spec);
      en.value = std::make_shared<std::vector<double>>(agg->reduce(attr, r));
    }
    return en;
  });
  return std::static_pointer_cast<const std::vector<double>>(v);
}

std::shared_ptr<const std::vector<double>> QueryEngine::reduce(
    Entity e, const AggregationSpec& spec, const std::string& attr) {
  return reduce(e, spec, attr, default_reducer(attr));
}

QueryStats QueryEngine::stats() const { return cache_->stats(); }

void QueryEngine::clear() { cache_->clear(); }

// ----------------------------------------------------------- run_parallel

namespace {

std::size_t va_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw ? hw : 1);
}

ThreadPool& va_pool() {
  static ThreadPool pool(va_threads());
  return pool;
}

// A pool task that waited on a nested batch would hold a worker while its
// own tasks queue behind it; with every worker so held the pool deadlocks.
// Nested run_parallel calls run their tasks inline instead.
thread_local bool t_in_va_pool = false;

}  // namespace

void run_parallel(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (t_in_va_pool || tasks.size() == 1 || va_threads() <= 1) {
    for (auto& t : tasks) t();
    return;
  }
  // The latch counts this batch only: other callers' tasks on the shared
  // pool never hold this call up.
  std::vector<std::exception_ptr> errors(tasks.size());
  std::latch done(static_cast<std::ptrdiff_t>(tasks.size()));
  ThreadPool& pool = va_pool();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    pool.submit([&tasks, &errors, &done, i] {
      t_in_va_pool = true;
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
      t_in_va_pool = false;
      done.count_down();
    });
  }
  done.wait();
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace dv::core
