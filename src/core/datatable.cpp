#include "core/datatable.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>

#include "metrics/run_schema.hpp"
#include "obs/obs.hpp"
#include "util/kernels.hpp"
#include "util/str.hpp"

namespace dv::core {

// ----------------------------------------------------------------- DataTable

namespace {

// Whole-column zone map, computed once per mutation so the const accessor
// never writes (concurrent readers share tables lock-free in serve).
std::pair<double, double> column_extent(const std::vector<double>& col) {
  if (col.empty()) return {0.0, 0.0};
  double lo = 0.0, hi = 0.0;
  kernels::minmax_f64(col.data(), col.size(), lo, hi);
  return {lo, hi};
}

}  // namespace

void DataTable::add_column(const std::string& name,
                           std::vector<double> values) {
  DV_REQUIRE(!has_column(name), "duplicate column: " + name);
  if (rows_ == 0 && columns_.empty()) {
    rows_ = values.size();
  }
  DV_REQUIRE(values.size() == rows_,
             "column length mismatch for '" + name + "'");
  names_.push_back(name);
  extents_.push_back(column_extent(values));
  columns_.push_back(std::move(values));
}

void DataTable::set_column(const std::string& name,
                           std::vector<double> values) {
  DV_REQUIRE(values.size() == rows_,
             "column length mismatch for '" + name + "'");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      extents_[i] = column_extent(values);
      columns_[i] = std::move(values);
      return;
    }
  }
  throw Error("no such column: '" + name + "' (available: " +
              join(names_, ", ") + ")");
}

bool DataTable::has_column(const std::string& name) const {
  return std::find(names_.begin(), names_.end(), name) != names_.end();
}

const std::vector<double>& DataTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return columns_[i];
  }
  throw Error("no such column: '" + name + "' (available: " +
              join(names_, ", ") + ")");
}

std::pair<double, double> DataTable::extent(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return extents_[i];
  }
  throw Error("no such column: '" + name + "' (available: " +
              join(names_, ", ") + ")");
}

// ----------------------------------------------------------------- Entity

Entity entity_from_string(const std::string& name) {
  const std::string n = to_lower(trim(name));
  if (n == "router" || n == "routers") return Entity::kRouter;
  if (n == "local_link" || n == "local_links") return Entity::kLocalLink;
  if (n == "global_link" || n == "global_links") return Entity::kGlobalLink;
  if (n == "terminal" || n == "terminals") return Entity::kTerminal;
  throw Error("unknown entity: " + name);
}

std::string to_string(Entity e) {
  switch (e) {
    case Entity::kRouter: return "router";
    case Entity::kLocalLink: return "local_link";
    case Entity::kGlobalLink: return "global_link";
    case Entity::kTerminal: return "terminal";
  }
  return "?";
}

// ----------------------------------------------------------------- DataSet

namespace {

/// The attribute of DataSet::table(e) that schema::kSeries[series]
/// windows, or null when that series does not window `e`.
const char* windowed_attr(Entity e, std::size_t series) {
  using metrics::DvrSection;
  const metrics::schema::Series& ts = metrics::schema::kSeries[series];
  auto on = [&ts](DvrSection s) {
    return ts.entities == s ? ts.column : nullptr;
  };
  switch (e) {
    case Entity::kRouter: return ts.router_column;
    case Entity::kLocalLink: return on(DvrSection::kLocalLinks);
    case Entity::kGlobalLink: return on(DvrSection::kGlobalLinks);
    case Entity::kTerminal: return on(DvrSection::kTerminals);
  }
  return nullptr;
}

}  // namespace

DataSet::DataSet(metrics::RunMetrics run)
    : run_(std::make_shared<const metrics::RunMetrics>(std::move(run))) {
  build();
}

std::uint64_t DataSet::next_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void DataSet::build() {
  const metrics::RunMetrics& run = *run_;
  const std::uint32_t a = run.routers_per_group;
  auto tables = std::make_shared<Tables>();

  // Per-router job: the job owning the router's terminals (majority when
  // mixed, -1 when none). Used for job-level link bundling (Fig. 13, where
  // routers with no job but carrying non-minimal traffic are "proxies").
  const std::uint32_t n_routers = run.groups * a;
  std::vector<double> router_job(n_routers, -1.0);
  {
    std::vector<std::map<std::int32_t, std::size_t>> counts(n_routers);
    for (const auto& t : run.terminals) {
      if (t.job >= 0) ++counts[t.router][t.job];
    }
    for (std::uint32_t r = 0; r < n_routers; ++r) {
      std::size_t best = 0;
      for (const auto& [job, c] : counts[r]) {
        if (c > best) {
          best = c;
          router_job[r] = job;
        }
      }
    }
  }

  // Scheduled downtime as a fraction of the simulated span; zero on a
  // healthy run (and when the run finished at t=0).
  const double span = run.end_time > 0.0 ? run.end_time : 0.0;
  auto frac = [span](double ns) { return span > 0.0 ? ns / span : 0.0; };

  {
    const auto routers = run.derive_routers();
    const std::size_t n = routers.size();
    std::vector<double> id(n), grp(n), rank(n), gt(n), gs(n), lt(n), ls(n),
        down(n), dfrac(n), retries(n), drops(n);
    for (std::size_t i = 0; i < n; ++i) {
      id[i] = routers[i].router;
      grp[i] = routers[i].group;
      rank[i] = routers[i].rank;
      gt[i] = routers[i].global_traffic;
      gs[i] = routers[i].global_sat_time;
      lt[i] = routers[i].local_traffic;
      ls[i] = routers[i].local_sat_time;
      down[i] = routers[i].downtime;
      dfrac[i] = frac(routers[i].downtime);
      retries[i] = static_cast<double>(routers[i].retries);
      drops[i] = static_cast<double>(routers[i].pkts_dropped);
    }
    tables->routers = DataTable(n);
    tables->routers.add_column("router", std::move(id));
    tables->routers.add_column("group_id", std::move(grp));
    tables->routers.add_column("router_rank", std::move(rank));
    tables->routers.add_column("global_traffic", std::move(gt));
    tables->routers.add_column("global_sat_time", std::move(gs));
    tables->routers.add_column("local_traffic", std::move(lt));
    tables->routers.add_column("local_sat_time", std::move(ls));
    tables->routers.add_column("job", router_job);
    tables->routers.add_column("downtime", std::move(down));
    tables->routers.add_column("downtime_frac", std::move(dfrac));
    tables->routers.add_column("retries", std::move(retries));
    tables->routers.add_column("pkts_dropped", std::move(drops));
  }

  auto build_links = [a, &router_job, &frac](
                         const std::vector<metrics::LinkMetrics>& links) {
    const std::size_t n = links.size();
    std::vector<double> sr(n), sp(n), dr(n), dp(n), grp(n), rank(n), port(n),
        dgrp(n), drank(n), sjob(n), djob(n), traffic(n), sat(n), down(n),
        dfrac(n), retries(n), drops(n);
    for (std::size_t i = 0; i < n; ++i) {
      sr[i] = links[i].src_router;
      sp[i] = links[i].src_port;
      dr[i] = links[i].dst_router;
      dp[i] = links[i].dst_port;
      grp[i] = links[i].src_router / a;
      rank[i] = links[i].src_router % a;
      port[i] = links[i].src_port;
      dgrp[i] = links[i].dst_router / a;
      drank[i] = links[i].dst_router % a;
      sjob[i] = router_job[links[i].src_router];
      djob[i] = router_job[links[i].dst_router];
      traffic[i] = links[i].traffic;
      sat[i] = links[i].sat_time;
      down[i] = links[i].downtime;
      dfrac[i] = frac(links[i].downtime);
      retries[i] = static_cast<double>(links[i].retries);
      drops[i] = static_cast<double>(links[i].pkts_dropped);
    }
    DataTable t(n);
    t.add_column("src_router", std::move(sr));
    t.add_column("src_port", std::move(sp));
    t.add_column("dst_router", std::move(dr));
    t.add_column("dst_port", std::move(dp));
    t.add_column("group_id", std::move(grp));
    t.add_column("router_rank", std::move(rank));
    t.add_column("router_port", std::move(port));
    t.add_column("dst_group", std::move(dgrp));
    t.add_column("dst_rank", std::move(drank));
    t.add_column("src_job", std::move(sjob));
    t.add_column("dst_job", std::move(djob));
    t.add_column("traffic", std::move(traffic));
    t.add_column("sat_time", std::move(sat));
    t.add_column("downtime", std::move(down));
    t.add_column("downtime_frac", std::move(dfrac));
    t.add_column("retries", std::move(retries));
    t.add_column("pkts_dropped", std::move(drops));
    return t;
  };
  tables->local_links = build_links(run.local_links);
  tables->global_links = build_links(run.global_links);

  {
    const std::size_t n = run.terminals.size();
    std::vector<double> id(n), router(n), grp(n), rank(n), port(n), data(n),
        sat(n), pkts(n), lat(n), hops(n), job(n), dropped(n), rerouted(n),
        rfrac(n), down(n), dfrac(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& t = run.terminals[i];
      id[i] = static_cast<double>(i);
      router[i] = t.router;
      grp[i] = t.router / a;
      rank[i] = t.router % a;
      port[i] = t.port;
      data[i] = t.data_size;
      sat[i] = t.sat_time;
      pkts[i] = static_cast<double>(t.packets_finished);
      lat[i] = t.avg_latency();
      hops[i] = t.avg_hops();
      job[i] = t.job;
      dropped[i] = static_cast<double>(t.packets_dropped);
      rerouted[i] = static_cast<double>(t.packets_rerouted);
      rfrac[i] = t.rerouted_frac();
      down[i] = t.downtime;
      dfrac[i] = frac(t.downtime);
    }
    tables->terminals = DataTable(n);
    tables->terminals.add_column("terminal", std::move(id));
    tables->terminals.add_column("router", std::move(router));
    tables->terminals.add_column("group_id", std::move(grp));
    tables->terminals.add_column("router_rank", std::move(rank));
    tables->terminals.add_column("router_port", std::move(port));
    tables->terminals.add_column("data_size", std::move(data));
    tables->terminals.add_column("sat_time", std::move(sat));
    tables->terminals.add_column("packets_finished", std::move(pkts));
    tables->terminals.add_column("avg_latency", std::move(lat));
    tables->terminals.add_column("avg_hops", std::move(hops));
    tables->terminals.add_column("workload", std::move(job));
    tables->terminals.add_column("pkts_dropped", std::move(dropped));
    tables->terminals.add_column("rerouted", std::move(rerouted));
    tables->terminals.add_column("rerouted_frac", std::move(rfrac));
    tables->terminals.add_column("downtime", std::move(down));
    tables->terminals.add_column("downtime_frac", std::move(dfrac));
  }
  tables_ = std::move(tables);

  if (run.has_time_series()) {
    DV_OBS_PHASE("core.prefix_build");
    auto slabs = std::make_shared<std::vector<metrics::PrefixSeries>>();
    slabs->reserve(metrics::schema::kSeries.size());
    for (const auto& ts : metrics::schema::kSeries) {
      slabs->emplace_back(run.*ts.member);
    }
    slabs_ = std::move(slabs);
  }
}

const DataTable& DataSet::table(Entity e) const {
  switch (e) {
    case Entity::kRouter: return tables_->routers;
    case Entity::kLocalLink: return tables_->local_links;
    case Entity::kGlobalLink: return tables_->global_links;
    case Entity::kTerminal: return tables_->terminals;
  }
  throw Error("bad entity");
}

const std::vector<metrics::PrefixSeries>& DataSet::slabs() const {
  DV_REQUIRE(slabs_ != nullptr,
             "time-range selection requires a sampled run");
  return *slabs_;
}

bool DataSet::windowable(Entity e, const std::string& attr) {
  for (std::size_t id = 0; id < metrics::schema::kSeries.size(); ++id) {
    const char* a = windowed_attr(e, id);
    if (a != nullptr && attr == a) return true;
  }
  return false;
}

const metrics::PrefixSeries& DataSet::prefix_for(
    Entity e, const std::string& attr) const {
  // Router attrs are link sums; no per-row slab.
  if (e != Entity::kRouter) {
    for (std::size_t id = 0; id < metrics::schema::kSeries.size(); ++id) {
      const char* a = windowed_attr(e, id);
      if (a != nullptr && attr == a) return slabs()[id];
    }
  }
  throw Error("no time-series slab for " + to_string(e) + "." + attr);
}

std::pair<std::size_t, std::size_t> DataSet::frame_range(Entity e, double t0,
                                                         double t1) const {
  for (std::size_t id = 0; id < metrics::schema::kSeries.size(); ++id) {
    if (windowed_attr(e, id) != nullptr) {
      return slabs()[id].frame_range(t0, t1);
    }
  }
  throw Error("no time series windows " + to_string(e));
}

DataTable DataSet::windowed_table(Entity e, double t0, double t1) const {
  DV_REQUIRE(t0 < t1, "empty time range");
  const auto& sl = slabs();
  DataTable t = table(e);
  for (std::size_t id = 0; id < sl.size(); ++id) {
    const char* attr = windowed_attr(e, id);
    if (attr == nullptr) continue;
    const metrics::PrefixSeries& ps = sl[id];
    const auto [f0, f1] = ps.frame_range(t0, t1);
    std::vector<double> out;
    if (e == Entity::kRouter) {
      // Re-accumulate the per-router sum from the windowed links in the
      // link order of RunMetrics::derive_routers, for bit-exactness with a
      // DataSet rebuilt from the sliced run.
      const auto& links = metrics::schema::kSeries[id].entities ==
                                  metrics::DvrSection::kLocalLinks
                              ? run_->local_links
                              : run_->global_links;
      out.assign(t.rows(), 0.0);
      for (std::size_t i = 0; i < links.size(); ++i) {
        out[links[i].src_router] += ps.range_sum(i, f0, f1);
      }
    } else {
      out.resize(ps.entities());
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = ps.range_sum(i, f0, f1);
      }
    }
    t.set_column(attr, std::move(out));
  }
  return t;
}

}  // namespace dv::core
