#include "serve/catalog.hpp"

#include <filesystem>

#include "metrics/dvr.hpp"
#include "metrics/run_metrics.hpp"
#include "obs/obs.hpp"

namespace dv::serve {

namespace {

std::string derive_name(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  for (const char* ext : {".json", ".dvr"}) {
    const std::size_t len = std::string(ext).size();
    if (base.size() > len && base.substr(base.size() - len) == ext) {
      base = base.substr(0, base.size() - len);
      break;
    }
  }
  DV_REQUIRE(!base.empty(), "cannot derive a run name from: " + path);
  return base;
}

/// Reads and indexes one run file. A reader error on a path that does not
/// exist becomes RunNotFound; any other keeps its type.
core::DataSet load_dataset(const std::string& path) {
  try {
    return core::DataSet(metrics::RunMetrics::load(path));
  } catch (const Error& e) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) throw RunNotFound(e.what());
    throw;
  }
}

}  // namespace

std::pair<std::string, std::string> split_run_ref(const std::string& ref) {
  const auto eq = ref.find('=');
  if (eq == std::string::npos) return {derive_name(ref), ref};
  std::string name = ref.substr(0, eq);
  std::string path = ref.substr(eq + 1);
  DV_REQUIRE(!name.empty() && !path.empty(),
             "run reference must be path or name=path, got: " + ref);
  return {std::move(name), std::move(path)};
}

RunCatalog::RunCatalog(std::size_t cache_capacity, std::size_t shards)
    : cache_(std::make_shared<core::ResultCache>(cache_capacity, shards,
                                                 "serve.cache")) {}

std::shared_ptr<const LoadedRun> RunCatalog::load(const std::string& path,
                                                  std::string name) {
  if (name.empty()) name = derive_name(path);
  // Parse + dataset build happen outside the catalog lock: loading a big
  // run must not stall sessions querying already-loaded ones.
  auto loaded =
      std::make_shared<const LoadedRun>(name, path, load_dataset(path), cache_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    runs_[name] = loaded;
    pending_.erase(name);  // an eager load supersedes any attachment
    DV_OBS_GAUGE_SET("serve.catalog.runs", static_cast<double>(runs_.size()));
  }
  DV_OBS_COUNT("serve.catalog.loads", 1);
  return loaded;
}

std::string RunCatalog::attach(const std::string& path, std::string name) {
  if (name.empty()) name = derive_name(path);
  auto p = std::make_shared<PendingRun>();
  p->path = path;
  // The 4-byte magic sniff is the only file touch an attach performs.
  p->packed = metrics::is_dvr_file(path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.erase(name);  // a re-attach supersedes a resident run
    pending_[name] = std::move(p);
  }
  DV_OBS_COUNT("serve.catalog.attaches", 1);
  return name;
}

std::shared_ptr<const LoadedRun> RunCatalog::get(
    const std::string& name) const {
  std::shared_ptr<PendingRun> p;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = runs_.find(name);
    if (it != runs_.end()) return it->second;
    const auto pit = pending_.find(name);
    if (pit == pending_.end()) throw RunNotFound("no such run: " + name);
    p = pit->second;
  }
  // Materialize outside the catalog lock (sessions querying resident runs
  // must not stall behind a parse); the per-entry mutex coalesces
  // concurrent getters of the same pending run onto one load.
  std::lock_guard<std::mutex> entry_lock(p->mu);
  if (p->done == nullptr) {
    p->done = std::make_shared<const LoadedRun>(name, p->path,
                                                load_dataset(p->path), cache_);
    DV_OBS_COUNT("serve.catalog.lazy_loads", 1);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Promote unless the entry was unloaded or replaced while we parsed.
    const auto pit = pending_.find(name);
    if (pit != pending_.end() && pit->second == p) {
      runs_[name] = p->done;
      pending_.erase(pit);
      DV_OBS_GAUGE_SET("serve.catalog.runs",
                       static_cast<double>(runs_.size()));
    }
  }
  return p->done;
}

void RunCatalog::unload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = runs_.find(name);
  if (it != runs_.end()) {
    runs_.erase(it);
    DV_OBS_GAUGE_SET("serve.catalog.runs", static_cast<double>(runs_.size()));
    return;
  }
  const auto pit = pending_.find(name);
  if (pit == pending_.end()) throw RunNotFound("no such run: " + name);
  pending_.erase(pit);
}

std::size_t RunCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size() + pending_.size();
}

std::size_t RunCatalog::resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size();
}

std::size_t RunCatalog::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::vector<RunCatalog::PendingInfo> RunCatalog::list_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PendingInfo> out;
  out.reserve(pending_.size());
  for (const auto& [name, p] : pending_) {
    out.push_back(PendingInfo{name, p->path, p->packed});
  }
  return out;
}

std::vector<std::shared_ptr<const LoadedRun>> RunCatalog::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const LoadedRun>> out;
  out.reserve(runs_.size());
  for (const auto& [name, run] : runs_) out.push_back(run);
  return out;
}

}  // namespace dv::serve
