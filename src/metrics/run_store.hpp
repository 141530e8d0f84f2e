// RunStore — the "data management" box of the paper's Fig. 1.
//
// The system "effectively processes and manages simulation data to provide
// not only interactive exploration but also quick comparison between
// simulation runs of different network configurations". A RunStore is a
// directory of saved RunMetrics files plus an index of their
// configurations, so runs can be listed, reloaded, and selected for
// comparison without parsing every result file.
#pragma once

#include <string>
#include <vector>

#include "metrics/run_metrics.hpp"

namespace dv::metrics {

/// Index entry for one stored run.
struct RunInfo {
  std::string name;
  std::string workload;
  std::string routing;
  std::string placement;
  std::uint32_t terminals = 0;
  double end_time = 0.0;
  bool sampled = false;
  StoreFormat format = StoreFormat::kText;
  /// Content uid (run_content_uid) — stable across formats and paths, so
  /// index consumers can key persistent artifacts on it.
  std::uint64_t uid = 0;

  bool operator==(const RunInfo&) const = default;
};

class RunStore {
 public:
  /// Opens (creating if needed) the store directory and loads its index.
  explicit RunStore(std::string dir);

  const std::string& dir() const { return dir_; }
  std::size_t size() const { return index_.size(); }
  const std::vector<RunInfo>& list() const { return index_; }
  bool contains(const std::string& name) const;
  const RunInfo& info(const std::string& name) const;  // throws if missing

  /// Saves a run under `name` (derived from its configuration when empty;
  /// suffixed when taken) in the given on-disk format. Returns the final
  /// name.
  std::string add(const RunMetrics& run, std::string name = "",
                  StoreFormat format = StoreFormat::kPacked);

  RunMetrics load(const std::string& name) const;  // throws if missing
  void remove(const std::string& name);            // throws if missing

  /// Rewrites a stored run in another on-disk format (no-op when it is
  /// already stored that way). The content uid is unchanged by design.
  void repack(const std::string& name, StoreFormat format);

  /// Full path of a stored run's file (throws if missing) — what serve's
  /// lazy catalog and `dragonviz inspect` hand to format-aware readers.
  std::string path(const std::string& name) const;

  /// Names of runs whose metadata matches all non-empty filters. Goes
  /// through the loaded index only — no file is opened or parsed.
  std::vector<std::string> find(const std::string& workload,
                                const std::string& routing = "",
                                const std::string& placement = "") const;

 private:
  std::string path_of(const std::string& name, StoreFormat format) const;
  void save_index() const;  // atomic + durable: tmp + fsync + rename
  void load_index();

  std::string dir_;
  std::vector<RunInfo> index_;
};

}  // namespace dv::metrics
