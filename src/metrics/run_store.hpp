// RunStore — the "data management" box of the paper's Fig. 1.
//
// The system "effectively processes and manages simulation data to provide
// not only interactive exploration but also quick comparison between
// simulation runs of different network configurations". A RunStore is a
// directory of packed .dvr runs (NAME.dvr) plus an index of their
// configurations, so runs can be listed, reloaded, and selected for
// comparison without parsing every result file. A store holds packed runs
// only; a text run enters it through add(), which writes it packed.
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
  /// Content uid (run_content_uid) — stable across formats and paths, so
  /// index consumers can key persistent artifacts on it.
  std::uint64_t uid = 0;

  bool operator==(const RunInfo&) const = default;
};

class RunStore {
 public:
  /// Opens (creating if needed) the store directory and loads its index.
  /// Throws if an index entry is not a packed run.
  explicit RunStore(std::string dir);

  const std::string& dir() const { return dir_; }
  std::size_t size() const { return index_.size(); }
  const std::vector<RunInfo>& list() const { return index_; }
  bool contains(const std::string& name) const;
  const RunInfo& info(const std::string& name) const;  // throws if missing

  /// Saves a run as DIR/NAME.dvr under `name` (derived from its
  /// configuration when empty; suffixed when taken). Returns the final
  /// name.
  std::string add(const RunMetrics& run, std::string name = "");

  RunMetrics load(const std::string& name) const;  // throws if missing
  void remove(const std::string& name);            // throws if missing

  /// Full path of a stored run's .dvr file (throws if missing) — what
  /// serve's lazy catalog and `dragonviz inspect` open.
  std::string path(const std::string& name) const;

 private:
  std::string path_of(const std::string& name) const;  // DIR/NAME.dvr
  void save_index() const;  // atomic + durable: tmp + fsync + rename
  void load_index();

  std::string dir_;
  std::vector<RunInfo> index_;
};

}  // namespace dv::metrics
