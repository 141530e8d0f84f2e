// RunCatalog — the daemon-resident "data management" tier.
//
// The catalog owns every loaded run as an immutable shared LoadedRun: the
// RunMetrics-derived DataSet, plus one QueryEngine over it. All engines
// share ONE sharded ResultCache (keys embed each dataset's uid), so a view
// any session computes — windowed tables, aggregations, group slabs,
// reductions — is a cache hit for every other session brushing the same
// run: the cross-session view indexing that VAID / Collaboration Spotting
// motivate (PAPERS.md), keyed by the canonical spec hashes of PR 3.
//
// LoadedRuns are handed out as shared_ptr<const LoadedRun>; a `load` that
// replaces a name cannot invalidate a session mid-query.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/datatable.hpp"
#include "core/query.hpp"

namespace dv::serve {

/// Thrown by the catalog for a run name it does not know or a run file
/// that does not exist. A file that exists but does not load or validate
/// throws a plain dv::Error carrying the reader's path-prefixed message.
class RunNotFound : public Error {
 public:
  using Error::Error;
};

/// One run resident in the daemon: immutable dataset + its query engine.
struct LoadedRun {
  std::string name;
  std::string source_path;
  core::DataSet data;
  /// Engine over `data`, computing through the catalog's shared cache.
  /// QueryEngine is internally synchronized; many sessions use it at once.
  mutable core::QueryEngine engine;

  LoadedRun(std::string name_, std::string path_, core::DataSet data_,
            std::shared_ptr<core::ResultCache> cache)
      : name(std::move(name_)),
        source_path(std::move(path_)),
        data(std::move(data_)),
        engine(data, std::move(cache)) {}
};

class RunCatalog {
 public:
  /// `cache_capacity` bounds cached results across every run; `shards`
  /// (power of two) bounds lock contention under concurrent sessions.
  explicit RunCatalog(std::size_t cache_capacity = 1024,
                      std::size_t shards = 8);

  /// Loads a run file (text JSON or packed .dvr — RunMetrics::load sniffs
  /// the magic) under `name` (basename of `path`, minus a trailing
  /// ".json"/".dvr", when empty). Replaces an existing entry with the same
  /// name; in-flight references to the old run stay valid. Returns the
  /// loaded run. Throws RunNotFound when the file does not exist, and
  /// dv::Error when it does not load.
  std::shared_ptr<const LoadedRun> load(const std::string& path,
                                        std::string name = "");

  /// Registers a run file WITHOUT materializing it: only the name, path
  /// and format sniff are recorded; parsing and the DataSet build happen
  /// on the first get(). A sweep-scale catalog attaches hundreds of runs
  /// in milliseconds and pays load cost only for runs sessions touch —
  /// the out-of-core half of the packed-store design. Returns the derived
  /// name.
  std::string attach(const std::string& path, std::string name = "");

  /// Looks up a run, materializing it first if it was only attached.
  /// Concurrent getters of the same pending run coalesce onto a single
  /// load. Throws RunNotFound when `name` is unknown or its file does not
  /// exist, and dv::Error when an attached file does not load.
  std::shared_ptr<const LoadedRun> get(const std::string& name) const;

  /// Drops `name` — resident or attached — from the catalog (sessions
  /// holding a resident run keep it alive).
  void unload(const std::string& name);

  /// Runs the catalog knows: resident + still-pending attachments.
  std::size_t size() const;
  /// Runs materialized in memory.
  std::size_t resident() const;
  /// Attached runs not yet materialized.
  std::size_t pending() const;
  /// Resident runs in name order (does not materialize attachments).
  std::vector<std::shared_ptr<const LoadedRun>> list() const;
  /// Name/path/packed of every still-pending attachment, in name order.
  struct PendingInfo {
    std::string name;
    std::string path;
    bool packed = false;
  };
  std::vector<PendingInfo> list_pending() const;

  const std::shared_ptr<core::ResultCache>& cache() const { return cache_; }

 private:
  struct PendingRun {
    std::string path;
    bool packed = false;
    std::mutex mu;  ///< serializes materialization of this entry
    std::shared_ptr<const LoadedRun> done;
  };

  std::shared_ptr<core::ResultCache> cache_;
  mutable std::mutex mu_;
  mutable std::map<std::string, std::shared_ptr<const LoadedRun>> runs_;
  mutable std::map<std::string, std::shared_ptr<PendingRun>> pending_;
};

/// "name=path" → {name, path}; bare "path" derives the name from the
/// basename (minus a trailing ".json"). Shared by the CLI and the verbs.
std::pair<std::string, std::string> split_run_ref(const std::string& ref);

}  // namespace dv::serve
