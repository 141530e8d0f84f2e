// dragonviz serve — the long-lived multi-tenant query daemon.
//
// One process holds a RunCatalog of immutable shared DataSets and a
// sharded result cache; many clients connect over a unix or loopback TCP
// socket, each getting a Session (window/brush state + counters). Requests
// are newline-delimited JSON (serve/protocol.hpp, docs/SERVE_PROTOCOL.md).
//
// Concurrency model:
//  - one reader thread per connection (responses stay in request order on
//    a connection; clients may still pipeline),
//  - heavy verbs (load / render / report) execute on a bounded worker
//    pool; light verbs run on the connection thread,
//  - admission control: when the worker queue is full the request is
//    rejected immediately with the "overloaded" error code instead of
//    queueing without bound,
//  - identical in-flight computations are coalesced inside the shared
//    ResultCache (core/query.hpp), so a thundering herd of sessions
//    brushing the same view costs one computation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/catalog.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "util/threadpool.hpp"

namespace dv::serve {

struct ServeOptions {
  /// "unix:/path" or "tcp:[host:]port" (listen_and_serve only).
  std::string listen = "unix:/tmp/dragonviz.sock";
  std::size_t workers = 4;         ///< worker pool threads (heavy verbs)
  std::size_t max_queue = 64;      ///< admission bound on queued requests
  std::size_t max_sessions = 64;   ///< concurrent connections
  std::size_t cache_capacity = 1024;  ///< shared result-cache entries
  std::size_t cache_shards = 8;       ///< power of two
  std::size_t max_frame = 8u << 20;   ///< request frame size bound (bytes)
  /// When nonempty, this file is created (with the listen address as its
  /// content) once the daemon is accepting connections — lets scripts and
  /// CI wait for readiness without polling the socket.
  std::string ready_file;
};

/// One dispatch-table entry (protocol_verbs() drives the docs-coverage
/// test: every verb must be documented in docs/SERVE_PROTOCOL.md).
struct VerbInfo {
  std::string name;
  std::string summary;
  bool heavy = false;  ///< executes on the worker pool (admission applies)
};

/// The daemon's verb table, in documentation order.
const std::vector<VerbInfo>& protocol_verbs();

class Server {
 public:
  /// Starts the worker pool. On glibc this also fixes the process's malloc
  /// mmap/trim thresholds and trims its heap, so the daemon's resident set
  /// follows the memory it holds rather than its threads' timing.
  explicit Server(ServeOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  RunCatalog& catalog() { return catalog_; }

  /// Serves one already-connected stream socket until the peer disconnects
  /// or sends `bye`/`shutdown`. Blocking; called from connection threads by
  /// listen_and_serve, and directly (e.g. on a socketpair end) by tests.
  /// Takes ownership of `fd`.
  void serve_fd(int fd);

  /// Binds opts.listen and accepts until stop()/`shutdown`. Returns 0 on a
  /// clean stop. Throws dv::Error when the socket cannot be created.
  int listen_and_serve();

  /// Requests a stop: wakes the accept loop and all connection readers.
  /// Async-signal-safe (writes one byte to an internal pipe).
  void stop();

  bool stopping() const { return stopping_.load(std::memory_order_relaxed); }

  /// The `stats` verb's payload; `session` adds the per-session block.
  json::Value stats_json(const Session* session) const;

 private:
  friend struct VerbTable;

  /// Thrown by verb handlers to select a protocol error code.
  struct VerbError : Error {
    VerbError(ErrorCode code_, const std::string& msg)
        : Error(msg), code(code_) {}
    ErrorCode code;
  };

  /// Outcome flags a handler can set on its connection.
  struct ConnControl {
    bool close = false;     ///< close the connection after responding
    bool shutdown = false;  ///< stop the whole daemon after responding
  };

  json::Value execute(Session& session, const Request& req, ConnControl& cc);
  json::Value run_on_pool(const std::function<json::Value()>& job);

  // Verb handlers (session-owned state is only touched by its own
  // connection thread; catalog/cache/stats are internally synchronized).
  json::Value verb_hello(Session& s, const json::Value& p);
  json::Value verb_ping(Session& s, const json::Value& p);
  json::Value verb_load(Session& s, const json::Value& p);
  json::Value verb_list(Session& s, const json::Value& p);
  json::Value verb_use(Session& s, const json::Value& p);
  json::Value verb_window(Session& s, const json::Value& p);
  json::Value verb_brush(Session& s, const json::Value& p);
  json::Value verb_render(Session& s, const json::Value& p);
  json::Value verb_report(Session& s, const json::Value& p);
  json::Value verb_stats(Session& s, const json::Value& p);

  std::shared_ptr<const LoadedRun> resolve_run(const Session& s,
                                               const json::Value& p) const;

  void record_latency(const std::string& verb, double seconds);

  ServeOptions opts_;
  RunCatalog catalog_;

  std::atomic<bool> stopping_{false};
  int stop_pipe_[2] = {-1, -1};  // [read, write]

  // Session registry (teardown accounting + stats).
  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, const Session*> sessions_;
  std::atomic<std::uint64_t> next_session_id_{1};

  // Live connection fds, so stop() can wake blocked readers.
  mutable std::mutex conns_mu_;
  std::set<int> conn_fds_;

  // Request latency samples per verb (bounded ring; p50/p99 in `stats`).
  struct LatencyRing {
    std::vector<double> samples;  // seconds
    std::size_t next = 0;
    std::uint64_t count = 0;
  };
  mutable std::mutex lat_mu_;
  std::map<std::string, LatencyRing> latency_;

  std::atomic<std::uint64_t> total_requests_{0};
  std::atomic<std::uint64_t> total_errors_{0};
  std::chrono::steady_clock::time_point started_;

  /// Heavy verbs run here, admission-bounded by max_queue; null when
  /// workers == 0 (heavy verbs then run inline). Declared last, so it is
  /// destroyed, its workers joined, before the state they use.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dv::serve
