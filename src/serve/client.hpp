// Blocking client for the serve daemon's wire protocol.
//
// One Client is one connection (one daemon-side Session). call() sends a
// request frame and waits for its response; protocol-level failures come
// back as RpcError carrying the structured error code, so callers (the
// `dragonviz client` subcommand, tests, analyst_bench) can distinguish
// "overloaded" from "not_found" without string matching.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "json/json.hpp"
#include "serve/net_io.hpp"
#include "serve/protocol.hpp"

namespace dv::serve {

/// An error response from the daemon (`ok: false`), as an exception.
struct RpcError : Error {
  RpcError(std::string code_, const std::string& message)
      : Error(code_ + ": " + message), code(std::move(code_)) {}
  std::string code;  ///< wire string of ErrorCode (e.g. "not_found")
};

class Client {
 public:
  /// Connects to "unix:/path" or "tcp:[host:]port"; throws dv::Error.
  static Client connect(const std::string& address);

  /// Adopts an already-connected stream socket (e.g. a socketpair end).
  explicit Client(int fd, std::size_t max_frame = 8u << 20);

  /// Sends one request and waits for its response. Returns the "result"
  /// value of an ok response; throws RpcError on an error response and
  /// dv::Error on connection failures. `params` may be Null (omitted).
  json::Value call(const std::string& verb, json::Value params = {});

 private:
  std::unique_ptr<FrameStream> stream_;
  std::int64_t next_id_ = 1;
};

}  // namespace dv::serve
