#include "serve/client.hpp"

namespace dv::serve {

Client Client::connect(const std::string& address) {
  return Client(connect_socket(Address::parse(address)));
}

Client::Client(int fd, std::size_t max_frame)
    : stream_(std::make_unique<FrameStream>(fd, max_frame)) {}

json::Value Client::call(const std::string& verb, json::Value params) {
  const std::int64_t id = next_id_++;
  json::Object req;
  req["id"] = json::Value(id);
  req["verb"] = json::Value(verb);
  if (!params.is_null()) {
    DV_REQUIRE(params.is_object(), "call params must be an object");
    req["params"] = std::move(params);
  }
  stream_->write_frame(json::dump(json::Value(std::move(req))));

  std::string frame;
  DV_REQUIRE(stream_->read_frame(frame),
             "connection closed while waiting for a response");
  json::Value resp = json::parse(frame);
  DV_REQUIRE(resp.is_object(), "response is not a JSON object");
  // Responses come back in request order on a connection; a mismatched id
  // means the stream is corrupt, not that the response is pending.
  DV_REQUIRE(static_cast<std::int64_t>(resp.get_number("id", -1)) == id,
             "response id mismatch");
  if (resp.get_bool("ok", false)) {
    // Move the result out: a render reply carries a megabyte of SVG.
    json::Object& obj = resp.as_object();
    DV_REQUIRE(obj.contains("result"), "ok response without a result");
    return std::move(obj["result"]);
  }
  const json::Value* err = resp.find("error");
  DV_REQUIRE(err != nullptr, "error response without an error object");
  throw RpcError(err->get_string("code", "internal"),
                 err->get_string("message", "unknown error"));
}

}  // namespace dv::serve
