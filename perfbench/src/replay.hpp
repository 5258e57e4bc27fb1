// The traced run's in-process replay of a wire request: the same bytes
// the client sends, taken through RequestParser::next -> Router::find ->
// the route handler -> Response::serialize, with a span around each call.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "ctwatch/httpd/router.hpp"

namespace perfbench {

struct ReplayStep {
  bool ok = false;  ///< parsed, routed and answered
  ctwatch::httpd::Response response;
  std::string wire;  ///< the serialized response
  std::int64_t total_ns = 0;
  int handler_span = -1;  ///< for attaching the matching layer calls
};

class InProcessServer {
 public:
  explicit InProcessServer(const ctwatch::httpd::Router& router) : router_(router) {}

  /// Replays one request. Asynchronous handlers (add-chain) are awaited.
  ReplayStep run(const std::string& request_bytes, Tracer& tracer, std::uint64_t request_id);

 private:
  const ctwatch::httpd::Router& router_;
};

}  // namespace perfbench
