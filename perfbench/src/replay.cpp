#include "replay.hpp"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

namespace perfbench {

namespace httpd = ctwatch::httpd;

ReplayStep InProcessServer::run(const std::string& request_bytes, Tracer& tracer,
                                std::uint64_t request_id) {
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<httpd::Response> response;
  };
  ReplayStep step;
  const std::int64_t start = now_ns();
  {
    ScopedSpan request_span(tracer, "request", request_id);
    httpd::RequestParser parser;
    httpd::Request request;
    {
      ScopedSpan span(tracer, "httpd.parse", request_id);
      parser.feed(request_bytes);
      if (parser.next(request) != httpd::ParseResult::request) return step;
    }
    const httpd::Router::Route* route = nullptr;
    {
      ScopedSpan span(tracer, "httpd.route", request_id);
      if (router_.find(request.method, request.path, &route) != httpd::Router::Match::ok) {
        return step;
      }
    }
    auto slot = std::make_shared<Slot>();
    {
      ScopedSpan span(tracer, "httpd.handler", request_id);
      step.handler_span = span.id();
      route->handler(request, [slot](httpd::Response response) {
        {
          std::lock_guard<std::mutex> lock(slot->mu);
          if (slot->response) return;
          slot->response = std::move(response);
        }
        slot->cv.notify_one();
      });
    }
    {
      // Asynchronous routes answer from the logsvc sequencer at seal time.
      ScopedSpan span(tracer, "logsvc.await_completion", request_id);
      std::unique_lock<std::mutex> lock(slot->mu);
      if (!slot->cv.wait_for(lock, std::chrono::seconds(30), [&] { return slot->response.has_value(); })) {
        return step;
      }
      step.response = *slot->response;
    }
    {
      ScopedSpan span(tracer, "httpd.serialize", request_id);
      step.wire = step.response.serialize();
    }
  }
  step.total_ns = now_ns() - start;
  step.ok = true;
  return step;
}

}  // namespace perfbench
