#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

struct WireClient::Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> inflight;  ///< result indices, send order
};

namespace {

/// Parses one complete response off the front of `in`; false when more
/// bytes are needed.
bool take_response(std::string& in, int& status, std::string& body) {
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  status = 0;
  if (in.size() >= 12 && in.compare(0, 5, "HTTP/") == 0) status = std::atoi(in.c_str() + 9);
  std::size_t length = 0;
  std::size_t line = in.find("\r\n");
  while (line < head_end) {
    const std::size_t next = in.find("\r\n", line + 2);
    const std::size_t colon = in.find(':', line + 2);
    if (colon < next && colon - (line + 2) == 14 &&
        strncasecmp(in.c_str() + line + 2, "content-length", 14) == 0) {
      length = static_cast<std::size_t>(std::strtoull(in.c_str() + colon + 1, nullptr, 10));
    }
    line = next;
  }
  if (in.size() < head_end + 4 + length) return false;
  body.assign(in, head_end + 4, length);
  in.erase(0, head_end + 4 + length);
  return true;
}

timespec to_timespec(std::int64_t ns) {
  if (ns < 0) ns = 0;
  return timespec{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
}

}  // namespace

std::string http_get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

std::string http_post(const std::string& path, const std::string& body) {
  return "POST " + path +
         " HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

WireClient::WireClient(std::uint16_t port, int connections) {
  conns_.resize(static_cast<std::size_t>(std::max(1, connections)));
  for (Conn& conn : conns_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) throw std::runtime_error("perfbench: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("perfbench: connect() failed");
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }
}

WireClient::~WireClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void WireClient::pump(std::vector<WireRequest>& requests, std::vector<WireResult>& results,
                      std::int64_t wait_until_ns, const OnResponse& on_response) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    // Flush what the socket takes now; the rest waits for POLLOUT.
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n <= 0) break;
      conn.out_off += static_cast<std::size_t>(n);
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    fds[i].fd = conn.fd;
    fds[i].events = static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT));
    fds[i].revents = 0;
  }
  const timespec timeout = to_timespec(wait_until_ns - now_ns());
  if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return;
  char buffer[1 << 16];
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Conn& conn = conns_[i];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      conn.in.append(buffer, static_cast<std::size_t>(n));
    }
    int status = 0;
    std::string body;
    while (!conn.inflight.empty() && take_response(conn.in, status, body)) {
      const std::size_t index = conn.inflight.front();
      conn.inflight.pop_front();
      WireResult& result = results[index];
      result.done_ns = now_ns();
      result.status = status;
      result.body = std::move(body);
      if (on_response) on_response(requests[index], result);
    }
  }
}

std::vector<WireResult> WireClient::run_open(std::vector<WireRequest>& schedule,
                                             std::int64_t deadline_ns, const Render& render,
                                             const OnResponse& on_response) {
  std::vector<WireResult> results(schedule.size());
  std::size_t next = 0;
  std::size_t outstanding = 0;
  for (;;) {
    std::int64_t now = now_ns();
    while (next < schedule.size() && schedule[next].due_ns <= now) {
      WireRequest& request = schedule[next];
      Conn& conn = conns_[static_cast<std::size_t>(request.conn) % conns_.size()];
      conn.out += request.bytes.empty() ? render(request) : request.bytes;
      results[next].due_ns = request.due_ns;
      results[next].sent_ns = now_ns();
      conn.inflight.push_back(next);
      ++next;
      now = now_ns();
    }
    outstanding = 0;
    for (const Conn& conn : conns_) outstanding += conn.inflight.size();
    if ((next == schedule.size() && outstanding == 0) || now >= deadline_ns) break;
    const std::int64_t wake =
        next < schedule.size() ? std::min(schedule[next].due_ns, deadline_ns) : deadline_ns;
    pump(schedule, results, wake, on_response);
  }
  for (Conn& conn : conns_) conn.inflight.clear();
  return results;
}

void WireClient::run_closed(const Next& next, std::int64_t stop_ns, std::int64_t deadline_ns,
                            std::vector<WireRequest>& requests, std::vector<WireResult>& results) {
  std::vector<bool> retired(conns_.size(), false);
  for (;;) {
    const std::int64_t now = now_ns();
    bool any_inflight = false;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (conn.inflight.empty() && !retired[c]) {
        std::optional<WireRequest> request = next(static_cast<int>(c), now >= stop_ns);
        if (request) {
          request->conn = static_cast<int>(c);
          request->due_ns = now;
          conn.out += request->bytes;
          WireResult result;
          result.due_ns = now;
          result.sent_ns = now_ns();
          requests.push_back(*std::move(request));
          results.push_back(std::move(result));
          conn.inflight.push_back(results.size() - 1);
        } else {
          retired[c] = true;
        }
      }
      any_inflight = any_inflight || !conn.inflight.empty();
    }
    if (!any_inflight || now >= deadline_ns) break;
    pump(requests, results, std::min(deadline_ns, now + 50'000'000), {});
  }
  for (Conn& conn : conns_) conn.inflight.clear();
}

bool generator_kept_up(const std::vector<WireResult>& results, double* lag_p99_ms) {
  std::vector<double> lags;
  lags.reserve(results.size());
  for (const WireResult& result : results) {
    if (result.sent_ns != 0) lags.push_back(result.lag_ms());
  }
  const double p99 = percentile(std::move(lags), 99);
  if (lag_p99_ms != nullptr) *lag_p99_ms = p99;
  return p99 <= kMaxLagP99Ms;
}

}  // namespace perfbench
