#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/http.h"

namespace xsm::e2e {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A response must arrive within this long; a stalled server fails the op.
constexpr int kReadTimeoutMs = 60000;

}  // namespace

LoopbackConnection::~LoopbackConnection() {
  if (fd_ >= 0) ::close(fd_);
}

Status LoopbackConnection::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IOError(std::string("socket: ") + strerror(errno));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError(std::string("connect: ") + strerror(errno));
  }
  return Status::OK();
}

Result<Exchange> LoopbackConnection::Post(const std::string& target,
                                          const std::string& body,
                                          std::string_view marker) {
  std::string request = "POST " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: text/plain\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  net::HttpLimits limits;
  limits.max_body_bytes = 256u << 20;
  net::HttpParser parser(net::HttpParser::Mode::kResponse, limits);
  Exchange exchange;

  const auto start = std::chrono::steady_clock::now();
  for (size_t sent = 0; sent < request.size();) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError(std::string("send: ") + strerror(errno));
    sent += static_cast<size_t>(n);
  }

  char buffer[64 * 1024];
  size_t scanned = 0;
  while (!parser.done()) {
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kReadTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return Status::DeadlineExceeded("response timed out");
    ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::IOError(std::string("recv: ") + strerror(errno));
    if (n == 0) {
      parser.Finish();
      if (!parser.done()) return Status::IOError("connection closed mid-response");
      break;
    }
    exchange.wire_bytes += static_cast<size_t>(n);
    parser.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    if (parser.failed()) return parser.status();
    if (!marker.empty() && exchange.marker_ms < 0) {
      const std::string& so_far = parser.message().body;
      // Resume just before the previous end, in case the marker straddles.
      size_t from = scanned >= marker.size() ? scanned - marker.size() : 0;
      if (so_far.find(marker, from) != std::string::npos) {
        exchange.marker_ms = MsSince(start);
      }
      scanned = so_far.size();
    }
  }
  exchange.latency_ms = MsSince(start);
  if (!parser.lookahead().empty()) {
    return Status::ParseError("unexpected bytes after the response");
  }
  exchange.status_code = parser.message().status_code;
  exchange.body = std::move(parser.message().body);
  return exchange;
}

}  // namespace xsm::e2e
