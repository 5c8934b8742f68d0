// HttpClient deadlines against a scripted misbehaving server: hangs and
// half-closes mid-response. Connect timeout and read deadline must surface
// as typed statuses, never hangs.
#include "net/http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "util/status.h"

namespace xsm::net {
namespace {

int ListenOn(uint16_t* port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
  EXPECT_EQ(::listen(fd, backlog), 0);
  return fd;
}

/// A server whose connections follow a fixed script, one action per
/// accepted connection; after the script it keeps accepting and answering
/// 200 (so stray retries can't hang a test).
class ScriptedServer {
 public:
  enum class Action {
    kHang,       ///< read the request, never answer, hold the socket
    kHalfClose,  ///< answer a truncated response, then close
    kOk200,      ///< a well-formed success
  };

  explicit ScriptedServer(std::vector<Action> script)
      : script_(std::move(script)) {
    listen_fd_ = ListenOn(&port_, 16);
    thread_ = std::thread([this] { Serve(); });
  }

  ~ScriptedServer() {
    stop_.store(true);
    thread_.join();
    for (int fd : held_) ::close(fd);
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    size_t next = 0;
    while (!stop_.load()) {
      fd_set readable;
      FD_ZERO(&readable);
      FD_SET(listen_fd_, &readable);
      timeval tv{0, 50 * 1000};
      if (::select(listen_fd_ + 1, &readable, nullptr, nullptr, &tv) <= 0) {
        continue;
      }
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      Action action =
          next < script_.size() ? script_[next++] : Action::kOk200;
      HandleConnection(fd, action);
    }
  }

  // Reads one full request (headers + Content-Length body) so closing the
  // socket later can't RST the client's pending response bytes.
  static bool ReadRequest(int fd) {
    std::string bytes;
    char buf[4096];
    size_t body_needed = 0;
    size_t header_end = std::string::npos;
    while (true) {
      if (header_end == std::string::npos) {
        header_end = bytes.find("\r\n\r\n");
        if (header_end != std::string::npos) {
          size_t cl = bytes.find("content-length:");
          if (cl == std::string::npos) cl = bytes.find("Content-Length:");
          if (cl != std::string::npos && cl < header_end) {
            body_needed = std::strtoul(bytes.c_str() + cl + 15, nullptr, 10);
          }
        }
      }
      if (header_end != std::string::npos &&
          bytes.size() >= header_end + 4 + body_needed) {
        return true;
      }
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) return false;
      bytes.append(buf, static_cast<size_t>(n));
    }
  }

  static void WriteAll(int fd, const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  static std::string Response(int code, const std::string& reason,
                              const std::string& body) {
    return "HTTP/1.1 " + std::to_string(code) + " " + reason +
           "\r\nContent-Type: application/x-ndjson\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
           body;
  }

  void HandleConnection(int fd, Action action) {
    if (!ReadRequest(fd)) {
      ::close(fd);
      return;
    }
    switch (action) {
      case Action::kHang:
        held_.push_back(fd);  // never answered; closed at shutdown
        return;
      case Action::kHalfClose:
        WriteAll(fd,
                 "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\nonly "
                 "this much");
        break;
      case Action::kOk200:
        WriteAll(fd, Response(200, "OK", "{\"type\":\"ok\"}\n"));
        break;
    }
    ::close(fd);
  }

  std::vector<Action> script_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<int> held_;
};

using Action = ScriptedServer::Action;

TEST(HttpClientDeadlineTest, ConnectTimeoutIsTyped) {
  // A listener with a tiny backlog that never accepts: once the queue is
  // full the kernel ignores further SYNs and the handshake stalls.
  uint16_t port = 0;
  int fd = ListenOn(&port, 0);
  std::vector<int> fillers;
  for (int i = 0; i < 16; ++i) {
    int filler = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(filler, 0);
    ::fcntl(filler, F_SETFL, O_NONBLOCK);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ::connect(filler, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(filler);
  }
  // Give the fillers' handshakes a moment to occupy the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  HttpClient client;
  Status status = client.Connect("127.0.0.1", port, /*timeout_seconds=*/0.3);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_FALSE(client.connected());

  for (int filler : fillers) ::close(filler);
  ::close(fd);
}

TEST(HttpClientDeadlineTest, HangingServerReadDeadlineIsTyped) {
  ScriptedServer server({Action::kHang});
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 1.0).ok());
  ASSERT_TRUE(client.SendRequest("GET", "/hang", "").ok());
  auto response = client.ReadResponse(HttpLimits(), /*timeout_seconds=*/0.2);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_NE(response.status().message().find("deadline"), std::string::npos);
}

TEST(HttpClientDeadlineTest, HalfCloseMidResponseIsTypedIOError) {
  ScriptedServer server({Action::kHalfClose});
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 1.0).ok());
  ASSERT_TRUE(client.SendRequest("GET", "/half", "").ok());
  auto response = client.ReadResponse(HttpLimits(), 1.0);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kIOError)
      << response.status().ToString();
  EXPECT_NE(
      response.status().message().find("before a complete response"),
      std::string::npos)
      << response.status().ToString();
}

}  // namespace
}  // namespace xsm::net
