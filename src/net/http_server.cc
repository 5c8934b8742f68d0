#include "net/http_server.h"

#include <arpa/inet.h>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <sstream>
#include <utility>

#include "schema/schema_tree.h"
#include "service/event_line.h"
#include "util/timer.h"

namespace xsm::net {

namespace {

/// The one server SIGINT/SIGTERM route to. The handler body is
/// async-signal-safe: RequestShutdown is an atomic store plus one pipe
/// write.
std::atomic<HttpServer*> g_signal_server{nullptr};

void OnShutdownSignal(int) {
  HttpServer* server = g_signal_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestShutdown();
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

/// One NDJSON error line (with trailing newline) for a response body.
std::string ErrorBodyLine(const Status& status) {
  std::string line;
  service::ServeSession::EmitErrorEvent(
      "", status, [&line](const std::string& event) { line = event; });
  return line + "\n";
}

/// Splits a request body into logical lines, dropping '\r' remnants,
/// '#' comments and blank lines — the same normalization stdin serve
/// applies per line.
std::vector<std::string> BodyLines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream stream(body);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    size_t end = line.find_last_not_of(" \t");
    lines.push_back(line.substr(begin, end - begin + 1));
  }
  return lines;
}

/// One "tenant" line (with trailing newline) describing a tenant's
/// current repository, as `GET /v1/tenants` lists it and
/// `PUT /v1/tenants/{t}` reports it created.
void AppendTenantEvent(const Tenant& tenant, std::string* body) {
  service::RepositoryPinPtr pin = tenant.service->Pin();
  service::EventLine(body, "tenant")
      .Str("name", tenant.name)
      .Int("generation", pin->generation())
      .Int("trees", pin->num_trees())
      .Int("shards", tenant.service->Shards().size())
      .End();
  body->push_back('\n');
}

constexpr std::string_view kNdjson = "application/x-ndjson";

}  // namespace

/// Shared between the event loop (fd owner) and the worker handling the
/// connection's current request. The mutex guards outbuf/out_offset/closed/
/// client_gone/output_dropped/writer_waiting/active_token/has_active_token/
/// close_after_response; the remaining fields are loop-only.
struct HttpServer::Connection {
  Connection(uint64_t id_in, int fd_in, const HttpLimits& limits)
      : id(id_in), fd(fd_in), parser(HttpParser::Mode::kRequest, limits) {}

  const uint64_t id;
  int fd;
  HttpParser parser;      // loop-only
  bool processing = false;  // loop-only: a worker owns the current request
  bool close_after_flush = false;  // loop-only
  /// Loop-only: when the loop last read a byte or resumed the connection
  /// after a request; a half-sent request idle past kRequestReadTimeout
  /// from here is rejected.
  std::chrono::steady_clock::time_point read_at =
      std::chrono::steady_clock::now();

  std::mutex mu;
  std::string outbuf;
  size_t out_offset = 0;     ///< bytes of outbuf already sent
  bool closed = false;       ///< fd closed; workers drop further output
  bool client_gone = false;  ///< loop saw EOF / error on the socket
  /// A cancel woke a worker waiting over the high-water mark: the rest of
  /// the response is dropped and the connection closes once the request
  /// completes.
  bool output_dropped = false;
  bool writer_waiting = false;  ///< a worker waits on `drained`
  /// When the loop last sent bytes while a worker was waiting.
  std::chrono::steady_clock::time_point sent_at;
  std::condition_variable drained;
  bool close_after_response = false;  ///< worker: no keep-alive after this
  core::CancelToken active_token;     ///< current request's cancel token
  bool has_active_token = false;

  size_t unsent() const { return outbuf.size() - out_offset; }

  /// Wakes a worker waiting in AppendOutput so it re-checks its wait.
  /// Called under `mu` after anything that ends the wait: a send that
  /// drained below the mark, a close, a client gone, a cancel.
  void WakeWriter() {
    if (writer_waiting) drained.notify_all();
  }

  /// Runs `append(outbuf)` under `mu` unless the connection is closed, its
  /// client gone or its output dropped. While more than the high-water
  /// mark is unsent the worker first waits for the loop's sends to drain
  /// below it; a close, a disconnect or a cancel of the request ends the
  /// wait, and output is dropped from then on (the query stops through its
  /// CancelToken). So does kOutputStallTimeout without a byte sent: the
  /// worker then cancels the query itself, and the loop closes the
  /// connection when the request completes. Each wait counts one `stalls`,
  /// each timeout one `stall_timeouts`. Returns true when the buffer was
  /// drained before the append: only then is the loop owed a wake (see
  /// QueueOutput).
  template <typename Append>
  bool AppendOutput(Append&& append, obs::Counter* stalls,
                    obs::Counter* stall_timeouts) {
    std::unique_lock<std::mutex> lock(mu);
    if (unsent() > kOutputHighWaterBytes) {
      stalls->Increment();
      writer_waiting = true;
      const auto wait_start = std::chrono::steady_clock::now();
      while (!closed && !client_gone &&
             !(has_active_token && active_token.cancelled()) &&
             unsent() > kOutputHighWaterBytes) {
        const auto give_up =
            std::max(wait_start, sent_at) + kOutputStallTimeout;
        if (std::chrono::steady_clock::now() >= give_up) {
          stall_timeouts->Increment();
          if (has_active_token) active_token.Cancel();
          break;
        }
        drained.wait_until(lock, give_up);
      }
      writer_waiting = false;
      if (unsent() > kOutputHighWaterBytes) output_dropped = true;
    }
    if (closed || client_gone || output_dropped) return false;
    const bool was_drained = out_offset >= outbuf.size();
    append(outbuf);
    return was_drained;
  }
};

HttpServer::HttpServer(TenantRegistry* registry, HttpServerOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.admission.soft_inflight == 0 ||
      options_.admission.soft_inflight > options_.admission.max_inflight) {
    options_.admission.soft_inflight = options_.admission.max_inflight;
  }
  obs::MetricsRegistry& metrics = registry_->metrics();
  accepted_ = metrics.RegisterCounter(
      "xsm_http_connections_accepted_total", "Connections accepted");
  rejected_ = metrics.RegisterCounter(
      "xsm_http_connections_rejected_total",
      "Connections closed immediately over max_connections");
  requests_ = metrics.RegisterCounter(
      "xsm_http_requests_total", "Routed HTTP requests, any endpoint");
  shed_capacity_ = metrics.RegisterCounter(
      "xsm_http_requests_shed_total",
      "Requests shed with a typed 503, by reason",
      {{"reason", "capacity"}});
  parse_failures_ = metrics.RegisterCounter(
      "xsm_http_parse_failures_total",
      "Connections killed by malformed HTTP");
  disconnect_cancels_ = metrics.RegisterCounter(
      "xsm_http_disconnect_cancels_total",
      "In-flight queries cancelled by client disconnect");
  output_stalls_ = metrics.RegisterCounter(
      "xsm_http_output_stalls_total",
      "Waits of a worker for a client to read past the output high-water "
      "mark");
  output_stall_timeouts_ = metrics.RegisterCounter(
      "xsm_http_output_stall_timeouts_total",
      "Output stalls that timed out without drain progress: query "
      "cancelled, connection closed");
  read_timeouts_ = metrics.RegisterCounter(
      "xsm_http_read_timeouts_total",
      "Half-sent requests closed after the read timeout without a byte");
  drain_save_failures_ = metrics.RegisterCounter(
      "xsm_http_drain_save_failures_total",
      "Tenants the graceful drain failed to persist");
  inflight_gauge_ = metrics.RegisterGauge(
      "xsm_http_inflight", "Match/batch requests executing right now");
  request_latency_ms_ = metrics.RegisterHistogram(
      "xsm_http_request_duration_ms",
      "Wall-clock latency of finished match/batch requests (ms)",
      obs::DefaultLatencyBoundsMs());
  scrape_hook_id_ = metrics.AddScrapeHook([this] {
    inflight_gauge_->Set(
        static_cast<double>(inflight_.load(std::memory_order_relaxed)));
  });
}

HttpServer::~HttpServer() {
  RequestShutdown();
  if (background_.joinable()) background_.join();
  registry_->metrics().RemoveScrapeHook(scrape_hook_id_);
  HttpServer* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
}

Status HttpServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  Status nonblocking = SetNonBlocking(listen_fd_);
  if (!nonblocking.ok()) return nonblocking;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable bind address '" +
                                   options_.bind_address + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError("bind(" + options_.bind_address + ":" +
                           std::to_string(options_.port) + ") failed: " +
                           std::strerror(errno));
  }
  if (listen(listen_fd_, 512) < 0) {
    return Status::IOError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    return Status::IOError("pipe() failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  for (int fd : pipe_fds) {
    Status status = SetNonBlocking(fd);
    if (!status.ok()) return status;
    fcntl(fd, F_SETFD, FD_CLOEXEC);
  }

  workers_ = std::make_unique<ThreadPool>(
      options_.num_workers == 0 ? ThreadPool::DefaultThreadCount()
                                : options_.num_workers);
  return Status::OK();
}

Status HttpServer::StartBackground() {
  Status status = Start();
  if (!status.ok()) return status;
  background_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void HttpServer::RequestShutdown() {
  stop_requested_.store(true, std::memory_order_release);
  WakeLoop();
}

bool HttpServer::InstallShutdownSignalHandlers() {
  HttpServer* expected = nullptr;
  if (!g_signal_server.compare_exchange_strong(expected, this)) {
    return expected == this;
  }
  struct sigaction sa{};
  sa.sa_handler = OnShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked syscalls return EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  return true;
}

void HttpServer::WakeLoop() {
  if (wake_write_fd_ >= 0) {
    char byte = 'w';
    [[maybe_unused]] ssize_t n = write(wake_write_fd_, &byte, 1);
  }
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats stats;
  stats.connections_accepted = accepted_->value();
  stats.connections_rejected = rejected_->value();
  stats.requests = requests_->value();
  stats.requests_shed = shed_capacity_->value();
  stats.parse_failures = parse_failures_->value();
  stats.disconnect_cancels = disconnect_cancels_->value();
  stats.output_stalls = output_stalls_->value();
  stats.output_stall_timeouts = output_stall_timeouts_->value();
  stats.read_timeouts = read_timeouts_->value();
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  stats.drain_save_failures = drain_save_failures_->value();
  return stats;
}

// --- event loop ------------------------------------------------------------

void HttpServer::Serve() {
  Loop();
  // Workers may still be unwinding cancelled queries; their output lands
  // in closed connections' buffers and is dropped. Wait so tenant saves
  // below see quiescent services.
  if (workers_ != nullptr) workers_->Wait();
  if (!registry_->SnapshotPathFor("x").empty()) {
    size_t saved = 0;
    std::vector<TenantRegistry::TenantSaveFailure> failures;
    registry_->SaveAll(&saved, &failures);
    // One tenant's failed save never aborts the drain: SaveAll attempts
    // every tenant, and each failure surfaces as a typed NDJSON event
    // plus a nonzero drain_save_failures counter for the supervisor.
    for (const TenantRegistry::TenantSaveFailure& failure : failures) {
      drain_save_failures_->Increment();
      std::string line;
      service::EventLine(&line, "error")
          .Str("code", "save_failed")
          .Str("tenant", failure.tenant)
          .Str("status", StatusCodeToSnakeCase(failure.status.code()))
          .Str("message", failure.status.ToString())
          .End();
      std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::fprintf(stderr, "xsm::net: drain saved %zu/%zu tenants (%zu failed)\n",
                 saved, registry_->size(), failures.size());
  }
}

void HttpServer::Loop() {
  Timer drain_timer;
  bool drain_started = false;
  bool cancel_fired = false;
  std::vector<pollfd> pollfds;
  std::vector<uint64_t> pollfd_conn;  // conn id per pollfd (0 = not a conn)

  while (true) {
    if (!drain_started && stop_requested_.load(std::memory_order_acquire)) {
      drain_started = true;
      draining_.store(true, std::memory_order_release);
      drain_timer.Restart();
      if (listen_fd_ >= 0) {
        close(listen_fd_);
        listen_fd_ = -1;
      }
    }

    pollfds.clear();
    pollfd_conn.clear();
    if (listen_fd_ >= 0) {
      pollfds.push_back({listen_fd_, POLLIN, 0});
      pollfd_conn.push_back(0);
    }
    pollfds.push_back({wake_read_fd_, POLLIN, 0});
    pollfd_conn.push_back(0);
    for (auto& [id, conn] : connections_) {
      short events = conn->close_after_flush ? 0 : POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_offset < conn->outbuf.size()) events |= POLLOUT;
      }
      pollfds.push_back({conn->fd, events, 0});
      pollfd_conn.push_back(id);
    }

    int timeout_ms = drain_started ? 50 : 500;
    int ready = poll(pollfds.data(), pollfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    // Drain the wake pipe.
    char sink[256];
    while (read(wake_read_fd_, sink, sizeof(sink)) > 0) {
    }

    std::vector<uint64_t> doomed;
    for (size_t i = 0; i < pollfds.size(); ++i) {
      const pollfd& pfd = pollfds[i];
      if (pfd.fd == listen_fd_ && listen_fd_ >= 0) {
        if (pfd.revents & POLLIN) AcceptNew();
        continue;
      }
      uint64_t id = pollfd_conn[i];
      if (id == 0) continue;
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      bool alive = true;
      if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
        alive = ReadInto(conn);
      }
      if (alive && (pfd.revents & POLLOUT)) {
        alive = WriteFrom(conn);
      }
      if (!alive) doomed.push_back(id);
    }
    for (uint64_t id : doomed) CloseConnection(id);

    // Completed worker requests: resume their connections.
    std::vector<uint64_t> completed;
    {
      std::lock_guard<std::mutex> lock(completed_mu_);
      completed.swap(completed_);
    }
    for (uint64_t id : completed) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection>& conn = it->second;
      conn->processing = false;
      conn->read_at = std::chrono::steady_clock::now();
      bool close_requested;
      bool gone;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->has_active_token = false;
        close_requested = conn->close_after_response;
        // A response whose rest was dropped can only be cut off.
        gone = conn->client_gone || conn->output_dropped;
      }
      if (gone) {
        CloseConnection(id);
        continue;
      }
      if (close_requested) conn->close_after_flush = true;
      // Flush what the worker queued, then either dispatch the pipelined
      // next request or let the empty-buffer sweep below close us.
      WriteFrom(*conn);
      if (!conn->close_after_flush && conn->parser.done()) {
        DispatchRequest(conn);
      }
    }

    ExpireHalfSentRequests();

    // Close connections that were told to close and have flushed.
    std::vector<uint64_t> flushed;
    for (auto& [id, conn] : connections_) {
      if (!conn->close_after_flush || conn->processing) continue;
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->out_offset >= conn->outbuf.size()) flushed.push_back(id);
    }
    for (uint64_t id : flushed) CloseConnection(id);

    if (drain_started) {
      double elapsed = drain_timer.ElapsedSeconds();
      if (!cancel_fired && elapsed >= options_.drain_cancel_seconds) {
        cancel_fired = true;
        for (auto& [id, conn] : connections_) {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (conn->has_active_token) conn->active_token.Cancel();
          conn->WakeWriter();
        }
      }
      // Idle keep-alive connections have nothing left to wait for.
      std::vector<uint64_t> idle;
      for (auto& [id, conn] : connections_) {
        if (conn->processing) continue;
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_offset >= conn->outbuf.size()) idle.push_back(id);
      }
      for (uint64_t id : idle) CloseConnection(id);
      if (connections_.empty()) break;
      if (elapsed >= options_.drain_hard_seconds) {
        std::vector<uint64_t> all;
        for (auto& [id, conn] : connections_) {
          {
            std::lock_guard<std::mutex> lock(conn->mu);
            if (conn->has_active_token) conn->active_token.Cancel();
          }
          all.push_back(id);
        }
        for (uint64_t id : all) CloseConnection(id);
        break;
      }
    }
  }
}

void HttpServer::AcceptNew() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: poll again
    }
    if (connections_.size() >= options_.max_connections) {
      rejected_->Increment();
      close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_->Increment();
    uint64_t id = next_connection_id_++;
    connections_.emplace(
        id, std::make_shared<Connection>(id, fd, options_.limits));
  }
}

bool HttpServer::ReadInto(Connection& conn) {
  // A connection already condemned to close-after-flush owes the client
  // nothing more; reading again would double-answer a failed parse.
  if (conn.close_after_flush) return true;
  char buf[16 * 1024];
  while (true) {
    ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.read_at = std::chrono::steady_clock::now();
      conn.parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (conn.parser.failed()) {
        parse_failures_->Increment();
        if (!conn.processing) {
          const Status& status = conn.parser.status();
          std::string response = SimpleResponse(
              HttpCodeForStatus(status), kNdjson, ErrorBodyLine(status),
              /*keep_alive=*/false);
          std::lock_guard<std::mutex> lock(conn.mu);
          conn.outbuf.append(response);
        }
        conn.close_after_flush = true;
        return true;  // keep the fd until the error response flushes
      }
      if (conn.parser.done() && !conn.processing &&
          !conn.close_after_flush) {
        auto it = connections_.find(conn.id);
        if (it != connections_.end()) DispatchRequest(it->second);
      }
      continue;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
    }
    // EOF with a truncated request: a half-closed client can still read,
    // so it earns its typed error before the close.
    if (n == 0 && !conn.processing && conn.parser.midstream()) {
      conn.parser.Finish();
      parse_failures_->Increment();
      const Status& status = conn.parser.status();
      RejectPartialRequest(conn, HttpCodeForStatus(status), status);
      return true;
    }
    // EOF or hard error: the client is gone. Cancel any in-flight
    // request so the engine stops spending on an unreachable peer.
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.client_gone = true;
      if (conn.has_active_token) {
        conn.active_token.Cancel();
        disconnect_cancels_->Increment();
      }
      conn.WakeWriter();
    }
    // A processing connection must outlive its worker's completion
    // notice; CloseConnection happens when the completion drains.
    return conn.processing ? true : false;
  }
}

void HttpServer::RejectPartialRequest(Connection& conn, int code,
                                      const Status& status) {
  std::string response = SimpleResponse(code, kNdjson, ErrorBodyLine(status),
                                        /*keep_alive=*/false);
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.outbuf.append(response);
  }
  conn.close_after_flush = true;
}

void HttpServer::ExpireHalfSentRequests() {
  const auto now = std::chrono::steady_clock::now();
  for (auto& [id, conn] : connections_) {
    if (conn->processing || conn->close_after_flush ||
        !conn->parser.midstream() ||
        now - conn->read_at < kRequestReadTimeout) {
      continue;
    }
    read_timeouts_->Increment();
    RejectPartialRequest(
        *conn, 408,
        Status::DeadlineExceeded(
            "request incomplete after " +
            std::to_string(kRequestReadTimeout.count()) + " s without a byte"));
  }
}

bool HttpServer::WriteFrom(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.mu);
  while (conn.out_offset < conn.outbuf.size()) {
    ssize_t n = send(conn.fd, conn.outbuf.data() + conn.out_offset,
                     conn.outbuf.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      if (conn.writer_waiting) conn.sent_at = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    conn.client_gone = true;
    if (conn.has_active_token) {
      conn.active_token.Cancel();
      disconnect_cancels_->Increment();
    }
    conn.WakeWriter();
    return conn.processing;  // see ReadInto: wait for the worker
  }
  // Drop the sent prefix once it is at least as long as what is left: a
  // buffer that never fully drains stays bounded, and a compaction moves
  // no more bytes than were sent since the last one.
  if (conn.out_offset > 0 && conn.out_offset >= conn.unsent()) {
    conn.outbuf.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  if (conn.unsent() <= kOutputHighWaterBytes) conn.WakeWriter();
  return true;
}

void HttpServer::DispatchRequest(std::shared_ptr<Connection> conn) {
  conn->processing = true;
  HttpMessage request = std::move(conn->parser.message());
  conn->parser.Reset();  // resume on pipelined lookahead immediately
  workers_->Submit(
      [this, conn = std::move(conn), request = std::move(request)]() mutable {
        HandleRequest(std::move(conn), std::move(request));
      });
}

void HttpServer::HandleRequest(std::shared_ptr<Connection> conn,
                               HttpMessage request) {
  requests_->Increment();
  bool keep_alive = request.keep_alive && !draining();
  if (!keep_alive) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->close_after_response = true;
  }
  // A connection is closed after its first close-after-response, so this
  // is its whole keep-alive state.
  RouteRequest(conn, keep_alive, request);
  CompleteRequest(conn);
}

void HttpServer::CloseConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    if (conn->fd >= 0) {
      close(conn->fd);
      conn->fd = -1;
    }
    conn->WakeWriter();
  }
  connections_.erase(it);
}

void HttpServer::QueueOutput(const std::shared_ptr<Connection>& conn,
                             std::string_view bytes) {
  if (conn->AppendOutput([bytes](std::string& out) { out.append(bytes); },
                         output_stalls_, output_stall_timeouts_)) {
    WakeLoop();
  }
}

void HttpServer::QueueChunk(const std::shared_ptr<Connection>& conn,
                            std::string_view line) {
  if (conn->AppendOutput(
          [line](std::string& out) { AppendLineChunk(&out, line); },
          output_stalls_, output_stall_timeouts_)) {
    WakeLoop();
  }
}

void HttpServer::QueueSimple(const std::shared_ptr<Connection>& conn,
                             int code, const std::string& ndjson_body,
                             bool keep_alive) {
  if (!keep_alive) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->close_after_response = true;
  }
  QueueOutput(conn, SimpleResponse(code, kNdjson, ndjson_body, keep_alive));
}

void HttpServer::CompleteRequest(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(completed_mu_);
    completed_.push_back(conn->id);
  }
  WakeLoop();
}

// --- admission -------------------------------------------------------------

void HttpServer::StreamAdmitted(
    const std::shared_ptr<Connection>& conn, bool keep_alive,
    const service::Matcher& service,
    const std::function<void(const service::EventSink&,
                             const core::ExecutionControl&)>& run) {
  const AdmissionOptions& admission = options_.admission;
  size_t before = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (admission.max_inflight > 0 && before >= admission.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    shed_capacity_->Increment();
    std::string body;
    service::EventLine(&body, "error")
        .Str("code", "unavailable")
        .Str("message", "admission capacity reached (" +
                            std::to_string(admission.max_inflight) +
                            " requests in flight); retry later")
        .Bool("retryable", true)
        .End();
    body.push_back('\n');
    QueueOutput(conn, SimpleResponse(503, kNdjson, body, keep_alive));
    return;
  }

  // Soft→hard band: trade per-query deadline for admission. The anytime
  // contract turns the tighter budget into fewer mappings, not failures.
  double deadline = service.options().default_deadline_seconds;
  if (deadline > 0 && admission.max_inflight > 0 &&
      before >= admission.soft_inflight &&
      admission.max_inflight > admission.soft_inflight) {
    double over = static_cast<double>(before - admission.soft_inflight) /
                  static_cast<double>(admission.max_inflight -
                                      admission.soft_inflight);
    double fraction =
        1.0 - over * (1.0 - admission.min_deadline_fraction);
    fraction = std::max(admission.min_deadline_fraction,
                        std::min(1.0, fraction));
    deadline *= fraction;
  }
  core::ExecutionControl control;
  if (deadline > 0) {
    control.deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(deadline));
  }

  bool gone;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->active_token = control.cancel;
    conn->has_active_token = true;
    gone = conn->client_gone;
  }
  if (gone) control.cancel.Cancel();  // disconnect raced admission

  Timer timer;
  QueueOutput(conn, ChunkedResponseHead(200, kNdjson, keep_alive));
  service::EventSink sink = [this, &conn](const std::string& line) {
    QueueChunk(conn, line);
  };
  run(sink, control);
  // Counted finished before the client can see the end of the response,
  // so a request that follows it sees it out of flight.
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  request_latency_ms_->Observe(timer.ElapsedSeconds() * 1e3);
  QueueOutput(conn, kChunkedFinal);
}

// --- routing ---------------------------------------------------------------

void HttpServer::RouteRequest(const std::shared_ptr<Connection>& conn,
                              bool keep_alive, const HttpMessage& request) {
  std::vector<std::string> segments = SplitPathSegments(request.target);

  if (segments.size() == 1 && segments[0] == "healthz") {
    // Retired pre-/v1 path: a typed 410 teaches old clients the versioned
    // path from the error itself instead of a bare 404.
    std::string body;
    service::EventLine(&body, "error")
        .Str("code", "gone")
        .Str("message",
             "/healthz moved under the versioned API; use GET /v1/healthz")
        .Str("migrate_to", "/v1/healthz")
        .End();
    QueueSimple(conn, 410, body + "\n", keep_alive);
    return;
  }

  if (segments.size() == 2 && segments[0] == "v1" &&
      segments[1] == "healthz") {
    if (request.method != "GET") {
      QueueSimple(conn, 405,
                  ErrorBodyLine(Status::InvalidArgument(
                      "use GET /v1/healthz")), keep_alive);
      return;
    }
    std::string body;
    service::EventLine(&body, "health")
        .Str("status", draining() ? "draining" : "ok")
        .Int("tenants", registry_->size())
        .End();
    QueueSimple(conn, 200, body + "\n", keep_alive);
    return;
  }

  // /metrics stays answerable unversioned — it is Prometheus's
  // conventional scrape path — with /v1/metrics as the versioned name.
  if ((segments.size() == 1 && segments[0] == "metrics") ||
      (segments.size() == 2 && segments[0] == "v1" &&
       segments[1] == "metrics")) {
    if (request.method != "GET") {
      QueueSimple(conn, 405,
                  ErrorBodyLine(Status::InvalidArgument(
                      "use GET /metrics")), keep_alive);
      return;
    }
    // The one non-NDJSON endpoint: Prometheus text exposition v0.0.4 of
    // the shared registry (every tenant's service series plus the server
    // and WAL families).
    if (!keep_alive) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->close_after_response = true;
    }
    QueueOutput(conn,
                SimpleResponse(200, "text/plain; version=0.0.4",
                               registry_->metrics().RenderPrometheusText(),
                               keep_alive));
    return;
  }

  if (segments.size() >= 2 && segments[0] == "v1") {
    if (segments[1] == "stats" && segments.size() == 2) {
      if (request.method != "GET") {
        QueueSimple(conn, 405,
                    ErrorBodyLine(Status::InvalidArgument(
                        "use GET /v1/stats")), keep_alive);
        return;
      }
      HttpServerStats stats = this->stats();
      const obs::MetricsRegistry& metrics = registry_->metrics();
      std::string body;
      service::EventLine(&body, "server_stats")
          .Int("connections_accepted", stats.connections_accepted)
          .Int("connections_rejected", stats.connections_rejected)
          .Int("requests", stats.requests)
          .Int("requests_shed", stats.requests_shed)
          .Object("sheds")
          .Int("capacity", stats.requests_shed)
          .EndObject()
          .Int("parse_failures", stats.parse_failures)
          .Int("disconnect_cancels", stats.disconnect_cancels)
          .Int("output_stalls", stats.output_stalls)
          .Int("output_stall_timeouts", stats.output_stall_timeouts)
          .Int("read_timeouts", stats.read_timeouts)
          .Int("drain_save_failures", stats.drain_save_failures)
          .Int("inflight", stats.inflight)
          .Int("tenants", registry_->size())
          .Bool("draining", draining())
          .Object("wal")
          .Int("recoveries", metrics.CounterValue("xsm_wal_recoveries_total"))
          .Int("records_replayed",
               metrics.CounterValue("xsm_wal_records_replayed_total"))
          .Int("records_skipped",
               metrics.CounterValue("xsm_wal_records_skipped_total"))
          .Int("torn_tail_truncations",
               metrics.CounterValue("xsm_wal_torn_tail_truncations_total"))
          .EndObject()
          .Object("latency_ms")
          .Int("count", request_latency_ms_->count())
          .Fixed("p50", request_latency_ms_->Quantile(0.50), 3)
          .Fixed("p95", request_latency_ms_->Quantile(0.95), 3)
          .Fixed("p99", request_latency_ms_->Quantile(0.99), 3)
          .EndObject()
          .End();
      QueueSimple(conn, 200, body + "\n", keep_alive);
      return;
    }

    if (segments[1] == "tenants") {
      if (segments.size() == 2) {
        if (request.method != "GET") {
          QueueSimple(conn, 405,
                      ErrorBodyLine(Status::InvalidArgument(
                          "use GET /v1/tenants")), keep_alive);
          return;
        }
        std::string body;
        for (const std::string& name : registry_->Names()) {
          Tenant* tenant = registry_->Find(name);
          if (tenant != nullptr) AppendTenantEvent(*tenant, &body);
        }
        QueueSimple(conn, 200, body, keep_alive);
        return;
      }

      const std::string& name = segments[2];
      if (segments.size() == 3) {
        if (request.method != "PUT") {
          QueueSimple(conn, 405,
                      ErrorBodyLine(Status::InvalidArgument(
                          "use PUT /v1/tenants/{name} to create")),
                      keep_alive);
          return;
        }
        HandleCreateTenant(conn, keep_alive, request, name);
        return;
      }

      if (segments.size() == 4) {
        Tenant* tenant = registry_->Find(name);
        if (tenant == nullptr) {
          QueueSimple(conn, 404,
                      ErrorBodyLine(Status::NotFound(
                          "no tenant named '" + name + "'")), keep_alive);
          return;
        }
        const std::string& verb = segments[3];
        if (verb == "match" && request.method == "POST") {
          HandleMatch(conn, keep_alive, request, *tenant, /*batch=*/false);
          return;
        }
        if (verb == "batch" && request.method == "POST") {
          HandleMatch(conn, keep_alive, request, *tenant, /*batch=*/true);
          return;
        }
        if (verb == "ingest" && request.method == "POST") {
          HandleIngest(conn, keep_alive, request, *tenant);
          return;
        }
        if (verb == "integrate" && request.method == "POST") {
          HandleIntegrate(conn, keep_alive, request, *tenant);
          return;
        }
        if (verb == "save" && request.method == "POST") {
          HandleSave(conn, keep_alive, *tenant);
          return;
        }
        if (verb == "stats" && request.method == "GET") {
          std::string body;
          tenant->session->EmitStatsEvent(
              [&body](const std::string& line) { body += line + "\n"; });
          QueueSimple(conn, 200, body, keep_alive);
          return;
        }
        if (verb == "shards" && request.method == "GET") {
          std::string body;
          for (const service::ShardDescriptor& d :
               tenant->service->Shards()) {
            service::EventLine(&body, "shard")
                .Int("shard", d.shard)
                .Int("generation", d.generation)
                .Hex("fingerprint", d.fingerprint)
                .Int("trees", d.trees)
                .Int("nodes", d.nodes)
                .Int("first_tree", d.first_tree)
                .End();
            body.push_back('\n');
          }
          QueueSimple(conn, 200, body, keep_alive);
          return;
        }
        QueueSimple(conn, verb == "match" || verb == "batch" ||
                              verb == "ingest" || verb == "integrate" ||
                              verb == "save" || verb == "stats" ||
                              verb == "shards"
                          ? 405
                          : 404,
                    ErrorBodyLine(Status::NotFound(
                        "no endpoint " + request.method + " " +
                        request.target)), keep_alive);
        return;
      }
    }
  }

  QueueSimple(conn, 404,
              ErrorBodyLine(Status::NotFound("no endpoint " +
                                             request.method + " " +
                                             request.target)),
              keep_alive);
}

void HttpServer::HandleMatch(const std::shared_ptr<Connection>& conn,
                             bool keep_alive, const HttpMessage& request,
                             Tenant& tenant, bool batch) {
  std::vector<std::string> lines = BodyLines(request.body);
  if (lines.empty()) {
    QueueSimple(conn, 400,
                ErrorBodyLine(Status::InvalidArgument(
                    "empty request body (want query lines)")), keep_alive);
    return;
  }
  if (!batch && lines.size() > 1) {
    QueueSimple(conn, 400,
                ErrorBodyLine(Status::InvalidArgument(
                    "POST .../match takes exactly one query line; use "
                    ".../batch for more")), keep_alive);
    return;
  }
  std::vector<service::MatchRequest> queries;
  queries.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    auto query = tenant.session->ParseQuery(lines[i], i);
    if (!query.ok()) {
      QueueSimple(conn, HttpCodeForStatus(query.status()),
                  ErrorBodyLine(query.status()), keep_alive);
      return;
    }
    queries.push_back(std::move(*query));
  }

  StreamAdmitted(conn, keep_alive, *tenant.service,
                 [&](const service::EventSink& sink,
                     const core::ExecutionControl& control) {
                   if (batch) {
                     tenant.session->RunBatch(queries, sink, control);
                   } else {
                     tenant.session->RunQuery(queries.front(), sink, control);
                   }
                 });
}

void HttpServer::HandleIntegrate(const std::shared_ptr<Connection>& conn,
                                 bool keep_alive, const HttpMessage& request,
                                 Tenant& tenant) {
  std::vector<std::string> lines = BodyLines(request.body);
  if (lines.size() > 1) {
    QueueSimple(conn, 400,
                ErrorBodyLine(Status::InvalidArgument(
                    "POST .../integrate takes at most one option line "
                    "(!integrate grammar)")), keep_alive);
    return;
  }
  const std::string args = lines.empty() ? std::string() : lines.front();

  StreamAdmitted(conn, keep_alive, *tenant.service,
                 [&](const service::EventSink& sink,
                     const core::ExecutionControl& control) {
                   tenant.session->RunIntegrate(args, sink, control);
                 });
}

void HttpServer::HandleIngest(const std::shared_ptr<Connection>& conn,
                              bool keep_alive, const HttpMessage& request,
                              Tenant& tenant) {
  std::vector<std::string> lines = BodyLines(request.body);
  if (lines.empty()) {
    QueueSimple(conn, 400,
                ErrorBodyLine(Status::InvalidArgument(
                    "empty request body (want '!' command lines)")),
                keep_alive);
    return;
  }
  std::string body;
  auto sink = [&body](const std::string& line) { body += line + "\n"; };
  Status first_error = Status::OK();
  for (const std::string& line : lines) {
    if (line[0] != '!') {
      Status status = Status::InvalidArgument(
          "ingest lines must be '!' commands, got '" + line + "'");
      service::ServeSession::EmitErrorEvent("", status, sink);
      if (first_error.ok()) first_error = std::move(status);
      continue;
    }
    Status status = tenant.session->RunCommand(line, sink);
    if (!status.ok() && first_error.ok()) first_error = std::move(status);
  }
  QueueSimple(conn,
              first_error.ok() ? 200 : HttpCodeForStatus(first_error),
              body, keep_alive);
}

void HttpServer::HandleCreateTenant(const std::shared_ptr<Connection>& conn,
                                    bool keep_alive,
                                    const HttpMessage& request,
                                    const std::string& name) {
  schema::SchemaForest forest;
  std::vector<std::string> lines = BodyLines(request.body);
  for (const std::string& line : lines) {
    std::string spec = line;
    std::string source;
    size_t space = line.find_first_of(" \t");
    if (space != std::string::npos) {
      spec = line.substr(0, space);
      std::string rest = line.substr(space + 1);
      size_t eq = rest.find("source=");
      if (eq != std::string::npos) source = rest.substr(eq + 7);
    }
    auto tree = schema::ParseTreeSpec(spec);
    if (!tree.ok()) {
      QueueSimple(conn, HttpCodeForStatus(tree.status()),
                  ErrorBodyLine(tree.status()), keep_alive);
      return;
    }
    forest.AddTree(std::move(*tree), std::move(source));
  }
  auto tenant = registry_->Create(name, std::move(forest));
  if (!tenant.ok()) {
    QueueSimple(conn, HttpCodeForStatus(tenant.status()),
                ErrorBodyLine(tenant.status()), keep_alive);
    return;
  }
  std::string body;
  AppendTenantEvent(**tenant, &body);
  QueueSimple(conn, 201, body, keep_alive);
}

void HttpServer::HandleSave(const std::shared_ptr<Connection>& conn,
                            bool keep_alive, Tenant& tenant) {
  auto info = registry_->Save(tenant.name);
  if (!info.ok()) {
    QueueSimple(conn, HttpCodeForStatus(info.status()),
                ErrorBodyLine(info.status()), keep_alive);
    return;
  }
  std::string body;
  service::ServeSession::EmitSavedEvent(
      "tenant", tenant.name, *info,
      [&body](const std::string& line) { body = line + "\n"; });
  QueueSimple(conn, 200, body, keep_alive);
}

}  // namespace xsm::net
