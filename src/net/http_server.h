// HttpServer: the xsm::net socket front end. A single poll()-based event
// loop owns every file descriptor — it accepts connections, reads request
// bytes into per-connection HttpParsers, and writes queued response bytes.
// Completed requests are handed to a worker pool; workers never touch a
// socket: they run the request against the tenant's ServeSession and
// append framed response bytes to the connection's locked output buffer,
// waking the loop through its self-pipe when that buffer was drained.
// That split keeps the loop non-blocking (a slow query can never stall
// accepts or other connections) and makes client disconnects observable
// mid-query: when the loop reads EOF on a connection whose request is
// still running, it cancels the request's CancelToken — the query winds
// down cooperatively and the partial response is discarded.
//
// A connection's unsent output is bounded: a worker that would queue more
// while kOutputHighWaterBytes are still unsent waits until the loop's
// sends drain below the mark, so a client that stops reading holds up its
// own query, not the server's memory. A close, a disconnect or the drain's
// cancel ends the wait; the rest of that response is then dropped. So does
// kOutputStallTimeout without drain progress, which also cancels the query
// and closes the connection: a client that neither reads nor disconnects
// cannot hold a worker and an admission slot for longer. On the way in,
// a client that starts a request and then sends nothing more for
// kRequestReadTimeout gets a typed 408 and is closed, so half-sent requests
// cannot pin connection slots either; idle keep-alive connections holding
// no partial request are left open.
//
// Admission control reuses the engine's deadline machinery rather than
// inventing a queue: up to `soft_inflight` concurrent match/batch
// requests run with the tenant's full default deadline; between soft and
// `max_inflight` the deadline scales linearly down to
// `min_deadline_fraction` of the default (the engine's anytime contract
// turns the tighter budget into smaller result sets, not errors); at
// `max_inflight` requests are shed immediately with a typed NDJSON 503.
//
// Graceful drain: RequestShutdown() (async-signal-safe; wired to
// SIGINT/SIGTERM by InstallShutdownSignalHandlers) stops the listener,
// lets in-flight requests finish — cancelling stragglers after
// `drain_cancel_seconds` — flushes and closes every connection, then
// saves every tenant to the registry's state directory, so a warm
// restart resumes each tenant at its pre-drain generation.
#ifndef XSM_NET_HTTP_SERVER_H_
#define XSM_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/tenant_registry.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xsm::net {

struct AdmissionOptions {
  /// Hard cap on concurrently executing match/batch requests; the
  /// (max_inflight+1)-th is shed with a typed 503. 0 disables shedding.
  size_t max_inflight = 256;
  /// Below this many in-flight requests, queries run with the tenant's
  /// full default deadline; from here to max_inflight the deadline
  /// tightens linearly. 0 means max_inflight (no scaling band).
  size_t soft_inflight = 0;
  /// Deadline fraction applied at the hard cap (0.25 = a request admitted
  /// at the last slot gets a quarter of the default deadline). Only
  /// meaningful when the tenant service has a default deadline.
  double min_deadline_fraction = 0.25;
};

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; port() reports the bound one.
  uint16_t port = 0;
  /// Request-handling workers; 0 means ThreadPool::DefaultThreadCount().
  size_t num_workers = 0;
  /// Maximum accepted connections; accepts beyond it are closed
  /// immediately (backpressure at the socket layer).
  size_t max_connections = 4096;
  HttpLimits limits;
  AdmissionOptions admission;
  /// Seconds a drain waits for in-flight requests before cancelling them.
  double drain_cancel_seconds = 5.0;
  /// Seconds a drain waits in total before force-closing connections.
  double drain_hard_seconds = 10.0;
};

/// Point-in-time server counters. Every value is read back from the
/// shared metrics registry (the server's counters live there), so this
/// struct, `/v1/stats` and `GET /metrics` can never disagree.
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< over max_connections
  uint64_t requests = 0;              ///< routed requests, any endpoint
  uint64_t requests_shed = 0;         ///< 503s from admission control
  uint64_t parse_failures = 0;        ///< connections killed by bad HTTP
  uint64_t disconnect_cancels = 0;    ///< queries cancelled by client EOF
  uint64_t output_stalls = 0;  ///< waits for a client to read (see mark)
  /// Stalled waits that hit kOutputStallTimeout: query cancelled and
  /// connection closed.
  uint64_t output_stall_timeouts = 0;
  /// Half-sent requests closed after kRequestReadTimeout without a byte.
  uint64_t read_timeouts = 0;
  uint64_t drain_save_failures = 0;   ///< tenants the drain failed to save
  size_t inflight = 0;                ///< match/batch executing right now
};

/// Serves the registry's tenants over HTTP/1.1. The REST surface is
/// versioned under /v1 (all responses NDJSON; streaming ones chunked):
///   GET  /v1/healthz                   liveness + tenant count
///   GET  /v1/tenants                   one {"type":"tenant",...} per line
///   PUT  /v1/tenants/{t}               create tenant; body = tree-spec
///                                      lines ('#' comments allowed)
///   POST /v1/tenants/{t}/match         body = one query line (serve
///                                      grammar); streams mapping events
///   POST /v1/tenants/{t}/batch         body = query lines; interleaved
///                                      mapping events, done in order
///   POST /v1/tenants/{t}/ingest        body = '!' command lines
///                                      (!ingest / !replace / !remove)
///   POST /v1/tenants/{t}/integrate     body = at most one option line
///                                      (!integrate grammar); streams
///                                      pair / cluster / mediated events
///   POST /v1/tenants/{t}/save          persist tenant to the state dir
///   GET  /v1/tenants/{t}/stats         the tenant's stats event
///   GET  /v1/tenants/{t}/shards        one {"type":"shard",...} line per
///                                      shard of the tenant's backend
///   GET  /v1/stats                     server-wide stats event
///   GET  /v1/metrics                   Prometheus text exposition of the
///                                      shared registry (all tenants +
///                                      server + WAL series; text/plain)
///   GET  /metrics                      alias for /v1/metrics, kept
///                                      unversioned for Prometheus's
///                                      conventional scrape path
/// The pre-versioning /healthz alias answers 410 Gone with a typed
/// migration hint naming /v1/healthz.
class HttpServer {
 public:
  /// `registry` must outlive the server.
  HttpServer(TenantRegistry* registry, HttpServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and listens. After Ok, port() is the bound port.
  Status Start();

  /// Runs the event loop on the calling thread until a shutdown request
  /// drains the server. Requires Start().
  void Serve();

  /// Start() + Serve() on an internal thread; returns once the socket
  /// is accepting. The destructor (or RequestShutdown + destructor)
  /// joins it.
  Status StartBackground();

  /// Initiates graceful drain. Async-signal-safe (one pipe write) and
  /// idempotent; callable from any thread or signal handler.
  void RequestShutdown();

  /// Routes SIGINT/SIGTERM to RequestShutdown() on this server. At most
  /// one server per process may install; returns false if taken.
  bool InstallShutdownSignalHandlers();

  /// Unsent response bytes a connection may hold before the worker
  /// writing to it waits for the client to read. A client that keeps
  /// reading seldom leaves this much unsent; one that stops reading meets
  /// it and then holds up only its own query.
  static constexpr size_t kOutputHighWaterBytes = size_t{8} << 20;

  /// How long a worker waits at the mark with no byte of the connection's
  /// output sent before it gives up on the client: it drops the rest of
  /// the response, cancels the query and has the connection closed.
  static constexpr std::chrono::seconds kOutputStallTimeout{10};

  /// How long a connection may hold a partly received request without a
  /// new byte arriving before the loop answers it with a typed 408 and
  /// closes it after the flush. Checked on the loop's poll tick.
  static constexpr std::chrono::seconds kRequestReadTimeout{10};

  uint16_t port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  HttpServerStats stats() const;

 private:
  struct Connection;

  void Loop();
  void AcceptNew();
  /// Reads available bytes; returns false when the connection is done
  /// for (EOF or error) and should be torn down after flushing.
  bool ReadInto(Connection& conn);
  /// Flushes queued output bytes; false on write error.
  bool WriteFrom(Connection& conn);
  /// Answers a request the client will never complete with `code` and a
  /// typed error line, then closes the connection once that is flushed.
  void RejectPartialRequest(Connection& conn, int code, const Status& status);
  /// Rejects every half-sent request that has read no byte for
  /// kRequestReadTimeout.
  void ExpireHalfSentRequests();
  /// Dispatches the parser's completed request to the worker pool.
  void DispatchRequest(std::shared_ptr<Connection> conn);
  /// Runs on a worker: routes and answers one request.
  void HandleRequest(std::shared_ptr<Connection> conn, HttpMessage request);
  /// Marks the in-loop teardown of one connection.
  void CloseConnection(uint64_t id);
  void WakeLoop();

  // --- endpoint handlers (worker threads) ---
  void RouteRequest(const std::shared_ptr<Connection>& conn, bool keep_alive,
                    const HttpMessage& request);
  void HandleMatch(const std::shared_ptr<Connection>& conn, bool keep_alive,
                   const HttpMessage& request, Tenant& tenant, bool batch);
  void HandleIngest(const std::shared_ptr<Connection>& conn, bool keep_alive,
                    const HttpMessage& request, Tenant& tenant);
  void HandleIntegrate(const std::shared_ptr<Connection>& conn,
                       bool keep_alive, const HttpMessage& request,
                       Tenant& tenant);
  void HandleCreateTenant(const std::shared_ptr<Connection>& conn,
                          bool keep_alive, const HttpMessage& request,
                          const std::string& name);
  void HandleSave(const std::shared_ptr<Connection>& conn, bool keep_alive,
                  Tenant& tenant);

  /// The streaming endpoints' shared tail: admission (a shed request gets
  /// its typed 503 and `run` never runs), then a chunked 200 whose chunks
  /// are the events `run` sends to its sink under the admitted control.
  void StreamAdmitted(
      const std::shared_ptr<Connection>& conn, bool keep_alive,
      const service::Matcher& service,
      const std::function<void(const service::EventSink&,
                               const core::ExecutionControl&)>& run);

  /// Appends bytes to the connection's output buffer. Wakes the loop only
  /// when the buffer goes from drained (everything sent) to non-empty:
  /// while bytes are pending a wake is already owed — the wake that
  /// queued them, or the loop's POLLOUT interest once a send would block —
  /// and the loop's next WriteFrom sends everything queued by then. So a
  /// streamed response wakes the loop once per drain, not once per event,
  /// and its first event after a drain still wakes it at once.
  void QueueOutput(const std::shared_ptr<Connection>& conn,
                   std::string_view bytes);
  /// Queues `line` + "\n" as one response chunk, framed straight into the
  /// output buffer under QueueOutput's lock and wake rule. The sink of the
  /// streaming endpoints: one chunk per event.
  void QueueChunk(const std::shared_ptr<Connection>& conn,
                  std::string_view line);
  /// Queues a complete non-streaming response.
  void QueueSimple(const std::shared_ptr<Connection>& conn, int code,
                   const std::string& ndjson_body, bool keep_alive);
  /// Marks the worker's request finished so the loop resumes the
  /// connection (pipelined next request or close).
  void CompleteRequest(const std::shared_ptr<Connection>& conn);

  TenantRegistry* registry_;
  HttpServerOptions options_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;

  std::unique_ptr<ThreadPool> workers_;
  std::thread background_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_requested_{false};

  /// Loop-owned; workers only reach connections through the shared_ptrs
  /// captured at dispatch.
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;

  /// Connections whose worker finished its request; drained by the loop.
  std::mutex completed_mu_;
  std::vector<uint64_t> completed_;

  /// Admission bookkeeping stays a plain atomic: StreamAdmitted's shed/scale
  /// decisions key off fetch_add's return value. A scrape hook mirrors it
  /// into the xsm_http_inflight gauge at render time.
  std::atomic<size_t> inflight_{0};

  /// Registry counter handles (registered in the constructor against the
  /// registry's shared obs::MetricsRegistry) — the single source of truth
  /// behind stats(), /v1/stats and /metrics.
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* shed_capacity_ = nullptr;  ///< {reason="capacity"}
  obs::Counter* parse_failures_ = nullptr;
  obs::Counter* disconnect_cancels_ = nullptr;
  obs::Counter* output_stalls_ = nullptr;
  obs::Counter* output_stall_timeouts_ = nullptr;
  obs::Counter* read_timeouts_ = nullptr;
  obs::Counter* drain_save_failures_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Histogram* request_latency_ms_ = nullptr;
  uint64_t scrape_hook_id_ = 0;
};

}  // namespace xsm::net

#endif  // XSM_NET_HTTP_SERVER_H_
