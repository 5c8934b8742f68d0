// ServeSession: the transport-independent serving core shared by the CLI's
// stdin serve mode and the xsm::net HTTP front end. One session wraps one
// Matcher backend (single-snapshot or sharded) and exposes exactly the
// serve-mode surface — query lines
// ("SPEC [key=value ...]"), repository commands ("!ingest SPEC", "!remove
// ID", ...) and the NDJSON event vocabulary (mapping / cluster / done /
// error / generation / saved / stats / metrics / trace / slow_query /
// pair / mediated) — as plain functions over an
// EventSink, so the two transports cannot drift: stdin serve prints the
// sink's lines to stdout, the HTTP server frames them as response chunks,
// and both emit byte-identical events for the same input.
//
// Thread-safety: a session holds no mutable query state besides an id
// counter; RunQuery / RunCommand may be called from any number of threads
// concurrently (the HTTP server runs one call per worker). Each call's
// events go only to the sink passed to that call — per-connection sinks
// never interleave. HandleLine's automatic query numbering is the only
// cross-call state and is atomic.
#ifndef XSM_SERVICE_SERVE_SESSION_H_
#define XSM_SERVICE_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/execution_control.h"
#include "core/match_observer.h"
#include "integrate/integration_engine.h"
#include "obs/trace.h"
#include "repo/loader.h"
#include "service/event_line.h"
#include "service/matcher.h"
#include "util/status.h"
#include "util/timer.h"

namespace xsm::service {

/// Receives one complete NDJSON event line (no trailing newline) per call.
/// Called from the thread executing the query or command — for submitted
/// queries that is a service pool thread. ServeSession never calls one sink
/// concurrently (RunBatch serializes its members' events), so a sink needs
/// no locking of its own for the duration of the call it was passed to.
using EventSink = std::function<void(const std::string& line)>;

/// Loads a forest from either a saved forest file or a directory of
/// .dtd/.xsd schemas (serve-mode !reload; CLI --repo-dir startup).
/// `report` (optional) receives the directory-load counters.
Result<schema::SchemaForest> LoadForestFromPath(const std::string& path,
                                                repo::LoadReport* report =
                                                    nullptr);

struct ServeSessionOptions {
  /// Defaults each query line's key=value pairs override.
  core::MatchOptions defaults;
  /// stop_after_n_mappings applied to every query whose control has none.
  uint64_t first_n = 0;
  /// Also emit one "cluster" event per generated cluster.
  bool cluster_events = false;
  /// Allow commands that touch the server's filesystem (!reload, !save).
  /// The HTTP front end turns this off: remote clients must not name
  /// arbitrary server paths; saving goes through the state-dir endpoint.
  bool allow_filesystem = true;
  /// Emit one "trace" event per query / mutation with the per-stage span
  /// breakdown (queue wait, cache outcome, dictionary scoring, ...). Field
  /// order is fixed, so suites can byte-compare modulo the timing values.
  /// Batch members stay untraced (one shared context would interleave
  /// their spans nondeterministically).
  bool trace_events = false;
};

/// Streams one query's run as NDJSON events into a sink. Mapping and
/// cluster events are composed by EventLine in one member buffer that
/// every event reuses: the mapping text goes in through
/// generate::AppendMappingText, and only a name that needs JSON escaping
/// is rewritten. The sink is called once per event with that buffer, so it
/// must copy what it keeps.
/// Callbacks fire on the thread executing the query, one at a time, so the
/// buffer needs no lock.
class NdjsonEventObserver : public core::MatchObserver {
 public:
  /// `personal` and `pin` must outlive the observer; `pin` is the
  /// generation the query is pinned to (its forest names the mapped trees).
  NdjsonEventObserver(
      const std::string& id, const schema::SchemaTree* personal,
      RepositoryPinPtr pin, const EventSink& sink, bool cluster_events);

  void OnMapping(const generate::SchemaMapping& mapping,
                 size_t running_rank) override;
  void OnClusterFinish(size_t sequence, size_t total,
                       const core::ClusterSummary& summary,
                       const core::MatchStats& so_far) override;
  void OnFinish(const core::MatchResult& result) override;

  double ElapsedMs() const { return timer_.ElapsedSeconds() * 1e3; }
  /// Submission-to-completion latency; falls back to the current elapsed
  /// time for runs that failed before finishing.
  double DoneMs() const {
    return finished_ms_ >= 0 ? finished_ms_ : ElapsedMs();
  }

 private:
  std::string id_;
  const schema::SchemaTree* personal_;
  RepositoryPinPtr pin_;
  const EventSink& sink_;
  bool cluster_events_;
  Timer timer_;
  double finished_ms_ = -1;
  std::string line_;  // the mapping event being composed, reused
};

/// Streams an integration run as NDJSON events: one "pair" event per linked
/// schema pair, one "cluster" event per mediated element (rank order), and a
/// terminal "mediated" summary. Shared by the stdin serve, HTTP and CLI
/// surfaces, so their event streams are byte-identical for the same run
/// (modulo the "ms" field of the terminal event).
class NdjsonIntegrationObserver : public integrate::IntegrationObserver {
 public:
  explicit NdjsonIntegrationObserver(const EventSink& sink) : sink_(sink) {}

  void OnPair(const integrate::PairProgress& progress) override;
  void OnMediatedElement(
      size_t rank, const integrate::MediatedElement& element,
      const integrate::CorrespondenceCluster& cluster) override;
  void OnFinish(const integrate::IntegrationResult& result) override;

  double ElapsedMs() const { return timer_.ElapsedSeconds() * 1e3; }

  /// Member refs listed per cluster event before truncating to a count
  /// field — bounds event size against pathological chained clusters.
  static constexpr size_t kMaxMemberRefs = 64;

 private:
  const EventSink& sink_;
  Timer timer_;
};

class ServeSession {
 public:
  /// `service` must outlive the session. Any Matcher backend works — the
  /// session never looks behind the interface.
  ServeSession(Matcher* service, ServeSessionOptions options);

  Matcher* service() const { return service_; }
  const ServeSessionOptions& options() const { return options_; }

  /// Parses one query line of the serve/batch grammar:
  ///   SPEC [id=NAME] [delta=D] [top=N] [cluster=tree|kmeans] [join=J]
  ///        [threshold=T] [alpha=A]
  /// against the session defaults. `index` numbers the fallback id "q<i>".
  /// Numbers are strict: D, T and A must each be a whole finite number, N
  /// a whole 64-bit integer and J a whole int, or the line is
  /// InvalidArgument ("delta=abc", "threshold=0.5x" and "top=" are refused,
  /// not read as a prefix or as 0). top=-1 still means no limit.
  Result<MatchRequest> ParseQuery(const std::string& line, size_t index) const;

  /// Runs one query to completion, streaming mapping/cluster events to
  /// `sink` the moment they are found and finishing with one "done" (or
  /// "error") event. The query executes on the service pool; this call
  /// blocks until it resolves. `control`'s cancel token is honored
  /// throughout (the HTTP server wires client disconnect to it); the
  /// session first_n and the service default deadline fill in when
  /// `control` carries none.
  Result<core::MatchResult> RunQuery(
      const MatchRequest& query, const EventSink& sink,
      core::ExecutionControl control = core::ExecutionControl());

  /// Submits every query on the service pool, streams interleaved mapping
  /// events, then emits the done events in input order (the batch-mode
  /// contract). Returns the number of queries that failed with an error
  /// Status (interrupted runs — cancelled / deadline — are not errors).
  /// Members run concurrently, but their events reach `sink` one call at a
  /// time: RunBatch holds one mutex around every sink call it makes.
  size_t RunBatch(const std::vector<MatchRequest>& queries,
                  const EventSink& sink,
                  core::ExecutionControl control = core::ExecutionControl());

  /// Handles one serve-mode '!' command line. Grammar:
  ///   !ingest SPEC [source=NAME]      add one tree
  ///   !replace ID SPEC [source=NAME]  swap tree ID's payload
  ///   !remove ID                      retire tree ID
  ///   !reload (FILE|DIR)              replace the whole repository
  ///   !save PATH                      persist the current snapshot
  ///   !integrate [key=value ...]      N-way integration (see RunIntegrate)
  ///   !generation                     report the current generation
  ///   !stats                          service counters as one event
  ///   !metrics                        Prometheus exposition as one event
  /// IDs follow ParseQuery's strict number rule ("!remove 1junk" is an
  /// error, not tree 1). Every successful mutation emits one "generation"
  /// event; failures emit typed "error" events. Returns the command's status (already reported
  /// to the sink — callers only need it for transport-level mapping, e.g.
  /// the HTTP response code). `control` bounds long-running commands
  /// (currently !integrate); the default is unlimited.
  Status RunCommand(const std::string& line, const EventSink& sink,
                    core::ExecutionControl control = core::ExecutionControl());

  /// Runs a holistic N-way integration of the current snapshot (see
  /// integrate::IntegrationEngine), streaming pair / cluster events and a
  /// terminal "mediated" summary to `sink`. `args` is the option grammar
  ///   [threshold=T] [min_linkage=N] [severity=weak|probable|strong]
  ///   [strong=C] [probable=C] [seed=S]
  /// over integrate::IntegrationOptions defaults, with ParseQuery's strict
  /// number rule. `control`'s cancel token
  /// and deadline are honored between slices (the HTTP server wires client
  /// disconnect and admission deadlines to it); an interrupted run still
  /// emits its typed partial "mediated" event and returns OK — only option
  /// parse failures and engine errors are error Statuses (already reported
  /// to the sink as typed "error" events).
  Status RunIntegrate(const std::string& args, const EventSink& sink,
                      core::ExecutionControl control =
                          core::ExecutionControl());

  /// One stdin-serve iteration: strips '#' comments and whitespace, ignores
  /// blank lines, dispatches '!' lines to RunCommand and everything else
  /// through ParseQuery + RunQuery with an auto-incremented query index.
  void HandleLine(const std::string& line, const EventSink& sink,
                  core::ExecutionControl control = core::ExecutionControl());

  /// Emits the "done"/"error" terminal event for one finished query.
  /// Exposed for transports that submit queries themselves. "mappings" is
  /// every mapping with Δ ≥ δ the run found, which equals the number of
  /// mapping events only for top=0; "kept" is the top-N-trimmed list.
  static void EmitDoneEvent(const std::string& id,
                            const Result<core::MatchResult>& result,
                            double elapsed_ms, const EventSink& sink);

  /// Emits the "slow_query" event RunQuery sends before "done" when a
  /// query took at least the service's slow_query_ms.
  static void EmitSlowQueryEvent(const std::string& id, double ms,
                                 double threshold_ms, const EventSink& sink);

  /// Emits one "generation" event describing a published delta.
  static void EmitGenerationEvent(const live::ApplyReport& report,
                                  const EventSink& sink);

  /// Emits one "saved" event for a written snapshot; `key` names what
  /// identifies it ("path" on stdin serve, "tenant" over HTTP).
  static void EmitSavedEvent(std::string_view key, std::string_view value,
                             const store::SnapshotFileInfo& info,
                             const EventSink& sink);

  /// Emits one typed "error" event: {"type":"error","code":...,
  /// "message":...} (+ "id" when non-empty). `code` is the lowercase
  /// StatusCode name, so transports can map it (e.g. to an HTTP status).
  static void EmitErrorEvent(const std::string& id, const Status& status,
                             const EventSink& sink);

  /// Emits the "stats" event RunCommand("!stats") produces; also used by
  /// the HTTP /stats endpoint so the two surfaces report identical fields.
  /// Every value is read back from the service (whose counters live in
  /// the metrics registry), so `!stats`, `/v1/stats` and `/metrics` agree.
  void EmitStatsEvent(const EventSink& sink) const;

  /// Emits one "trace" event: {"type":"trace","id":...,"spans":[{"name":
  /// ...,"note":...,"start_ms":...,"ms":...},...]}. Deterministic field
  /// order; only the two timing values vary between identical runs.
  static void EmitTraceEvent(const std::string& id,
                             const obs::TraceContext& trace,
                             const EventSink& sink);

 private:
  Matcher* service_;
  ServeSessionOptions options_;
  std::atomic<size_t> next_query_index_{0};
};

}  // namespace xsm::service

#endif  // XSM_SERVICE_SERVE_SESSION_H_
