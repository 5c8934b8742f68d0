// Matcher: the one calling surface, and the one serving shell, of every
// matching backend. A caller hands in one MatchRequest and gets one
// MatchOutcome back (streaming progress through a MatchObserver), against
// an explicit RepositoryPin so the caller and the engine provably see the
// same repository generation. Both the single-snapshot MatchService and the
// scatter-gather shard::ShardedMatchService derive from it, so ServeSession,
// the HTTP endpoints, the CLI and the IntegrationEngine are backend-agnostic.
//
//   Result<MatchOutcome> out = matcher->Run(request);            // terminal
//   MatchHandle h = matcher->Submit(matcher->Pin(), request);    // async
//   matcher->RunOn(pin, request, control, &observer);            // streaming
//   BatchMatchResult b = matcher->RunBatch(std::move(requests)); // batch
//
// Everything both backends do identically lives here: the query and
// matching pools, the shared metric families and their scrape hook, the
// per-query envelope (validation, deadlines, the cluster-cache lookup and
// its trace span, terminal and latency accounting), Submit / RunBatch, the
// fingerprint-namespaced cluster caches, and the one durable write path
// (ApplyDelta: build → journal → publish → count; SaveSnapshot: checkpoint
// → count → re-base the journal). A backend supplies its repository chain
// through three write hooks (build a delta's successor pin, publish it,
// write a checkpoint in its format) and four read hooks (which pins it
// owns, its execution plumbing, how it builds a cluster state, and how it
// runs generation against one).
#ifndef XSM_SERVICE_MATCHER_H_
#define XSM_SERVICE_MATCHER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "core/match_observer.h"
#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "obs/metrics.h"
#include "schema/schema_tree.h"
#include "service/cluster_index_cache.h"
#include "service/repository_pin.h"
#include "store/snapshot_store.h"
#include "util/io.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "wal/wal.h"

namespace xsm::service {

/// One unit of service work: a personal schema plus the matching knobs.
struct MatchRequest {
  /// Stable identity of the request. Labels results and — for randomized
  /// clustering initializations — seeds the per-query RNG, so re-running a
  /// request with the same id reproduces its result exactly regardless of
  /// concurrency (see EffectiveOptionsPolicy::derive_seeds).
  std::string id;
  schema::SchemaTree personal;
  core::MatchOptions options;
};

/// Validated construction of a MatchRequest: setters collect the knobs a
/// serving layer sets, and Build() runs the complete validation once, up
/// front. A request that
/// Build() returns is accepted by every backend.
class MatchRequestBuilder {
 public:
  MatchRequestBuilder& id(std::string id) {
    request_.id = std::move(id);
    return *this;
  }
  MatchRequestBuilder& personal(schema::SchemaTree personal) {
    request_.personal = std::move(personal);
    return *this;
  }
  /// Adopts a full options block (defaults for a serving layer), on top of
  /// which the knob setters below apply.
  MatchRequestBuilder& options(const core::MatchOptions& options) {
    request_.options = options;
    return *this;
  }
  MatchRequestBuilder& delta(double delta) {
    request_.options.delta = delta;
    return *this;
  }
  MatchRequestBuilder& top_n(size_t top_n) {
    request_.options.top_n = top_n;
    return *this;
  }
  MatchRequestBuilder& threshold(double threshold) {
    request_.options.element.threshold = threshold;
    return *this;
  }
  MatchRequestBuilder& alpha(double alpha) {
    request_.options.objective.alpha = alpha;
    return *this;
  }
  MatchRequestBuilder& clustering(core::ClusteringMode mode) {
    request_.options.clustering = mode;
    return *this;
  }

  /// Access to the request under construction (for knobs without setters).
  MatchRequest& request() { return request_; }

  /// Validates every field a backend would otherwise reject mid-flight:
  /// non-empty well-formed personal schema, δ and element threshold in
  /// [0,1], objective and k-means parameters. Returns the finished request
  /// by value; the builder may be reused afterwards.
  Result<MatchRequest> Build() const;

 private:
  MatchRequest request_;
};

struct MatchServiceOptions {
  /// Worker threads executing Submit / RunBatch work; 0 means
  /// ThreadPool::DefaultThreadCount().
  size_t num_threads = 0;
  /// Worker threads for the element-matching stage of cluster-state builds
  /// (dictionary shards; see match::ElementMatchingOptions::pool). A
  /// dedicated pool, separate from `num_threads`: queries executing on the
  /// main pool fan their matching out here, so they can never deadlock
  /// waiting on their own workers. 0 scores serially on the query's thread
  /// — the right default when the main pool already saturates the machine.
  size_t matching_threads = 0;
  /// Capacity of each cluster-state cache namespace in entries (distinct
  /// (personal schema, clustering options) keys); 0 disables caching.
  size_t cluster_cache_capacity = 64;
  /// Per-query wall-clock deadline in seconds, applied to every request
  /// whose ExecutionControl carries no deadline of its own; 0 disables. The
  /// clock starts when the request is submitted (Submit) or executed
  /// (Run / RunBatch members), so pool queue wait counts against it. An
  /// expired request returns the mappings found so far with
  /// MatchResult::execution == kDeadlineExceeded.
  double default_deadline_seconds = 0;
  /// Registry this backend's metric series live in — shared across
  /// components (the HTTP front-end passes one registry to every tenant's
  /// backend) so one `/metrics` scrape covers the process. nullptr: the
  /// backend creates a private registry (metrics() exposes it either way).
  obs::MetricsRegistry* metrics = nullptr;
  /// Value of the `tenant` label on this backend's series; empty emits
  /// unlabeled series (single-tenant processes).
  std::string metrics_tenant;
  /// false disables the per-query instrumentation added beyond the
  /// historical counters — latency histogram, slow-query accounting —
  /// giving benchmarks an uninstrumented baseline to measure overhead
  /// against. Counters still work (they replaced equal-cost atomics).
  bool enable_metrics = true;
  /// Queries slower than this many wall-clock milliseconds count into
  /// xsm_slow_queries_total, and serving layers log them (ServeSession
  /// emits a "slow_query" NDJSON event). 0 disables.
  double slow_query_ms = 0;
};

/// The pure part of the "effective options" computation: what any backend
/// runs for `request` given only the seeding policy — per-request k-means
/// seed derivation for randomized initializations, and the removal of any
/// caller-supplied element.control (cached cluster-state builds must always
/// run to completion). Backends layer execution plumbing (the snapshot's
/// name dictionary, the matching pool) on top of this; that plumbing never
/// changes results, so `!stats`, HTTP and the CLI all report exactly the
/// options this function returns. Every backend runs the default policy.
struct EffectiveOptionsPolicy {
  /// Base seed mixed with request ids by SeedForQuery.
  uint64_t base_seed = 42;
  /// When a request's clustering consumes randomness (CentroidInit::kRandom
  /// / kFarthestFirst), replace its k-means seed with
  /// SeedForQuery(base_seed, request.id) so results are a pure function of
  /// the request, not of thread interleaving. The default kMinSet
  /// initialization is deterministic and ignores the seed, so those
  /// requests share cache entries across ids.
  bool derive_seeds = true;
};
core::MatchOptions EffectiveRequestOptions(const MatchRequest& request,
                                           const EffectiveOptionsPolicy& policy);

/// Result of one RunBatch call: the per-request results in input order plus
/// the provenance of the pin the whole batch ran against. Callers recording
/// where results came from (integration provenance, scatter-gather merges)
/// read the generation/fingerprint instead of racing CurrentGeneration()
/// against concurrent deltas.
struct BatchMatchResult {
  /// Generation number of the pin that served every batch member.
  uint64_t generation = 0;
  /// Content fingerprint of that pin.
  uint64_t fingerprint = 0;
  /// Per-request results, in input order.
  std::vector<Result<core::MatchResult>> results;
};

/// Terminal result of one Run call: the engine result plus the provenance
/// of the repository content that produced it.
struct MatchOutcome {
  core::MatchResult result;
  uint64_t generation = 0;
  uint64_t fingerprint = 0;
};

struct ServiceStats {
  uint64_t queries = 0;  ///< executed requests (batch members included)
  uint64_t batches = 0;  ///< RunBatch() calls
  // Queries cut short by execution control (terminal status != kCompleted).
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t early_stopped = 0;
  // Evolving-repository state.
  uint64_t generation = 0;       ///< current repository generation
  uint64_t deltas_applied = 0;   ///< successful ApplyDelta calls
  /// Queries whose wall-clock time exceeded MatchServiceOptions::
  /// slow_query_ms (0 while that threshold is disabled).
  uint64_t slow_queries = 0;
  size_t cache_namespaces = 0;   ///< retained per-fingerprint caches
  /// Cluster-cache counters aggregated over every namespace this backend
  /// ever held (dropped namespaces' counters are folded in, and their
  /// resident entries at drop time count as evictions).
  ClusterIndexCache::Stats cache;
};

/// One shard of a backend's repository, as reported by Matcher::Shards().
/// The unsharded backend reports exactly one covering everything.
struct ShardDescriptor {
  size_t shard = 0;            ///< shard index in [0, K)
  uint64_t generation = 0;     ///< the shard's own generation chain position
  uint64_t fingerprint = 0;    ///< content fingerprint of the shard's forest
  size_t trees = 0;            ///< trees owned by this shard
  size_t nodes = 0;            ///< total nodes across those trees
  schema::TreeId first_tree = 0;  ///< first global TreeId the shard owns
};

/// Handle to one in-flight Submit request. Cancel() requests cooperative
/// cancellation — the request still resolves normally (Status-OK) with the
/// mappings found so far and execution == kCancelled. Move-only; Get() may
/// be called once.
class MatchHandle {
 public:
  MatchHandle() = default;
  MatchHandle(core::CancelToken token,
              std::future<Result<core::MatchResult>> future)
      : token_(std::move(token)), future_(std::move(future)) {}

  /// Requests cancellation; safe from any thread, idempotent, and a no-op
  /// once the request finished.
  void Cancel() const { token_.Cancel(); }

  /// Blocks until the request finishes and returns its result.
  Result<core::MatchResult> Get() { return future_.get(); }

  /// True until Get() consumes the result.
  bool valid() const { return future_.valid(); }

  /// The underlying future, for callers that need wait_for/wait_until.
  std::future<Result<core::MatchResult>>& future() { return future_; }

  const core::CancelToken& token() const { return token_; }

 private:
  core::CancelToken token_;
  std::future<Result<core::MatchResult>> future_;
};

/// A matching backend. Thread-safe: one instance serves arbitrarily many
/// concurrent callers. Implementations: MatchService (one snapshot chain),
/// shard::ShardedMatchService (K shard chains, scatter-gather).
class Matcher {
 public:
  virtual ~Matcher();

  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;

  // --- Repository surface (per backend). ---------------------------------

  /// Pins the current repository generation. Hold the returned pointer
  /// while touching anything it exposes — a concurrent ApplyDelta retires
  /// the generation once the last holder lets go.
  virtual RepositoryPinPtr Pin() const = 0;

  /// Generation number of the current pin (0 until the first delta).
  virtual uint64_t CurrentGeneration() const = 0;

  /// Applies a validated delta and atomically publishes the successor
  /// generation, journaled (appended + fsync'd) first when a journal is
  /// attached. In-flight requests finish against their pins; requests
  /// entering after this returns see the new generation. Serialized with
  /// ApplyDelta / SaveSnapshot; on error nothing is published, and a failed
  /// append closes the journal until SaveSnapshot re-bases it (see
  /// wal::WalWriter::Append). `trace` (may be null) receives the spans
  /// delta_validate, snapshot_build, wal_fsync and publish.
  Result<live::ApplyReport> ApplyDelta(const live::RepositoryDelta& delta,
                                       obs::TraceContext* trace = nullptr);

  /// Persists the current repository for a later warm start (atomic write;
  /// a sharded backend writes per-shard files plus a manifest at `path`,
  /// and the info aggregates over them). With a journal attached this is
  /// the checkpoint: the journal then restarts empty, based at the saved
  /// generation, with writers held out throughout. On any failure the old
  /// journal stays in place and journaling; recovery skips its records up
  /// to the checkpoint. `trace` (may be null) receives store_save /
  /// wal_compact spans.
  Result<store::SnapshotFileInfo> SaveSnapshot(
      const std::string& path, obs::TraceContext* trace = nullptr) const;

  /// Write-ahead journals every subsequent ApplyDelta into one journal at
  /// `wal_path` (created fresh at the current generation; a sharded backend
  /// too), so an acknowledged delta survives a crash. The journal goes
  /// through the backend's Env, like every other durable write. Recovery
  /// replays onto a checkpoint at or before the current generation; the
  /// caller persists one.
  Status AttachWal(const std::string& wal_path);

  /// Whether deltas are currently being journaled.
  bool wal_attached() const;

  /// The backend's shard layout: one descriptor per shard, in shard order.
  /// The default (unsharded) implementation reports a single shard covering
  /// the whole pinned repository.
  virtual std::vector<ShardDescriptor> Shards() const;

  // --- Query surface (shared by every backend). --------------------------

  /// Executes one request against an explicit pin, on the calling thread,
  /// streaming progress to `observer` (may be null) under `control` (the
  /// backend default deadline fills in if `control` has none). The pin
  /// must come from this backend's Pin(); a foreign pin is InvalidArgument.
  /// A run no limit interrupts is deterministic for a fixed (pin
  /// fingerprint, request); an interrupted run resolves Status-OK with the
  /// mappings found so far and the typed terminal status in
  /// MatchResult::execution. Cancellation never poisons the cluster cache:
  /// a cluster-state build that has started always completes (and is
  /// cached fully built); control is re-checked before and after it.
  Result<core::MatchResult> RunOn(const RepositoryPinPtr& pin,
                                  const MatchRequest& request,
                                  const core::ExecutionControl& control,
                                  core::MatchObserver* observer = nullptr);

  /// Terminal convenience: pins the current generation, runs the request,
  /// and wraps the result with the pin's provenance.
  Result<MatchOutcome> Run(
      const MatchRequest& request,
      const core::ExecutionControl& control = core::ExecutionControl(),
      core::MatchObserver* observer = nullptr);

  /// Enqueues one request on the pool against an explicit pin and returns
  /// a cancellable handle; the backend default deadline starts now (queue
  /// wait counts). Callers that format results against a pin they already
  /// hold pass that pin, so request and formatter provably see the same
  /// generation. `observer` (may be null) must outlive the request; its
  /// callbacks run on the pool thread executing it.
  MatchHandle Submit(RepositoryPinPtr pin, MatchRequest request,
                     core::ExecutionControl control = core::ExecutionControl(),
                     core::MatchObserver* observer = nullptr);

  /// Executes all requests on the pool and returns their results in input
  /// order. The whole batch runs against one pin — the generation current
  /// at the call — so its results are mutually consistent even when deltas
  /// land mid-batch. Blocks until the batch is done; call from outside the
  /// backend's pool.
  BatchMatchResult RunBatch(std::vector<MatchRequest> requests);

  /// The cached cluster state (element matching + clustering) for
  /// `request` against an explicit pin: consults the fingerprint-keyed
  /// cache namespace and computes-once on miss, exactly like the query
  /// path. The build always runs to completion, so the cache can never
  /// hold a partial state. This is the integration engine's bulk
  /// preprocessing hook: its states are shared with interactive traffic.
  Result<ClusterStatePtr> ClusterStateFor(const RepositoryPinPtr& pin,
                                          const MatchRequest& request);

  // --- Introspection. ----------------------------------------------------

  const MatchServiceOptions& options() const { return options_; }
  ThreadPool& pool() { return pool_; }
  ServiceStats stats() const;

  /// The registry this backend's series live in — the shared one from
  /// MatchServiceOptions::metrics or the private fallback. Every stats
  /// surface (`!stats`, `/v1/stats`, `/metrics`) reads values that
  /// originate here, so they can never disagree.
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// The options this backend actually runs for `request` against the
  /// current pin: EffectiveRequestOptions plus backend execution plumbing
  /// (which never changes results). Lifetime: injected plumbing may point
  /// into the pin current at this call — hold Pin() across any use of the
  /// returned options.
  core::MatchOptions EffectiveOptions(const MatchRequest& request) const;

  /// The cluster-cache key for `request`: a canonical fingerprint of its
  /// personal schema and state-determining options. Stable across
  /// generations and identical across backends — cross-generation
  /// isolation comes from the fingerprint namespace, not the key.
  std::string ClusterStateKey(const MatchRequest& request) const;

  /// Drops every cached cluster state in every retained namespace
  /// (measurement / repository tuning).
  void ClearCache();

 protected:
  /// Builds the pools and registers the shared counters and the latency
  /// histogram. Creates `num_cache_sets` fingerprint-namespaced cache sets;
  /// set 0 holds the cluster states the query path serves. Every read and
  /// durable write of the backend goes through `env` (null: the real one).
  Matcher(const MatchServiceOptions& options, size_t num_cache_sets,
          util::io::Env* env = nullptr);

  // --- Backend hooks: the write side. ------------------------------------

  /// A delta's successor generation (pin) and its build accounting, built
  /// but not yet visible.
  struct Successor {
    RepositoryPinPtr pin;
    live::ApplyReport report;
  };

  /// Validates `delta` against the current pin and builds its successor,
  /// publishing nothing. Called under the write lock.
  virtual Result<Successor> BuildSuccessor(const live::RepositoryDelta& delta,
                                           obs::TraceContext* trace) = 0;

  /// Makes a BuildSuccessor pin current and opens its cache namespaces.
  /// Called under the write lock, once the pin is durable.
  virtual void Publish(RepositoryPinPtr pin) = 0;

  /// Writes `pin` at `path` through `env` in the backend's checkpoint
  /// format; a failure leaves the previous checkpoint loadable.
  virtual Result<store::SnapshotFileInfo> WriteCheckpoint(
      const RepositoryPin& pin, const std::string& path,
      util::io::Env* env) const = 0;

  /// For a backend's Recover: journals into `journal` (the writer
  /// live::ReplayJournal reopened at `wal_path`).
  void AdoptJournal(const std::string& wal_path,
                    std::unique_ptr<wal::WalWriter> journal);

  // --- Backend hooks: the read side. -------------------------------------

  /// Whether `pin` comes from this backend's chain.
  virtual bool OwnsPin(const RepositoryPin& pin) const = 0;

  /// Layers execution plumbing onto `effective` for a run against `pin`
  /// (never changes results, so cache keys ignore it).
  virtual void AddPlumbing(const RepositoryPin& pin,
                           core::MatchOptions* effective) const = 0;

  /// Builds the cluster state for `personal` against `pin`; called on a
  /// cache miss in set 0, with the `key` (BuildClusterStateKey) it missed
  /// on. Must run to completion (no control) so the cache never holds a
  /// partial state; `trace` (may be null) receives its spans.
  virtual Result<core::ClusterState> BuildClusterState(
      const RepositoryPin& pin, const schema::SchemaTree& personal,
      const core::ClusterStateOptions& options, const std::string& key,
      obs::TraceContext* trace) = 0;

  /// Runs generation for `personal` against `state` under `control`.
  virtual Result<core::MatchResult> Generate(
      const RepositoryPin& pin, const schema::SchemaTree& personal,
      const core::ClusterState& state, const core::MatchOptions& effective,
      const core::ExecutionControl& control,
      core::MatchObserver* observer) = 0;

  // --- Shared state for backends. ----------------------------------------

  /// Installs the scrape hook mirroring ServiceStats into the registry;
  /// `extra` (may be null) mirrors backend-specific series in the same
  /// pass. Called at the end of a backend's constructor.
  void StartServing(std::function<void()> extra = nullptr);

  /// Detaches the scrape hook and drains the pool. Both call back into the
  /// backend, so its destructor calls this before its members go away.
  void StopServing();

  ClusterCacheSet& cache_set(size_t i) { return *cache_sets_[i]; }
  /// Counts one cluster-state build that carried a predecessor's element
  /// matching over instead of matching every tree from scratch.
  void CountReusedMatching() { element_matching_reused_->Increment(); }
  /// Labels every series of this backend carries (the tenant).
  const obs::LabelSet& metric_labels() const { return labels_; }

 private:
  /// Fills in the backend default deadline when `control` has none.
  core::ExecutionControl ResolveControl(core::ExecutionControl control) const;

  /// Bumps the terminal-status counter for one finished query.
  void CountTerminal(core::ExecutionStatus status);

  /// EffectiveRequestOptions plus the matching pool and AddPlumbing.
  core::MatchOptions EffectiveOptionsOn(const MatchRequest& request,
                                        const RepositoryPin& pin) const;

  /// The cluster state for `personal` from cache set 0 (`fetch` may be
  /// null).
  Result<ClusterStatePtr> CachedClusterState(
      const RepositoryPin& pin, const schema::SchemaTree& personal,
      const core::ClusterStateOptions& options, obs::TraceContext* trace,
      ClusterIndexCache::Fetch* fetch);

  /// A pin from a different backend (or a null one) is a caller bug,
  /// surfaced as InvalidArgument instead of undefined behaviour.
  Status CheckPin(const RepositoryPinPtr& pin) const;

  /// RunOn after the pin check.
  Result<core::MatchResult> RunPinned(const RepositoryPinPtr& pin,
                                      const MatchRequest& request,
                                      const core::ExecutionControl& control,
                                      core::MatchObserver* observer);

  MatchServiceOptions options_;
  ThreadPool pool_;
  /// Element-matching shard pool; null when matching_threads == 0.
  std::unique_ptr<ThreadPool> matching_pool_;
  std::vector<std::unique_ptr<ClusterCacheSet>> cache_sets_;

  /// Metric handles, registered once at construction; increments are
  /// single relaxed fetch_adds, and stats() reads them back.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::LabelSet labels_;
  obs::Counter* queries_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* early_stopped_ = nullptr;
  obs::Counter* deltas_applied_ = nullptr;
  obs::Counter* slow_queries_ = nullptr;
  obs::Counter* element_matching_reused_ = nullptr;
  obs::Histogram* query_latency_ms_ = nullptr;
  // Durability events, counted once per tenant event.
  obs::Counter* wal_appends_ = nullptr;
  obs::Counter* wal_compactions_ = nullptr;
  obs::Counter* snapshot_saves_ = nullptr;
  uint64_t scrape_hook_id_ = 0;

  /// Serializes the write side, so generations form a chain and the
  /// journal sees them in order. Mutable with the journal: SaveSnapshot is
  /// logically const.
  mutable std::mutex write_mu_;
  util::io::Env* const env_;  ///< every durable write goes through it
  std::string wal_path_;
  mutable std::unique_ptr<wal::WalWriter> wal_;  ///< null: not journaling
};

/// The canonical cluster-cache key (exposed so every backend and test
/// derives keys the same way): a canonical serialization of the personal
/// schema plus the state-determining options.
std::string BuildClusterStateKey(const schema::SchemaTree& personal,
                                 const core::ClusterStateOptions& options);

}  // namespace xsm::service

#endif  // XSM_SERVICE_MATCHER_H_
