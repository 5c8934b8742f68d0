#include "service/matcher.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "live/delta_codec.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace xsm::service {

namespace {

void AppendFormat(std::string* out, const char* fmt, ...) {
  char buf[128];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/// Appends a string length-prefixed, so names containing the fingerprint's
/// own delimiters (':' is legal in XML names) cannot make two different
/// schemas serialize to one key.
void AppendString(std::string* out, const std::string& s) {
  AppendFormat(out, "%zu=", s.size());
  out->append(s);
}

/// Canonical serialization of the personal schema: every structural and
/// property bit that can influence element matching.
void AppendTreeFingerprint(const schema::SchemaTree& tree, std::string* out) {
  for (schema::NodeId n = 0; n < static_cast<schema::NodeId>(tree.size());
       ++n) {
    const schema::NodeProperties& props = tree.props(n);
    AppendFormat(out, "%d:", tree.parent(n));
    AppendString(out, props.name);
    AppendFormat(out, ":%d:", static_cast<int>(props.kind));
    AppendString(out, props.datatype);
    AppendFormat(out, ":%d%d;", props.repeatable ? 1 : 0,
                 props.optional ? 1 : 0);
  }
}

void AppendStateOptionsFingerprint(const core::ClusterStateOptions& options,
                                   std::string* out) {
  // Element matching stage: the threshold and match_attributes are its only
  // result-determining fields. The execution-plumbing fields (dictionary,
  // pool, shards, control) are deliberately absent: they never change the
  // result.
  AppendFormat(out, "|el:%.17g:%d", options.element.threshold,
               options.element.match_attributes ? 1 : 0);

  if (options.clustering == core::ClusteringMode::kTreeClusters) {
    out->append("|tree");  // the baseline ignores every k-means knob
    return;
  }
  const cluster::KMeansOptions& km = options.kmeans;
  AppendFormat(out, "|km:%d:%d", km.join_reclustering ? km.join_distance : -1,
               km.remove_reclustering
                   ? static_cast<int>(km.min_cluster_size)
                   : -1);
  AppendFormat(out, ":%.17g:%d", km.convergence_fraction, km.max_iterations);
}

}  // namespace

std::string BuildClusterStateKey(const schema::SchemaTree& personal,
                                 const core::ClusterStateOptions& options) {
  std::string key;
  key.reserve(256);
  AppendTreeFingerprint(personal, &key);
  AppendStateOptionsFingerprint(options, &key);
  return key;
}

Result<MatchRequest> MatchRequestBuilder::Build() const {
  if (request_.personal.empty()) {
    return Status::InvalidArgument("personal schema is empty");
  }
  XSM_RETURN_NOT_OK(request_.personal.Validate());
  const core::MatchOptions& options = request_.options;
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  if (options.element.threshold < 0.0 || options.element.threshold > 1.0) {
    return Status::InvalidArgument("threshold must be in [0,1]");
  }
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (options.clustering == core::ClusteringMode::kKMeans) {
    XSM_RETURN_NOT_OK(options.kmeans.Validate());
  }
  return request_;
}

core::MatchOptions EffectiveRequestOptions(
    const MatchRequest& request, const EffectiveOptionsPolicy& /*policy*/) {
  core::MatchOptions effective = request.options;
  // A request-supplied element.control is dropped, not honored: cached
  // cluster-state builds must always run to completion — a cancelled build
  // would fail every concurrent request sharing it in-flight (the cache key
  // excludes control on purpose). Cancellation and deadlines bound the
  // generation phase through the RunOn control instead.
  effective.element.control = nullptr;
  return effective;
}

std::vector<ShardDescriptor> Matcher::Shards() const {
  RepositoryPinPtr pin = Pin();
  ShardDescriptor shard;
  shard.shard = 0;
  shard.generation = pin->generation();
  shard.fingerprint = pin->fingerprint();
  shard.trees = pin->num_trees();
  shard.nodes = pin->total_nodes();
  shard.first_tree = 0;
  return {shard};
}

Result<MatchOutcome> Matcher::Run(const MatchRequest& request,
                                  const core::ExecutionControl& control,
                                  core::MatchObserver* observer) {
  RepositoryPinPtr pin = Pin();
  MatchOutcome outcome;
  outcome.generation = pin->generation();
  outcome.fingerprint = pin->fingerprint();
  XSM_ASSIGN_OR_RETURN(outcome.result, RunOn(pin, request, control, observer));
  return outcome;
}

Matcher::Matcher(const MatchServiceOptions& options, size_t num_cache_sets,
                 util::io::Env* env)
    : options_(options),
      pool_(options.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                     : options.num_threads),
      env_(env != nullptr ? env : util::io::Env::Default()) {
  if (options_.matching_threads > 0) {
    matching_pool_ = std::make_unique<ThreadPool>(options_.matching_threads);
  }
  for (size_t i = 0; i < num_cache_sets; ++i) {
    cache_sets_.push_back(
        std::make_unique<ClusterCacheSet>(options_.cluster_cache_capacity));
  }

  // Metric series: registered once, incremented lock-free ever after.
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (!options_.metrics_tenant.empty()) {
    labels_.push_back({"tenant", options_.metrics_tenant});
  }
  queries_ = metrics_->RegisterCounter(
      "xsm_queries_total", "Match() calls (batch members included)", labels_);
  batches_ = metrics_->RegisterCounter("xsm_batches_total",
                                       "RunBatch() calls", labels_);
  cancelled_ = metrics_->RegisterCounter(
      "xsm_queries_cancelled_total", "queries stopped by cancellation",
      labels_);
  deadline_exceeded_ = metrics_->RegisterCounter(
      "xsm_queries_deadline_exceeded_total",
      "queries stopped by their wall-clock deadline", labels_);
  early_stopped_ = metrics_->RegisterCounter(
      "xsm_queries_early_stopped_total",
      "queries stopped by their mapping budget", labels_);
  deltas_applied_ = metrics_->RegisterCounter(
      "xsm_deltas_applied_total", "successful ApplyDelta publications",
      labels_);
  slow_queries_ = metrics_->RegisterCounter(
      "xsm_slow_queries_total",
      "queries slower than the configured slow-query threshold", labels_);
  element_matching_reused_ = metrics_->RegisterCounter(
      "xsm_element_matching_reused_total",
      "cluster-state builds that carried a predecessor's element matching",
      labels_);
  query_latency_ms_ = metrics_->RegisterHistogram(
      "xsm_query_duration_ms", "wall-clock query latency in milliseconds",
      obs::DefaultLatencyBoundsMs(), labels_);
  wal_appends_ = metrics_->RegisterCounter(
      "xsm_wal_appends_total", "deltas journaled and fsynced before publish",
      labels_);
  wal_compactions_ = metrics_->RegisterCounter(
      "xsm_wal_compactions_total",
      "journal compactions after a durable checkpoint", labels_);
  snapshot_saves_ = metrics_->RegisterCounter(
      "xsm_snapshot_saves_total", "snapshots persisted to disk", labels_);
}

Matcher::~Matcher() { StopServing(); }

void Matcher::StartServing(std::function<void()> extra) {
  // Cache and generation tallies live in their own structures (the cache
  // sets, the backend's chain); this hook mirrors them into registry
  // series at scrape time, so `/metrics` and stats() read the same numbers
  // by construction.
  obs::Counter* cache_hits = metrics_->RegisterCounter(
      "xsm_cluster_cache_hits_total", "cluster-state cache hits", labels_);
  obs::Counter* cache_shared = metrics_->RegisterCounter(
      "xsm_cluster_cache_shared_total",
      "cluster-state builds shared with a concurrent query", labels_);
  obs::Counter* cache_misses = metrics_->RegisterCounter(
      "xsm_cluster_cache_misses_total", "cluster-state cache misses",
      labels_);
  obs::Counter* cache_evictions = metrics_->RegisterCounter(
      "xsm_cluster_cache_evictions_total",
      "cluster states dropped by the LRU policy", labels_);
  obs::Gauge* cache_entries = metrics_->RegisterGauge(
      "xsm_cluster_cache_entries", "resident cluster states", labels_);
  obs::Gauge* cache_namespaces = metrics_->RegisterGauge(
      "xsm_cluster_cache_namespaces",
      "retained per-fingerprint cache namespaces", labels_);
  obs::Gauge* generation = metrics_->RegisterGauge(
      "xsm_repository_generation", "current repository generation", labels_);
  scrape_hook_id_ = metrics_->AddScrapeHook(
      [this, cache_hits, cache_shared, cache_misses, cache_evictions,
       cache_entries, cache_namespaces, generation,
       extra = std::move(extra)]() {
        ServiceStats s = stats();
        cache_hits->Set(s.cache.hits);
        cache_shared->Set(s.cache.shared);
        cache_misses->Set(s.cache.misses);
        cache_evictions->Set(s.cache.evictions);
        cache_entries->Set(static_cast<double>(s.cache.entries));
        cache_namespaces->Set(static_cast<double>(s.cache_namespaces));
        generation->Set(static_cast<double>(s.generation));
        if (extra) extra();
      });
}

void Matcher::StopServing() {
  if (scrape_hook_id_ != 0) {
    metrics_->RemoveScrapeHook(scrape_hook_id_);
    scrape_hook_id_ = 0;
  }
  pool_.Wait();
}

Result<live::ApplyReport> Matcher::ApplyDelta(
    const live::RepositoryDelta& delta, obs::TraceContext* trace) {
  std::lock_guard<std::mutex> lock(write_mu_);
  XSM_ASSIGN_OR_RETURN(Successor next, BuildSuccessor(delta, trace));
  // Write-ahead: the whole delta is durable, once, before any of it is
  // visible; a failed append publishes nothing.
  if (wal_ != nullptr) {
    obs::ScopedSpan span(trace, "wal_fsync");
    XSM_RETURN_NOT_OK(wal_->Append(
        wal::RecordType::kDelta,
        live::SerializeJournaledDelta(delta, next.pin->generation(),
                                      next.pin->fingerprint())));
    wal_appends_->Increment();
  }
  live::ApplyReport report = std::move(next.report);
  report.generation = next.pin->generation();
  report.fingerprint = next.pin->fingerprint();
  report.trees_total = next.pin->num_trees();
  {
    obs::ScopedSpan span(trace, "publish");
    Publish(std::move(next.pin));
  }
  deltas_applied_->Increment();
  return report;
}

Result<store::SnapshotFileInfo> Matcher::SaveSnapshot(
    const std::string& path, obs::TraceContext* trace) const {
  std::lock_guard<std::mutex> lock(write_mu_);
  RepositoryPinPtr pin = Pin();
  store::SnapshotFileInfo info;
  {
    obs::ScopedSpan span(trace, "store_save");
    XSM_ASSIGN_OR_RETURN(info, WriteCheckpoint(*pin, path, env_));
  }
  snapshot_saves_->Increment();
  if (wal_ != nullptr) {
    // Compaction: G is durable, so the journal restarts empty at G. A
    // failed Create leaves the old journal, whose records <= G are skipped.
    obs::ScopedSpan span(trace, "wal_compact");
    XSM_ASSIGN_OR_RETURN(wal_, wal::WalWriter::Create(env_, wal_path_,
                                                      pin->generation(),
                                                      pin->fingerprint()));
    wal_compactions_->Increment();
  }
  return info;
}

Status Matcher::AttachWal(const std::string& wal_path) {
  std::lock_guard<std::mutex> lock(write_mu_);
  RepositoryPinPtr pin = Pin();
  XSM_ASSIGN_OR_RETURN(wal_, wal::WalWriter::Create(env_, wal_path,
                                                    pin->generation(),
                                                    pin->fingerprint()));
  wal_path_ = wal_path;
  return Status::OK();
}

bool Matcher::wal_attached() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return wal_ != nullptr;
}

void Matcher::AdoptJournal(const std::string& wal_path,
                           std::unique_ptr<wal::WalWriter> journal) {
  std::lock_guard<std::mutex> lock(write_mu_);
  wal_path_ = wal_path;
  wal_ = std::move(journal);
}

core::MatchOptions Matcher::EffectiveOptionsOn(const MatchRequest& request,
                                               const RepositoryPin& pin) const {
  // The pure, backend-independent part (the control strip) lives in
  // EffectiveRequestOptions so every surface reporting effective
  // options computes them the same way. Execution plumbing never changes
  // results, so the cluster-state key ignores it and cached states stay
  // shareable across configurations.
  core::MatchOptions effective =
      EffectiveRequestOptions(request, EffectiveOptionsPolicy{});
  if (effective.element.pool == nullptr && matching_pool_ != nullptr) {
    effective.element.pool = matching_pool_.get();
  }
  AddPlumbing(pin, &effective);
  return effective;
}

core::MatchOptions Matcher::EffectiveOptions(
    const MatchRequest& request) const {
  return EffectiveOptionsOn(request, *Pin());
}

std::string Matcher::ClusterStateKey(const MatchRequest& request) const {
  return BuildClusterStateKey(
      request.personal,
      core::ClusterStateOptions::From(EffectiveOptions(request)));
}

core::ExecutionControl Matcher::ResolveControl(
    core::ExecutionControl control) const {
  if (!control.deadline.has_value() && options_.default_deadline_seconds > 0) {
    control.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.default_deadline_seconds));
  }
  return control;
}

void Matcher::CountTerminal(core::ExecutionStatus status) {
  switch (status) {
    case core::ExecutionStatus::kCompleted:
      break;
    case core::ExecutionStatus::kCancelled:
      cancelled_->Increment();
      break;
    case core::ExecutionStatus::kDeadlineExceeded:
      deadline_exceeded_->Increment();
      break;
    case core::ExecutionStatus::kEarlyStopped:
      early_stopped_->Increment();
      break;
  }
}

Status Matcher::CheckPin(const RepositoryPinPtr& pin) const {
  if (pin == nullptr || !OwnsPin(*pin)) {
    return Status::InvalidArgument(
        "pin does not come from this backend's chain");
  }
  return Status::OK();
}

Result<ClusterStatePtr> Matcher::CachedClusterState(
    const RepositoryPin& pin, const schema::SchemaTree& personal,
    const core::ClusterStateOptions& options, obs::TraceContext* trace,
    ClusterIndexCache::Fetch* fetch) {
  // The cache namespace is the pin's fingerprint: a state built for one
  // repository content can only ever serve that content, whatever
  // generations come and go while this query runs.
  const std::string key = BuildClusterStateKey(personal, options);
  return cache_set(0).Get(pin.fingerprint())->GetOrCompute(
      key,
      [&]() { return BuildClusterState(pin, personal, options, key, trace); },
      fetch);
}

Result<core::MatchResult> Matcher::RunOn(const RepositoryPinPtr& pin,
                                         const MatchRequest& request,
                                         const core::ExecutionControl& control,
                                         core::MatchObserver* observer) {
  XSM_RETURN_NOT_OK(CheckPin(pin));
  return RunPinned(pin, request, control, observer);
}

Result<core::MatchResult> Matcher::RunPinned(
    const RepositoryPinPtr& pin, const MatchRequest& request,
    const core::ExecutionControl& control, core::MatchObserver* observer) {
  queries_->Increment();
  // Latency instrumentation (histogram + slow-query accounting) is the
  // per-query work enable_metrics == false strips, giving benchmarks an
  // uninstrumented baseline.
  const bool instrument = options_.enable_metrics;
  Timer latency_timer;
  auto record_latency = [&]() {
    if (!instrument) return;
    const double elapsed_ms = latency_timer.ElapsedSeconds() * 1e3;
    query_latency_ms_->Observe(elapsed_ms);
    if (options_.slow_query_ms > 0 && elapsed_ms >= options_.slow_query_ms) {
      slow_queries_->Increment();
    }
  };
  core::MatchOptions effective = EffectiveOptionsOn(request, *pin);
  // Reject invalid generation options up front (mirroring Bellflower::Match)
  // so a bad query cannot pay for — or cache — a cluster-state build.
  XSM_RETURN_NOT_OK(effective.objective.Validate());
  if (effective.delta < 0.0 || effective.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  core::ExecutionControl resolved = ResolveControl(control);

  // A query that is already cancelled / past its deadline pays for nothing.
  core::ExecutionMonitor pre(resolved);
  if (pre.ShouldStop()) {
    core::MatchResult result;
    result.stats.repository_nodes = pin->forest().total_nodes();
    result.stats.repository_trees = pin->forest().num_trees();
    result.execution = pre.status();
    CountTerminal(result.execution);
    if (observer != nullptr) observer->OnFinish(result);
    record_latency();
    return result;
  }

  // The build deliberately ignores `resolved`'s limits: a cluster-state
  // build that starts always completes, so the cache only ever holds fully
  // built entries and concurrent queries sharing the in-flight build are
  // never failed by someone else's cancellation. The control is re-checked
  // at the top of the generation phase, so an expired query still stops
  // promptly. Spans from a build this query runs itself land in its trace.
  ClusterStatePtr state;
  {
    obs::ScopedSpan cache_span(resolved.trace, "cluster_cache");
    ClusterIndexCache::Fetch fetch = ClusterIndexCache::Fetch::kMiss;
    XSM_ASSIGN_OR_RETURN(
        state, CachedClusterState(*pin, request.personal,
                                  core::ClusterStateOptions::From(effective),
                                  resolved.trace, &fetch));
    if (resolved.trace != nullptr) {
      switch (fetch) {
        case ClusterIndexCache::Fetch::kHit:
          cache_span.set_note("hit");
          break;
        case ClusterIndexCache::Fetch::kShared:
          cache_span.set_note("shared");
          break;
        case ClusterIndexCache::Fetch::kMiss:
          cache_span.set_note("miss");
          break;
      }
    }
  }
  Result<core::MatchResult> run = Generate(*pin, request.personal, *state,
                                           effective, resolved, observer);
  if (run.ok()) CountTerminal(run->execution);
  record_latency();
  return run;
}

MatchHandle Matcher::Submit(RepositoryPinPtr pin, MatchRequest request,
                            core::ExecutionControl control,
                            core::MatchObserver* observer) {
  if (Status status = CheckPin(pin); !status.ok()) {
    std::promise<Result<core::MatchResult>> failed;
    failed.set_value(std::move(status));
    return MatchHandle(core::CancelToken(), failed.get_future());
  }
  // Resolve the default deadline now: time spent queued counts against it.
  control = ResolveControl(std::move(control));
  core::CancelToken token = control.cancel;
  // Pool queue wait is the admission-side span: it starts now and ends
  // when a worker picks the request up.
  const double submitted_ms =
      control.trace != nullptr ? control.trace->NowMs() : 0;
  std::future<Result<core::MatchResult>> future =
      pool_.Submit([this, pin = std::move(pin), request = std::move(request),
                    control = std::move(control), submitted_ms, observer]() {
        if (control.trace != nullptr) {
          control.trace->AddSpan("queue_wait", "", submitted_ms,
                                 control.trace->NowMs() - submitted_ms);
        }
        return RunPinned(pin, request, control, observer);
      });
  return MatchHandle(std::move(token), std::move(future));
}

BatchMatchResult Matcher::RunBatch(std::vector<MatchRequest> requests) {
  batches_->Increment();
  // One pin for the whole batch: all members run against the same
  // generation, so the result set is internally consistent even when
  // deltas land mid-batch — and the result records which generation that
  // was, so provenance never has to race CurrentGeneration(). Members count
  // once each, in RunPinned.
  RepositoryPinPtr pin = Pin();
  BatchMatchResult batch;
  batch.generation = pin->generation();
  batch.fingerprint = pin->fingerprint();
  std::vector<std::future<Result<core::MatchResult>>> futures;
  futures.reserve(requests.size());
  for (MatchRequest& request : requests) {
    futures.push_back(pool_.Submit([this, pin, request = std::move(request)]() {
      return RunPinned(pin, request, core::ExecutionControl(), nullptr);
    }));
  }
  batch.results.reserve(futures.size());
  for (auto& future : futures) {
    batch.results.push_back(future.get());
  }
  return batch;
}

Result<ClusterStatePtr> Matcher::ClusterStateFor(const RepositoryPinPtr& pin,
                                                 const MatchRequest& request) {
  XSM_RETURN_NOT_OK(CheckPin(pin));
  return CachedClusterState(
      *pin, request.personal,
      core::ClusterStateOptions::From(EffectiveOptionsOn(request, *pin)),
      /*trace=*/nullptr, /*fetch=*/nullptr);
}

void Matcher::ClearCache() {
  for (auto& set : cache_sets_) set->Clear();
}

ServiceStats Matcher::stats() const {
  ServiceStats s;
  s.queries = queries_->value();
  s.batches = batches_->value();
  s.cancelled = cancelled_->value();
  s.deadline_exceeded = deadline_exceeded_->value();
  s.early_stopped = early_stopped_->value();
  s.generation = CurrentGeneration();
  s.deltas_applied = deltas_applied_->value();
  s.slow_queries = slow_queries_->value();
  for (const auto& set : cache_sets_) {
    s.cache_namespaces += set->namespaces();
    const ClusterIndexCache::Stats cache = set->stats();
    s.cache.hits += cache.hits;
    s.cache.shared += cache.shared;
    s.cache.misses += cache.misses;
    s.cache.evictions += cache.evictions;
    s.cache.entries += cache.entries;
  }
  return s;
}

}  // namespace xsm::service
