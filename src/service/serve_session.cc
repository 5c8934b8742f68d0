#include "service/serve_session.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "generate/schema_mapping.h"
#include "live/repository_delta.h"
#include "schema/serialization.h"
#include "util/string_util.h"

namespace xsm::service {

Result<schema::SchemaForest> LoadForestFromPath(const std::string& path,
                                                repo::LoadReport* report) {
  if (std::filesystem::is_directory(path)) {
    schema::SchemaForest forest;
    XSM_ASSIGN_OR_RETURN(repo::LoadReport loaded,
                         repo::LoadRepositoryFromDirectory(path, &forest));
    if (report != nullptr) *report = loaded;
    return forest;
  }
  return schema::LoadForestFromFile(path);
}

// --- NdjsonEventObserver ---------------------------------------------------

NdjsonEventObserver::NdjsonEventObserver(
    const std::string& id, const schema::SchemaTree* personal,
    RepositoryPinPtr pin, const EventSink& sink, bool cluster_events)
    : id_(id),
      personal_(personal),
      pin_(std::move(pin)),
      sink_(sink),
      cluster_events_(cluster_events) {}

void NdjsonEventObserver::OnMapping(const generate::SchemaMapping& mapping,
                                    size_t running_rank) {
  line_.clear();
  sink_(EventLine(&line_, "mapping")
            .Str("id", id_)
            .Int("rank", running_rank)
            .Int("tree", mapping.tree)
            .Fixed("delta", mapping.delta, 6)
            .Fixed("delta_sim", mapping.delta_sim, 6)
            .Fixed("delta_path", mapping.delta_path, 6)
            .Fixed("ms", ElapsedMs(), 3)
            .Text("map",
                  [&](std::string* out) {
                    generate::AppendMappingText(out, mapping, *personal_,
                                                pin_->forest());
                  })
            .End());
}

void NdjsonEventObserver::OnClusterFinish(size_t sequence, size_t total,
                                          const core::ClusterSummary& summary,
                                          const core::MatchStats& so_far) {
  if (!cluster_events_) return;
  line_.clear();
  sink_(EventLine(&line_, "cluster")
            .Str("id", id_)
            .Int("seq", sequence)
            .Int("total", total)
            .Int("tree", summary.tree)
            .Int("mappings", so_far.num_mappings)
            .Int("partials_generated", so_far.generator.partial_mappings)
            .Fixed("ms", ElapsedMs(), 3)
            .End());
}

void NdjsonEventObserver::OnFinish(const core::MatchResult& result) {
  (void)result;
  // Completion time measured on the worker, not when the submitting thread
  // gets around to emitting the done event.
  finished_ms_ = ElapsedMs();
}

// --- NdjsonIntegrationObserver ---------------------------------------------

void NdjsonIntegrationObserver::OnPair(
    const integrate::PairProgress& progress) {
  std::string line;
  sink_(EventLine(&line, "pair")
            .Int("a", progress.a)
            .Int("b", progress.b)
            .Int("links", progress.links)
            .Fixed("score", progress.best_score, 6)
            .Int("done", progress.sources_done)
            .Int("of", progress.sources_total)
            .End());
}

void NdjsonIntegrationObserver::OnMediatedElement(
    size_t rank, const integrate::MediatedElement& element,
    const integrate::CorrespondenceCluster& cluster) {
  std::string line;
  EventLine event(&line, "cluster");
  event.Int("rank", rank)
      .Str("name", element.name)
      .Int("tree", element.representative.tree)
      .Int("node", element.representative.node)
      .Int("size", cluster.members.size())
      .Int("schemas", cluster.schemas)
      .Int("links", cluster.links)
      .Fixed("confidence", cluster.confidence, 6)
      .Str("severity", SeverityName(cluster.severity))
      .Array("members");
  const size_t listed = std::min(cluster.members.size(), kMaxMemberRefs);
  for (size_t i = 0; i < listed; ++i) {
    event.Element(std::to_string(cluster.members[i].tree) + ':' +
                  std::to_string(cluster.members[i].node));
  }
  event.EndArray();
  if (listed < cluster.members.size()) {
    event.Int("members_truncated", cluster.members.size() - listed);
  }
  sink_(event.End());
}

void NdjsonIntegrationObserver::OnFinish(
    const integrate::IntegrationResult& result) {
  std::string line;
  sink_(EventLine(&line, "mediated")
            .Str("status", core::ExecutionStatusName(result.execution))
            .Int("generation", result.generation)
            .Hex("fingerprint", result.fingerprint)
            .Int("seed", result.seed)
            .Int("trees", result.stats.trees)
            .Int("slices", result.stats.slices)
            .Int("pairs", result.stats.pairs_total)
            .Int("pairs_linked", result.stats.pairs_linked)
            .Int("correspondences", result.stats.correspondences)
            .Int("clusters", result.clusters.size())
            .Int("elements", result.mediated.elements.size())
            .Fixed("ms", ElapsedMs(), 3)
            .End());
}

// --- ServeSession ----------------------------------------------------------

ServeSession::ServeSession(Matcher* service, ServeSessionOptions options)
    : service_(service), options_(std::move(options)) {}

Result<MatchRequest> ServeSession::ParseQuery(const std::string& line,
                                            size_t index) const {
  std::istringstream stream(line);
  std::string spec;
  stream >> spec;
  if (spec.empty()) {
    return Status::InvalidArgument("empty query line");
  }

  MatchRequestBuilder builder;
  builder.id("q" + std::to_string(index)).options(options_.defaults);
  XSM_ASSIGN_OR_RETURN(schema::SchemaTree personal,
                       schema::ParseTreeSpec(spec));
  builder.personal(std::move(personal));

  std::string token;
  while (stream >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key=value, got: " + token);
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "id") {
      builder.id(value);
    } else if (key == "delta") {
      XSM_ASSIGN_OR_RETURN(const double delta, ParseReal(key, value));
      builder.delta(delta);
    } else if (key == "top") {
      XSM_ASSIGN_OR_RETURN(const long long top, ParseInteger(key, value));
      builder.top_n(static_cast<size_t>(top));
    } else if (key == "join") {
      XSM_ASSIGN_OR_RETURN(const long long join, ParseInteger(key, value));
      // A wrapped value would pass validation as a different distance.
      if (join < std::numeric_limits<int>::min() ||
          join > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument("join out of range: " + value);
      }
      builder.request().options.kmeans.join_distance = static_cast<int>(join);
    } else if (key == "threshold") {
      XSM_ASSIGN_OR_RETURN(const double threshold, ParseReal(key, value));
      builder.threshold(threshold);
    } else if (key == "alpha") {
      XSM_ASSIGN_OR_RETURN(const double alpha, ParseReal(key, value));
      builder.alpha(alpha);
    } else if (key == "cluster") {
      if (value == "tree") {
        builder.clustering(core::ClusteringMode::kTreeClusters);
      } else if (value == "kmeans") {
        builder.clustering(core::ClusteringMode::kKMeans);
      } else {
        return Status::InvalidArgument("cluster must be tree or kmeans");
      }
    } else {
      return Status::InvalidArgument("unknown query key: " + key);
    }
  }
  // Build() validates the whole request up front (spec well-formedness,
  // ranges, objective/k-means parameters), so a line the session accepts is
  // a request every backend accepts.
  return builder.Build();
}

Result<core::MatchResult> ServeSession::RunQuery(
    const MatchRequest& query, const EventSink& sink,
    core::ExecutionControl control) {
  if (options_.first_n > 0 && control.stop_after_n_mappings == 0) {
    control.stop_after_n_mappings = options_.first_n;
  }
  // Span collection: the context lives on this frame and the call blocks
  // on the handle, so worker-thread spans can never outlive it.
  obs::TraceContext trace;
  if (options_.trace_events && control.trace == nullptr) {
    control.trace = &trace;
  }
  // One pin shared by the query and its observer: the observer formats
  // mapping text against the exact forest the query ran on, even when a
  // delta publishes between this call and the pool picking the task up.
  RepositoryPinPtr pin = service_->Pin();
  NdjsonEventObserver observer(query.id, &query.personal, pin, sink,
                               options_.cluster_events);
  const bool traced = control.trace == &trace;
  MatchHandle handle = service_->Submit(std::move(pin), query,
                                        std::move(control), &observer);
  Result<core::MatchResult> result = handle.Get();
  if (traced) EmitTraceEvent(query.id, trace, sink);
  const double done_ms = observer.DoneMs();
  const double slow_ms = service_->options().slow_query_ms;
  if (slow_ms > 0 && done_ms >= slow_ms) {
    EmitSlowQueryEvent(query.id, done_ms, slow_ms, sink);
  }
  EmitDoneEvent(query.id, result, done_ms, sink);
  return result;
}

size_t ServeSession::RunBatch(const std::vector<MatchRequest>& queries,
                              const EventSink& sink,
                              core::ExecutionControl control) {
  // Batch members run concurrently on pool threads, but a sink is never
  // called concurrently: every event of the batch goes through this lock.
  std::mutex sink_mu;
  const EventSink serialized = [&sink, &sink_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(sink_mu);
    sink(line);
  };
  std::vector<std::unique_ptr<NdjsonEventObserver>> observers;
  std::vector<MatchHandle> handles;
  observers.reserve(queries.size());
  handles.reserve(queries.size());
  for (const MatchRequest& query : queries) {
    core::ExecutionControl query_control = control;
    // Each member needs its own cancel token: the caller's `control` is a
    // template, not one shared handle (sharing would make the first
    // member's cancellation stop the whole batch — the transports cancel
    // via the token copy they keep).
    if (options_.first_n > 0 && query_control.stop_after_n_mappings == 0) {
      query_control.stop_after_n_mappings = options_.first_n;
    }
    RepositoryPinPtr pin = service_->Pin();
    observers.push_back(std::make_unique<NdjsonEventObserver>(
        query.id, &query.personal, pin, serialized, options_.cluster_events));
    handles.push_back(service_->Submit(std::move(pin), query,
                                       std::move(query_control),
                                       observers.back().get()));
  }

  size_t failed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<core::MatchResult> result = handles[i].Get();
    EmitDoneEvent(queries[i].id, result, observers[i]->DoneMs(), serialized);
    if (!result.ok()) ++failed;
  }
  return failed;
}

Status ServeSession::RunCommand(const std::string& line,
                                const EventSink& sink,
                                core::ExecutionControl control) {
  std::istringstream stream(line);
  std::string command;
  stream >> command;

  if (command == "!integrate") {
    std::string args;
    std::getline(stream, args);
    return RunIntegrate(args, sink, std::move(control));
  }

  auto apply = [this, &sink, &command](live::DeltaBuilder builder) {
    auto delta = builder.Build();
    if (!delta.ok()) {
      EmitErrorEvent("", delta.status(), sink);
      return delta.status();
    }
    obs::TraceContext trace;
    obs::TraceContext* trace_ptr = options_.trace_events ? &trace : nullptr;
    auto report = service_->ApplyDelta(*delta, trace_ptr);
    if (!report.ok()) {
      EmitErrorEvent("", report.status(), sink);
      return report.status();
    }
    if (trace_ptr != nullptr) {
      EmitTraceEvent(command.substr(1), trace, sink);
    }
    EmitGenerationEvent(*report, sink);
    return Status::OK();
  };

  auto parse_source = [&stream]() {
    std::string token, source;
    while (stream >> token) {
      if (token.rfind("source=", 0) == 0) source = token.substr(7);
    }
    return source;
  };

  // Parses a tree id as one whole token, rejecting values a TreeId cannot
  // hold — a prefix read ("0x" as 0) or a silently wrapped id would target
  // the wrong tree.
  auto parse_target = [&stream](long long* target) {
    std::string token;
    if (!(stream >> token)) return false;
    auto id = ParseInteger("ID", token);
    if (!id.ok()) return false;
    *target = *id;
    return *target >= 0 &&
           *target <= std::numeric_limits<schema::TreeId>::max();
  };

  auto usage = [&sink](const std::string& message) {
    Status status = Status::InvalidArgument(message);
    EmitErrorEvent("", status, sink);
    return status;
  };

  if (command == "!ingest" || command == "!replace") {
    long long target = -1;
    if (command == "!replace" && !parse_target(&target)) {
      return usage("usage: !replace ID SPEC [source=NAME]");
    }
    std::string spec;
    if (!(stream >> spec)) {
      return usage("usage: " + command + " SPEC [source=NAME]");
    }
    auto tree = schema::ParseTreeSpec(spec);
    if (!tree.ok()) {
      EmitErrorEvent("", tree.status(), sink);
      return tree.status();
    }
    std::string source = parse_source();
    if (source.empty()) source = "serve:" + command.substr(1);
    live::DeltaBuilder builder;
    if (command == "!ingest") {
      builder.AddTree(std::move(*tree), std::move(source));
    } else {
      builder.ReplaceTree(static_cast<schema::TreeId>(target),
                          std::move(*tree), std::move(source));
    }
    return apply(std::move(builder));
  }
  if (command == "!remove") {
    long long target = -1;
    if (!parse_target(&target)) {
      return usage("usage: !remove ID");
    }
    live::DeltaBuilder builder;
    builder.RemoveTree(static_cast<schema::TreeId>(target));
    return apply(std::move(builder));
  }
  if (command == "!reload") {
    if (!options_.allow_filesystem) {
      Status status = Status::FailedPrecondition(
          "!reload is disabled on this transport");
      EmitErrorEvent("", status, sink);
      return status;
    }
    std::string path;
    if (!(stream >> path)) {
      return usage("usage: !reload (FILE|DIR)");
    }
    auto loaded = LoadForestFromPath(path);
    if (!loaded.ok()) {
      EmitErrorEvent("", loaded.status(), sink);
      return loaded.status();
    }
    if (loaded->num_trees() == 0) {
      return usage("!reload: " + path + " holds no trees");
    }
    // Whole-repository swap as one delta: retire every current tree, add
    // every loaded one (payloads shared from the loaded forest, not
    // copied). Published atomically like any other delta.
    RepositoryPinPtr pin = service_->Pin();
    live::DeltaBuilder builder;
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(pin->num_trees()); ++t) {
      builder.RemoveTree(t);
    }
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(loaded->num_trees()); ++t) {
      builder.AddTree(loaded->tree_ptr(t), loaded->source(t));
    }
    return apply(std::move(builder));
  }
  if (command == "!save") {
    if (!options_.allow_filesystem) {
      Status status =
          Status::FailedPrecondition("!save is disabled on this transport");
      EmitErrorEvent("", status, sink);
      return status;
    }
    std::string path;
    if (!(stream >> path)) {
      return usage("usage: !save PATH");
    }
    obs::TraceContext trace;
    obs::TraceContext* trace_ptr = options_.trace_events ? &trace : nullptr;
    auto info = service_->SaveSnapshot(path, trace_ptr);
    if (!info.ok()) {
      EmitErrorEvent("", info.status(), sink);
      return info.status();
    }
    if (trace_ptr != nullptr) EmitTraceEvent("save", trace, sink);
    EmitSavedEvent("path", path, *info, sink);
    return Status::OK();
  }
  if (command == "!generation") {
    RepositoryPinPtr pin = service_->Pin();
    std::string line;
    sink(EventLine(&line, "generation")
             .Int("generation", pin->generation())
             .Hex("fingerprint", pin->fingerprint())
             .Int("trees", pin->num_trees())
             .End());
    return Status::OK();
  }
  if (command == "!stats") {
    EmitStatsEvent(sink);
    return Status::OK();
  }
  if (command == "!metrics") {
    // The full Prometheus exposition as one event — the same bytes
    // GET /metrics serves, wrapped for the NDJSON transport.
    std::string line;
    sink(EventLine(&line, "metrics")
             .Str("exposition", service_->metrics().RenderPrometheusText())
             .End());
    return Status::OK();
  }
  return usage("unknown command " + command +
               " (try !ingest, !replace, !remove, !save, !reload, "
               "!integrate, !generation, !stats, !metrics)");
}

Status ServeSession::RunIntegrate(const std::string& args,
                                  const EventSink& sink,
                                  core::ExecutionControl control) {
  integrate::IntegrationOptions options;
  auto parse = [&args, &options]() -> Status {
    std::istringstream stream(args);
    std::string token;
    while (stream >> token) {
      size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("expected key=value, got: " + token);
      }
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      if (key == "threshold") {
        XSM_ASSIGN_OR_RETURN(options.threshold, ParseReal(key, value));
      } else if (key == "min_linkage") {
        XSM_ASSIGN_OR_RETURN(const long long linkage,
                             ParseInteger(key, value));
        options.min_linkage = static_cast<size_t>(linkage);
      } else if (key == "severity") {
        XSM_ASSIGN_OR_RETURN(options.min_severity,
                             integrate::ParseSeverity(value));
      } else if (key == "strong") {
        XSM_ASSIGN_OR_RETURN(options.strong_confidence,
                             ParseReal(key, value));
      } else if (key == "probable") {
        XSM_ASSIGN_OR_RETURN(options.probable_confidence,
                             ParseReal(key, value));
      } else if (key == "seed") {
        XSM_ASSIGN_OR_RETURN(const long long seed, ParseInteger(key, value));
        options.seed = static_cast<uint64_t>(seed);
      } else {
        return Status::InvalidArgument("unknown integrate key: " + key);
      }
    }
    return Status::OK();
  };
  if (Status parsed = parse(); !parsed.ok()) {
    EmitErrorEvent("integrate", parsed, sink);
    return parsed;
  }
  obs::TraceContext trace;
  const bool traced = options_.trace_events && control.trace == nullptr;
  if (traced) control.trace = &trace;
  options.control = std::move(control);

  NdjsonIntegrationObserver observer(sink);
  integrate::IntegrationEngine engine(service_);
  auto result = engine.Integrate(options, &observer);
  if (traced) EmitTraceEvent("integrate", trace, sink);
  if (!result.ok()) {
    EmitErrorEvent("integrate", result.status(), sink);
    return result.status();
  }
  // Interrupted runs already reported their typed partial through the
  // "mediated" event's status field; they are not transport errors.
  return Status::OK();
}

void ServeSession::HandleLine(const std::string& raw, const EventSink& sink,
                              core::ExecutionControl control) {
  std::string line = raw;
  size_t hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return;
  if (line[first] == '!') {
    RunCommand(line.substr(first), sink, std::move(control));
    return;
  }
  size_t index = next_query_index_.fetch_add(1, std::memory_order_relaxed);
  auto query = ParseQuery(line, index);
  if (!query.ok()) {
    EmitErrorEvent("q" + std::to_string(index), query.status(), sink);
    return;
  }
  RunQuery(*query, sink, std::move(control));
}

void ServeSession::EmitDoneEvent(const std::string& id,
                                 const Result<core::MatchResult>& result,
                                 double elapsed_ms, const EventSink& sink) {
  if (!result.ok()) {
    EmitErrorEvent(id, result.status(), sink);
    return;
  }
  const core::MatchStats& stats = result->stats;
  // "mappings" counts everything with Δ ≥ δ found by the run — it matches
  // the `match` command's count, and with top=0 the number of mapping
  // event lines (a top-N run streams only the mappings that entered the
  // running top N); "kept" is the returned list after top-N trimming.
  std::string line;
  sink(EventLine(&line, "done")
           .Str("id", id)
           .Str("status", core::ExecutionStatusName(result->execution))
           .Int("mappings", stats.num_mappings)
           .Int("kept", result->mappings.size())
           .Int("partial_mappings", result->partial_mappings.size())
           .Int("clusters", stats.num_clusters)
           .Int("useful", stats.num_useful_clusters)
           .Fixed("ms", elapsed_ms, 3)
           .End());
}

void ServeSession::EmitSlowQueryEvent(const std::string& id, double ms,
                                      double threshold_ms,
                                      const EventSink& sink) {
  std::string line;
  sink(EventLine(&line, "slow_query")
           .Str("id", id)
           .Fixed("ms", ms, 3)
           .Fixed("threshold_ms", threshold_ms, 3)
           .End());
}

void ServeSession::EmitGenerationEvent(const live::ApplyReport& report,
                                       const EventSink& sink) {
  std::string line;
  sink(EventLine(&line, "generation")
           .Int("generation", report.generation)
           .Hex("fingerprint", report.fingerprint)
           .Int("trees", report.trees_total)
           .Int("trees_reused", report.trees_reused)
           .Int("trees_rebuilt", report.trees_rebuilt)
           .Int("names_copied", report.name_entries_copied)
           .Int("names_computed", report.name_entries_computed)
           .Fixed("build_ms", 1e3 * report.build_seconds, 3)
           .End());
}

void ServeSession::EmitSavedEvent(std::string_view key,
                                  std::string_view value,
                                  const store::SnapshotFileInfo& info,
                                  const EventSink& sink) {
  std::string line;
  sink(EventLine(&line, "saved")
           .Str(key, value)
           .Int("format", info.format_version)
           .Int("generation", info.generation)
           .Hex("fingerprint", info.fingerprint)
           .Int("trees", info.trees)
           .Int("elements", info.total_nodes)
           .Int("bytes", info.total_bytes)
           .End());
}

void ServeSession::EmitErrorEvent(const std::string& id, const Status& status,
                                  const EventSink& sink) {
  std::string line;
  EventLine event(&line, "error");
  if (!id.empty()) event.Str("id", id);
  sink(event.Str("code", StatusCodeToSnakeCase(status.code()))
           .Str("message", status.ToString())
           .End());
}

void ServeSession::EmitStatsEvent(const EventSink& sink) const {
  ServiceStats stats = service_->stats();
  // Durability counters live in the registry (the manager increments the
  // handles directly); reading them back here keeps every surface on the
  // same numbers.
  obs::LabelSet labels;
  if (!service_->options().metrics_tenant.empty()) {
    labels.push_back({"tenant", service_->options().metrics_tenant});
  }
  const obs::MetricsRegistry& metrics = service_->metrics();
  std::string line;
  sink(EventLine(&line, "stats")
           .Int("generation", stats.generation)
           .Int("deltas_applied", stats.deltas_applied)
           .Int("queries", stats.queries)
           .Int("batches", stats.batches)
           .Int("cancelled", stats.cancelled)
           .Int("deadline_exceeded", stats.deadline_exceeded)
           .Int("early_stopped", stats.early_stopped)
           .Int("slow_queries", stats.slow_queries)
           .Int("cache_hits", stats.cache.hits)
           .Int("cache_shared", stats.cache.shared)
           .Int("cache_misses", stats.cache.misses)
           .Int("cache_evictions", stats.cache.evictions)
           .Int("cache_entries", stats.cache.entries)
           .Int("cache_namespaces", stats.cache_namespaces)
           .Int("wal_appends",
                metrics.CounterValue("xsm_wal_appends_total", labels))
           .Int("wal_compactions",
                metrics.CounterValue("xsm_wal_compactions_total", labels))
           .Int("snapshot_saves",
                metrics.CounterValue("xsm_snapshot_saves_total", labels))
           .End());
}

void ServeSession::EmitTraceEvent(const std::string& id,
                                  const obs::TraceContext& trace,
                                  const EventSink& sink) {
  std::string line;
  EventLine event(&line, "trace");
  event.Str("id", id).Array("spans");
  for (const obs::TraceSpan& span : trace.spans()) {
    event.ObjectElement()
        .Str("name", span.name)
        .Str("note", span.note)
        .Fixed("start_ms", span.start_ms, 3)
        .Fixed("ms", span.duration_ms, 3)
        .EndObject();
  }
  sink(event.EndArray().End());
}

}  // namespace xsm::service
