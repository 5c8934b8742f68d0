#include "service/serve_session.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
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

namespace {

bool NeedsJsonEscape(unsigned char c) {
  return c < 0x20 || c == '"' || c == '\\';
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view s) {
  // Clean runs are appended in bulk; only the bytes that need it are
  // rewritten.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (!NeedsJsonEscape(c)) continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  AppendJsonEscaped(&out, s);
  return out;
}

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
    : id_(JsonEscape(id)),
      personal_(personal),
      pin_(std::move(pin)),
      sink_(sink),
      cluster_events_(cluster_events) {}

void NdjsonEventObserver::OnMapping(const generate::SchemaMapping& mapping,
                                    size_t running_rank) {
  std::string& line = line_;
  line.assign("{\"type\":\"mapping\",\"id\":\"");
  line.append(id_);
  line.append("\",\"rank\":");
  AppendInteger(&line, running_rank);
  line.append(",\"tree\":");
  AppendInteger(&line, mapping.tree);
  line.append(",\"delta\":");
  AppendFixed(&line, mapping.delta, 6);
  line.append(",\"delta_sim\":");
  AppendFixed(&line, mapping.delta_sim, 6);
  line.append(",\"delta_path\":");
  AppendFixed(&line, mapping.delta_path, 6);
  line.append(",\"ms\":");
  AppendFixed(&line, ElapsedMs(), 3);
  line.append(",\"map\":\"");
  // The mapping text goes straight into the line. Its fixed parts need no
  // escaping, so only a name holding a quote, backslash or control byte
  // sends the rest of the text through the escaper.
  const size_t text_begin = line.size();
  generate::AppendMappingText(&line, mapping, *personal_, pin_->forest());
  for (size_t i = text_begin; i < line.size(); ++i) {
    if (NeedsJsonEscape(static_cast<unsigned char>(line[i]))) {
      const std::string rest = line.substr(i);
      line.resize(i);
      AppendJsonEscaped(&line, rest);
      break;
    }
  }
  line.append("\"}");
  sink_(line);
}

void NdjsonEventObserver::OnClusterFinish(size_t sequence, size_t total,
                                          const core::ClusterSummary& summary,
                                          const core::MatchStats& so_far) {
  if (!cluster_events_) return;
  std::string& line = line_;
  line.assign("{\"type\":\"cluster\",\"id\":\"");
  line.append(id_);
  line.append("\",\"seq\":");
  AppendInteger(&line, sequence);
  line.append(",\"total\":");
  AppendInteger(&line, total);
  line.append(",\"tree\":");
  AppendInteger(&line, summary.tree);
  line.append(",\"mappings\":");
  AppendInteger(&line, so_far.num_mappings);
  line.append(",\"partials_generated\":");
  AppendInteger(&line, so_far.generator.partial_mappings);
  line.append(",\"ms\":");
  AppendFixed(&line, ElapsedMs(), 3);
  line.push_back('}');
  sink_(line);
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
  char line[224];
  std::snprintf(line, sizeof(line),
                "{\"type\":\"pair\",\"a\":%d,\"b\":%d,\"links\":%zu,"
                "\"score\":%.6f,\"done\":%zu,\"of\":%zu}",
                progress.a, progress.b, progress.links, progress.best_score,
                progress.sources_done, progress.sources_total);
  sink_(line);
}

void NdjsonIntegrationObserver::OnMediatedElement(
    size_t rank, const integrate::MediatedElement& element,
    const integrate::CorrespondenceCluster& cluster) {
  char nums[288];
  std::snprintf(nums, sizeof(nums),
                "\",\"tree\":%d,\"node\":%d,\"size\":%zu,\"schemas\":%zu,"
                "\"links\":%zu,\"confidence\":%.6f,\"severity\":\"",
                element.representative.tree, element.representative.node,
                cluster.members.size(), cluster.schemas, cluster.links,
                cluster.confidence);
  std::string line = "{\"type\":\"cluster\",\"rank\":";
  AppendInteger(&line, rank);
  line.append(",\"name\":\"");
  AppendJsonEscaped(&line, element.name);
  line.append(nums);
  line.append(SeverityName(cluster.severity));
  line.append("\",\"members\":[");
  const size_t listed = std::min(cluster.members.size(), kMaxMemberRefs);
  for (size_t i = 0; i < listed; ++i) {
    if (i > 0) line.push_back(',');
    line.push_back('"');
    AppendInteger(&line, cluster.members[i].tree);
    line.push_back(':');
    AppendInteger(&line, cluster.members[i].node);
    line.push_back('"');
  }
  line.push_back(']');
  if (listed < cluster.members.size()) {
    line.append(",\"members_truncated\":");
    AppendInteger(&line, cluster.members.size() - listed);
  }
  line.push_back('}');
  sink_(line);
}

void NdjsonIntegrationObserver::OnFinish(
    const integrate::IntegrationResult& result) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"type\":\"mediated\",\"status\":\"%s\",\"generation\":%llu,"
      "\"fingerprint\":\"%016llx\",\"seed\":%llu,\"trees\":%zu,"
      "\"slices\":%zu,\"pairs\":%zu,\"pairs_linked\":%zu,"
      "\"correspondences\":%zu,\"clusters\":%zu,\"elements\":%zu,"
      "\"ms\":%.3f}",
      std::string(core::ExecutionStatusName(result.execution)).c_str(),
      static_cast<unsigned long long>(result.generation),
      static_cast<unsigned long long>(result.fingerprint),
      static_cast<unsigned long long>(result.seed), result.stats.trees,
      result.stats.slices, result.stats.pairs_total,
      result.stats.pairs_linked, result.stats.correspondences,
      result.clusters.size(), result.mediated.elements.size(), ElapsedMs());
  sink_(line);
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
    char nums[384];
    std::snprintf(nums, sizeof(nums),
                  "\",\"format\":%u,\"generation\":%llu,"
                  "\"fingerprint\":\"%016llx\",\"trees\":%llu,"
                  "\"elements\":%llu,\"bytes\":%llu}",
                  info->format_version,
                  static_cast<unsigned long long>(info->generation),
                  static_cast<unsigned long long>(info->fingerprint),
                  static_cast<unsigned long long>(info->trees),
                  static_cast<unsigned long long>(info->total_nodes),
                  static_cast<unsigned long long>(info->total_bytes));
    sink("{\"type\":\"saved\",\"path\":\"" + JsonEscape(path) + nums);
    return Status::OK();
  }
  if (command == "!generation") {
    RepositoryPinPtr pin = service_->Pin();
    std::string line = "{\"type\":\"generation\",\"generation\":";
    AppendInteger(&line, pin->generation());
    line.append(",\"fingerprint\":\"");
    AppendHex(&line, pin->fingerprint(), 16);
    line.append("\",\"trees\":");
    AppendInteger(&line, pin->num_trees());
    line.push_back('}');
    sink(line);
    return Status::OK();
  }
  if (command == "!stats") {
    EmitStatsEvent(sink);
    return Status::OK();
  }
  if (command == "!metrics") {
    // The full Prometheus exposition as one event — the same bytes
    // GET /metrics serves, wrapped for the NDJSON transport.
    sink("{\"type\":\"metrics\",\"exposition\":\"" +
         JsonEscape(service_->metrics().RenderPrometheusText()) + "\"}");
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
  std::string line = "{\"type\":\"done\",\"id\":\"";
  AppendJsonEscaped(&line, id);
  line.append("\",\"status\":\"");
  line.append(core::ExecutionStatusName(result->execution));
  line.append("\",\"mappings\":");
  AppendInteger(&line, stats.num_mappings);
  line.append(",\"kept\":");
  AppendInteger(&line, result->mappings.size());
  line.append(",\"partial_mappings\":");
  AppendInteger(&line, result->partial_mappings.size());
  line.append(",\"clusters\":");
  AppendInteger(&line, stats.num_clusters);
  line.append(",\"useful\":");
  AppendInteger(&line, stats.num_useful_clusters);
  line.append(",\"ms\":");
  AppendFixed(&line, elapsed_ms, 3);
  line.push_back('}');
  sink(line);
}

void ServeSession::EmitSlowQueryEvent(const std::string& id, double ms,
                                      double threshold_ms,
                                      const EventSink& sink) {
  std::string line = "{\"type\":\"slow_query\",\"id\":\"";
  AppendJsonEscaped(&line, id);
  line.append("\",\"ms\":");
  AppendFixed(&line, ms, 3);
  line.append(",\"threshold_ms\":");
  AppendFixed(&line, threshold_ms, 3);
  line.push_back('}');
  sink(line);
}

void ServeSession::EmitGenerationEvent(const live::ApplyReport& report,
                                       const EventSink& sink) {
  std::string line = "{\"type\":\"generation\",\"generation\":";
  AppendInteger(&line, report.generation);
  line.append(",\"fingerprint\":\"");
  AppendHex(&line, report.fingerprint, 16);
  line.append("\",\"trees\":");
  AppendInteger(&line, report.trees_total);
  line.append(",\"trees_reused\":");
  AppendInteger(&line, report.trees_reused);
  line.append(",\"trees_rebuilt\":");
  AppendInteger(&line, report.trees_rebuilt);
  line.append(",\"names_copied\":");
  AppendInteger(&line, report.name_entries_copied);
  line.append(",\"names_computed\":");
  AppendInteger(&line, report.name_entries_computed);
  line.append(",\"build_ms\":");
  AppendFixed(&line, 1e3 * report.build_seconds, 3);
  line.push_back('}');
  sink(line);
}

void ServeSession::EmitErrorEvent(const std::string& id, const Status& status,
                                  const EventSink& sink) {
  // lower_snake_case code names ("not_found", "io_error") — a stable
  // machine-readable vocabulary, unlike the human ToString prefix.
  std::string_view camel = StatusCodeToString(status.code());
  std::string code;
  for (size_t i = 0; i < camel.size(); ++i) {
    unsigned char c = camel[i];
    bool boundary =
        i > 0 && std::isupper(c) &&
        (std::islower(static_cast<unsigned char>(camel[i - 1])) ||
         (i + 1 < camel.size() &&
          std::islower(static_cast<unsigned char>(camel[i + 1]))));
    if (boundary) code += '_';
    code += static_cast<char>(std::tolower(c));
  }
  std::string line = "{\"type\":\"error\"";
  if (!id.empty()) line += ",\"id\":\"" + JsonEscape(id) + "\"";
  line += ",\"code\":\"" + code + "\",\"message\":\"" +
          JsonEscape(status.ToString()) + "\"}";
  sink(line);
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
  char nums[768];
  std::snprintf(
      nums, sizeof(nums),
      "{\"type\":\"stats\",\"generation\":%llu,\"deltas_applied\":%llu,"
      "\"queries\":%llu,\"batches\":%llu,\"cancelled\":%llu,"
      "\"deadline_exceeded\":%llu,\"early_stopped\":%llu,"
      "\"slow_queries\":%llu,"
      "\"cache_hits\":%llu,\"cache_shared\":%llu,\"cache_misses\":%llu,"
      "\"cache_evictions\":%llu,\"cache_entries\":%zu,"
      "\"cache_namespaces\":%zu,\"wal_appends\":%llu,"
      "\"wal_compactions\":%llu,\"snapshot_saves\":%llu}",
      static_cast<unsigned long long>(stats.generation),
      static_cast<unsigned long long>(stats.deltas_applied),
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.early_stopped),
      static_cast<unsigned long long>(stats.slow_queries),
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.shared),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.evictions),
      stats.cache.entries, stats.cache_namespaces,
      static_cast<unsigned long long>(
          metrics.CounterValue("xsm_wal_appends_total", labels)),
      static_cast<unsigned long long>(
          metrics.CounterValue("xsm_wal_compactions_total", labels)),
      static_cast<unsigned long long>(
          metrics.CounterValue("xsm_snapshot_saves_total", labels)));
  sink(nums);
}

void ServeSession::EmitTraceEvent(const std::string& id,
                                  const obs::TraceContext& trace,
                                  const EventSink& sink) {
  std::string line = "{\"type\":\"trace\",\"id\":\"" + JsonEscape(id) +
                     "\",\"spans\":[";
  const std::vector<obs::TraceSpan> spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) line += ',';
    char nums[96];
    std::snprintf(nums, sizeof(nums), "\",\"start_ms\":%.3f,\"ms\":%.3f}",
                  spans[i].start_ms, spans[i].duration_ms);
    line += "{\"name\":\"" + JsonEscape(spans[i].name) + "\",\"note\":\"" +
            JsonEscape(spans[i].note) + nums;
  }
  line += "]}";
  sink(line);
}

}  // namespace xsm::service
