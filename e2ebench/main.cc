// xsm_e2e — the end-to-end benchmark of the xsm matching service.
//
//   xsm_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--out-dir DIR]
//
// One run serves one workload from an in-process net::HttpServer and drives
// it over loopback with at most nproc client connections (closed loop: each
// connection waits for its reply before sending the next request). It
//   1. sets up kSetupRepeats times (repository generation, tenant creation
//      with index, dictionary, checkpoint and WAL, server start, cache
//      warm-up) and keeps the last set-up;
//   2. runs whole rounds of the workload's request script for --seconds, in
//      kBlocks segments; after each segment, with the clients idle, a
//      durability block checkpoints the tenant, journals deltas over HTTP
//      and warm-start recovers the tenant from disk (see inputs.h);
//   3. checks every output against in-process references (ranked mappings,
//      delta generations and fingerprints, recovered state) and the paper's
//      Table 1 counts;
//   4. with --trace 1, replays the same ops one layer down at a time —
//      ServeSession, Matcher, then the stage calls — each on its own
//      identically built backend, and reports per-layer metrics from the
//      spans it recorded around those calls.
// The last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}; lines before it record the environment, sample counts and the
// exact counts the benchmark's exact-repeat gate compares.
#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client.h"
#include "core/bellflower.h"
#include "inputs.h"
#include "live/delta_codec.h"
#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "match/element_matching.h"
#include "net/http_server.h"
#include "net/tenant_registry.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "service/repository_snapshot.h"
#include "service/serve_session.h"
#include "spans.h"
#include "store/snapshot_store.h"
#include "util/io.h"
#include "wal/wal.h"

#ifndef XSM_E2E_BUILD_TYPE
#define XSM_E2E_BUILD_TYPE "unknown"
#endif

namespace xsm::e2e {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSetupRepeats = 5;
constexpr size_t kStageRecoveries = 5;
constexpr size_t kSnapshotCreateRepeats = 3;
constexpr size_t kShardRepeats = 3;
constexpr const char* kTenant = "bench";
constexpr const char* kMatchTarget = "/v1/tenants/bench/match";
constexpr const char* kIngestTarget = "/v1/tenants/bench/ingest";
constexpr const char* kSaveTarget = "/v1/tenants/bench/save";
constexpr const char* kMappingMarker = "\"type\":\"mapping\"";
constexpr const char* kGenerationMarker = "\"type\":\"generation\"";

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "xsm_e2e: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(*result);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// --- Arguments and environment ----------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/e2e-runs";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    std::string known;
    for (const std::string& name : WorkloadNames()) known += " " + name;
    Die("unknown workload '" + args.workload + "' (known:" + known + ")");
  }
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Timings from an unoptimized or instrumented build would mislead: refuse.
void RefuseUnoptimizedBuild() {
  std::string build_type = XSM_E2E_BUILD_TYPE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Die("refusing to report timings from a sanitizer build");
#endif
#ifndef NDEBUG
  Die("refusing to report timings from a build without NDEBUG (" +
      build_type + ")");
#endif
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    Die("refusing to report timings from build type '" + build_type + "'");
  }
}

/// Resident set of this process once the allocator has handed its free
/// pages back, MiB: the memory live objects hold. A high-water mark would
/// also count which allocator arenas the set-up threads happened to grow,
/// which differs from run to run by 10 % on fanout_100k.
double LiveRssMb() {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  Die("no VmRSS in /proc/self/status");
}

// --- Response bookkeeping -----------------------------------------------------

struct OpResult {
  bool ok = false;
  std::string error;
  double start_ms = 0;  ///< on the run's SpanLog clock
  double latency_ms = 0;
  double marker_ms = -1;
  size_t wire_bytes = 0;
  uint64_t body_hash = 0;  ///< FNV-1a of the body without timing fields
  uint64_t generation = 0;  ///< ingest acknowledgement
  uint64_t fingerprint = 0;
};

/// FNV-1a over an NDJSON body with every "ms"/"build_ms" value removed —
/// the only fields that differ between identical runs.
uint64_t NormalizedHash(std::string_view body) {
  std::string out;
  out.reserve(body.size());
  size_t i = 0;
  while (i < body.size()) {
    size_t at = body.find("ms\":", i);
    if (at == std::string_view::npos) {
      out.append(body.substr(i));
      break;
    }
    at += 4;
    out.append(body.substr(i, at - i));
    while (at < body.size() &&
           (std::isdigit(static_cast<unsigned char>(body[at])) ||
            body[at] == '.' || body[at] == '-' || body[at] == 'e' ||
            body[at] == '+')) {
      ++at;
    }
    i = at;
  }
  return Fnv1a(out);
}

bool ParseAck(const std::string& body, uint64_t* generation,
              uint64_t* fingerprint) {
  size_t at = body.find(kGenerationMarker);
  if (at == std::string::npos) return false;
  size_t g = body.find("\"generation\":", at);
  size_t f = body.find("\"fingerprint\":\"", at);
  if (g == std::string::npos || f == std::string::npos) return false;
  *generation = std::strtoull(body.c_str() + g + 13, nullptr, 10);
  *fingerprint = std::strtoull(body.c_str() + f + 15, nullptr, 16);
  return true;
}

OpResult RunHttpOp(LoopbackConnection& conn, const Op& op,
                   const SpanLog& clock) {
  OpResult r;
  r.start_ms = clock.NowMs();
  const bool match = op.kind == OpKind::kMatch;
  auto exchange = conn.Post(match ? kMatchTarget : kIngestTarget, op.line,
                            match ? kMappingMarker : kGenerationMarker);
  if (!exchange.ok()) {
    r.error = exchange.status().ToString();
    return r;
  }
  r.latency_ms = exchange->latency_ms;
  r.marker_ms = exchange->marker_ms;
  r.wire_bytes = exchange->wire_bytes;
  r.body_hash = NormalizedHash(exchange->body);
  if (exchange->status_code != 200) {
    r.error = "HTTP " + std::to_string(exchange->status_code) + ": " +
              exchange->body.substr(0, 200);
    return r;
  }
  if (match) {
    if (exchange->body.find("\"type\":\"done\"") == std::string::npos ||
        exchange->body.find("\"status\":\"completed\"") == std::string::npos) {
      r.error = "match did not complete: " + exchange->body.substr(0, 200);
      return r;
    }
  } else if (!ParseAck(exchange->body, &r.generation, &r.fingerprint)) {
    r.error = "ingest not acknowledged: " + exchange->body.substr(0, 200);
    return r;
  }
  r.ok = true;
  return r;
}

/// One line per op of the HTTP run, for looking into a run's figures.
void WriteOps(const std::string& path, const std::vector<Op>& ops,
              const std::vector<OpResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  char line[4096];
  for (size_t i = 0; i < ops.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "{\"op\":%zu,\"kind\":\"%s\",\"schema\":%zu,\"round\":%ld,"
                  "\"line\":\"%s\","
                  "\"expect_hit\":%s,\"ok\":%s,\"latency_ms\":%.4f,"
                  "\"marker_ms\":%.4f,\"bytes\":%zu}\n",
                  i, ops[i].kind == OpKind::kMatch ? "match" : "ingest",
                  ops[i].schema, ops[i].round, ops[i].line.c_str(),
                  ops[i].expect_hit ? "true" : "false",
                  results[i].ok ? "true" : "false", results[i].latency_ms,
                  results[i].marker_ms, results[i].wire_bytes);
    out << line;
  }
}

// --- The served stack -----------------------------------------------------------

net::TenantRegistryOptions RegistryOptions(const WorkloadConfig& w,
                                           const std::string& state_dir,
                                           size_t threads) {
  net::TenantRegistryOptions options;
  options.service.num_threads = threads;
  options.shards = w.shards;
  options.session.defaults = PaperOptions();
  options.state_dir = state_dir;
  return options;
}

/// Registry + tenant + HTTP server + client connections.
struct Served {
  std::unique_ptr<net::TenantRegistry> registry;
  net::Tenant* tenant = nullptr;
  std::unique_ptr<net::HttpServer> server;
  std::vector<std::unique_ptr<LoopbackConnection>> connections;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    connections.clear();
    if (server != nullptr) server->RequestShutdown();
    server.reset();
  }
};

std::unique_ptr<Served> SetUp(const WorkloadConfig& w,
                              const std::string& state_dir,
                              const std::vector<Op>& warmup,
                              std::vector<OpResult>* warmup_results,
                              const SpanLog& clock) {
  auto served = std::make_unique<Served>();
  served->registry = std::make_unique<net::TenantRegistry>(
      RegistryOptions(w, state_dir, w.connections));
  served->tenant =
      Check(served->registry->Create(kTenant, MakeRepository(w)),
            "tenant create");
  net::HttpServerOptions server_options;
  server_options.num_workers = w.connections;
  served->server =
      std::make_unique<net::HttpServer>(served->registry.get(), server_options);
  Check(served->server->StartBackground(), "server start");
  for (size_t c = 0; c < w.connections; ++c) {
    served->connections.push_back(std::make_unique<LoopbackConnection>());
    Check(served->connections.back()->Connect(served->server->port()),
          "connect");
  }
  warmup_results->clear();
  for (const Op& op : warmup) {
    warmup_results->push_back(RunHttpOp(*served->connections[0], op, clock));
  }
  return served;
}

/// Hands out script ops to the client connections in order, generating
/// rounds on demand; once a segment's time is up it finishes the current
/// round, so every segment covers whole rounds.
class Dispenser {
 public:
  Dispenser(Script* script, std::vector<Op>* ops)
      : script_(script), ops_(ops) {}

  /// Starts a segment of `seconds`; ops already in the list (earlier
  /// rounds, durability blocks) are not handed out again.
  void Arm(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    cursor_ = ops_->size();
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
  }

  bool Next(size_t* index, Op* op) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cursor_ == ops_->size()) {
      if (std::chrono::steady_clock::now() >= deadline_) return false;
      for (Op& next : script_->Round(rounds_++)) {
        ops_->push_back(std::move(next));
      }
    }
    *index = cursor_++;
    *op = (*ops_)[*index];
    return true;
  }

  size_t rounds() const { return rounds_; }

 private:
  std::mutex mu_;
  Script* script_;
  std::vector<Op>* ops_;
  size_t cursor_ = 0;
  size_t rounds_ = 0;
  std::chrono::steady_clock::time_point deadline_;
};

// --- Exact cache accounting ---------------------------------------------------

struct CacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t shared = 0;
};

CacheCounts CacheOf(const service::Matcher& matcher) {
  const service::ServiceStats stats = matcher.stats();
  return {stats.cache.hits, stats.cache.misses, stats.cache.shared};
}

CacheCounts Minus(const CacheCounts& a, const CacheCounts& b) {
  return {a.hits - b.hits, a.misses - b.misses, a.shared - b.shared};
}

/// The cache outcomes the script declares for ops [begin, end).
CacheCounts Scripted(const std::vector<Op>& ops, size_t begin, size_t end) {
  CacheCounts counts;
  for (size_t i = begin; i < end; ++i) {
    if (ops[i].kind != OpKind::kMatch) continue;
    (ops[i].expect_hit ? counts.hits : counts.misses)++;
  }
  return counts;
}

/// What a replay of all `ops` from a fresh backend must count. A sharded
/// backend's counters also cover its per-shard element-matching caches,
/// and in these scripts every global miss misses each shard once.
CacheCounts ScriptedFor(const WorkloadConfig& w, const std::vector<Op>& ops) {
  CacheCounts counts = Scripted(ops, 0, ops.size());
  if (w.shards > 1) counts.misses *= 1 + w.shards;
  return counts;
}

// --- Reference checks ------------------------------------------------------------

struct Failures {
  std::vector<std::string> messages;
  void Add(std::string message) {
    if (messages.size() < 20) {
      std::fprintf(stderr, "xsm_e2e: CHECK FAILED: %s\n", message.c_str());
    }
    messages.push_back(std::move(message));
  }
  bool empty() const { return messages.empty(); }
};

live::RepositoryDelta DeltaFor(const Op& op) {
  live::DeltaBuilder builder;
  builder.ReplaceTree(op.target,
                      Check(schema::ParseTreeSpec(op.tree_spec), "delta spec"),
                      "serve:replace");
  return Check(builder.Build(), "delta build");
}

/// Generation each op runs against: the number of deltas before it.
std::vector<size_t> GenerationOfOps(const std::vector<Op>& ops) {
  std::vector<size_t> generation(ops.size());
  size_t g = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    generation[i] = g;
    if (ops[i].kind == OpKind::kIngest) ++g;
  }
  return generation;
}

/// Replays the ops on an in-process single-snapshot reference: every delta
/// acknowledgement must equal the reference chain's generation and
/// fingerprint, and every match response must equal — event for event,
/// timing fields aside — the reference Matcher::RunOn on the same
/// generation streaming into the same NDJSON observer. Returns the
/// reference tenant's registry (at the final generation).
std::unique_ptr<net::TenantRegistry> CheckAgainstReference(
    const WorkloadConfig& w, const std::vector<Op>& ops,
    const std::vector<OpResult>& results, Failures* failures,
    size_t* checked) {
  net::TenantRegistryOptions options =
      RegistryOptions(w, "", std::thread::hardware_concurrency());
  options.shards = 1;
  auto registry = std::make_unique<net::TenantRegistry>(options);
  net::Tenant* ref = Check(registry->Create(kTenant, MakeRepository(w)),
                           "reference create");
  std::vector<service::RepositoryPinPtr> pins = {ref->service->Pin()};
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kIngest) continue;
    auto report = Check(ref->service->ApplyDelta(DeltaFor(ops[i])),
                        "reference delta");
    pins.push_back(ref->service->Pin());
    ++*checked;
    if (report.generation != results[i].generation ||
        report.fingerprint != results[i].fingerprint) {
      failures->Add("op " + std::to_string(i) + ": delta acknowledged as " +
                    std::to_string(results[i].generation) +
                    " but the reference chain published " +
                    std::to_string(report.generation));
    }
  }

  // One reference run per distinct (schema, repository content): a block
  // restores content, so later generations repeat earlier fingerprints.
  const std::vector<size_t> generation = GenerationOfOps(ops);
  std::map<std::pair<size_t, uint64_t>, std::vector<size_t>> groups;
  std::map<uint64_t, size_t> generation_of;  // fingerprint → a generation
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kMatch) continue;
    const uint64_t fingerprint = pins[generation[i]]->fingerprint();
    generation_of.emplace(fingerprint, generation[i]);
    groups[{ops[i].schema, fingerprint}].push_back(i);
  }
  std::vector<std::pair<std::pair<size_t, uint64_t>, std::vector<size_t>>>
      work(groups.begin(), groups.end());
  constexpr size_t kBatch = 64;
  for (size_t begin = 0; begin < work.size(); begin += kBatch) {
    const size_t end = std::min(work.size(), begin + kBatch);
    std::vector<service::MatchRequest> requests;
    requests.reserve(end - begin);
    std::vector<std::string> bodies(end - begin);
    std::vector<service::EventSink> sinks;
    sinks.reserve(end - begin);
    std::vector<std::unique_ptr<service::NdjsonEventObserver>> observers;
    std::vector<service::MatchHandle> handles;
    for (size_t k = begin; k < end; ++k) {
      const Op& op = ops[work[k].second.front()];
      requests.push_back(
          Check(ref->session->ParseQuery(op.line, 0), "reference parse"));
      std::string* body = &bodies[k - begin];
      sinks.push_back([body](const std::string& line) { *body += line + "\n"; });
      const service::RepositoryPinPtr& pin =
          pins[generation_of.at(work[k].first.second)];
      observers.push_back(std::make_unique<service::NdjsonEventObserver>(
          requests.back().id, &requests.back().personal, pin, sinks.back(),
          false));
      handles.push_back(ref->service->Submit(pin, requests.back(),
                                             core::ExecutionControl(),
                                             observers.back().get()));
    }
    for (size_t k = begin; k < end; ++k) {
      const size_t j = k - begin;
      auto result = handles[j].Get();
      service::ServeSession::EmitDoneEvent(requests[j].id, result,
                                           observers[j]->DoneMs(), sinks[j]);
      const uint64_t expected = NormalizedHash(bodies[j]);
      for (size_t i : work[k].second) {
        ++*checked;
        if (results[i].body_hash != expected) {
          failures->Add("op " + std::to_string(i) + " (" + ops[i].line +
                        "): HTTP response differs from the reference run");
        }
      }
    }
  }
  return registry;
}

struct Table1 {
  size_t useful_small = 0;
  double pct[3] = {0, 0, 0};  // small, medium, large
};

/// The paper's Table 1a for name(address,email) on the seed-2006 §5
/// repository.
Table1 ComputeTable1() {
  const schema::SchemaForest forest = GenerateRepository(WorkloadConfig());
  core::Bellflower system(&forest);
  const schema::SchemaTree personal =
      Check(schema::ParseTreeSpec("name(address,email)"), "table1 spec");
  double space[4] = {0, 0, 0, 0};
  Table1 table;
  const int joins[4] = {2, 3, 4, 0};
  for (int v = 0; v < 4; ++v) {
    auto result =
        Check(system.Match(personal, Table1Options(joins[v])), "table1 match");
    space[v] = result.stats.search_space;
    if (v == 0) table.useful_small = result.stats.num_useful_clusters;
  }
  for (int v = 0; v < 3; ++v) {
    table.pct[v] = std::round(1e4 * space[v] / space[3]) / 100.0;
  }
  return table;
}

// --- Traced replays -------------------------------------------------------------

/// Per-op outcome of one replay, compared across entry points.
struct ReplayOutcome {
  size_t mappings = 0;  ///< stats.num_mappings
  size_t kept = 0;
  uint64_t partials = 0;  ///< B&B expansions
};

void Compare(const std::vector<ReplayOutcome>& a,
             const std::vector<ReplayOutcome>& b, const char* what,
             const std::vector<Op>& ops, Failures* failures) {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kMatch) continue;
    if (a[i].mappings != b[i].mappings || a[i].kept != b[i].kept ||
        a[i].partials != b[i].partials) {
      failures->Add(std::string(what) + ": op " + std::to_string(i) +
                    " results differ between entry points");
    }
  }
}

void CheckCache(const char* entry, const CacheCounts& got,
                const CacheCounts& want, Failures* failures) {
  if (got.hits != want.hits || got.misses != want.misses || got.shared != 0) {
    failures->Add(std::string(entry) + ": cache hits/misses " +
                  std::to_string(got.hits) + "/" + std::to_string(got.misses) +
                  " (shared " + std::to_string(got.shared) +
                  ") differ from the script's " + std::to_string(want.hits) +
                  "/" + std::to_string(want.misses));
  }
}

/// Entry point 2: ServeSession::RunQuery / RunCommand.
std::vector<ReplayOutcome> ReplaySession(const WorkloadConfig& w,
                                         const std::string& dir,
                                         const std::vector<Op>& ops,
                                         SpanLog* log, Failures* failures) {
  net::TenantRegistry registry(RegistryOptions(w, dir, w.connections));
  net::Tenant* tenant =
      Check(registry.Create(kTenant, MakeRepository(w)), "session create");
  std::vector<ReplayOutcome> outcomes(ops.size());
  const service::EventSink discard = [](const std::string&) {};
  const CacheCounts before = CacheOf(*tenant->service);
  for (size_t i = 0; i < ops.size(); ++i) {
    const double t0 = log->NowMs();
    if (ops[i].kind == OpKind::kMatch) {
      auto query =
          Check(tenant->session->ParseQuery(ops[i].line, i), "session parse");
      auto result = Check(tenant->session->RunQuery(query, discard),
                          "session query");
      const double t1 = log->NowMs();
      outcomes[i] = {result.stats.num_mappings, result.mappings.size(),
                     result.stats.generator.partial_mappings};
      log->Add("session", static_cast<int64_t>(i),
               log->Find("http", static_cast<int64_t>(i)), t0, t1);
    } else {
      Check(tenant->session->RunCommand(ops[i].line, discard),
            "session command");
      log->Add("session", static_cast<int64_t>(i),
               log->Find("http", static_cast<int64_t>(i)), t0, log->NowMs());
    }
  }
  CheckCache("session", Minus(CacheOf(*tenant->service), before),
             ScriptedFor(w, ops), failures);
  return outcomes;
}

/// Entry point 3: Matcher::RunOn / ApplyDelta. Returns the registry so the
/// shard comparison can reuse its warm backend.
std::unique_ptr<net::TenantRegistry> ReplayMatcher(
    const WorkloadConfig& w, const std::string& dir,
    const std::vector<Op>& ops, SpanLog* log, Failures* failures,
    std::vector<ReplayOutcome>* outcomes) {
  auto registry = std::make_unique<net::TenantRegistry>(
      RegistryOptions(w, dir, w.connections));
  net::Tenant* tenant =
      Check(registry->Create(kTenant, MakeRepository(w)), "matcher create");
  outcomes->assign(ops.size(), {});
  const CacheCounts before = CacheOf(*tenant->service);
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t parent = log->Find("session", static_cast<int64_t>(i));
    if (ops[i].kind == OpKind::kMatch) {
      auto request =
          Check(tenant->session->ParseQuery(ops[i].line, i), "matcher parse");
      // A no-op observer, which keeps the sharded backend on the same
      // observed (unscattered) generation path the HTTP tenant runs.
      core::MatchObserver observer;
      const double t0 = log->NowMs();
      auto result = Check(
          tenant->service->RunOn(tenant->service->Pin(), request,
                                 core::ExecutionControl(), &observer),
          "matcher run");
      const double t1 = log->NowMs();
      (*outcomes)[i] = {result.stats.num_mappings, result.mappings.size(),
                        result.stats.generator.partial_mappings};
      log->Add("matcher", static_cast<int64_t>(i), parent, t0, t1);
    } else {
      const live::RepositoryDelta delta = DeltaFor(ops[i]);
      const double t0 = log->NowMs();
      Check(tenant->service->ApplyDelta(delta), "matcher delta");
      log->Add("matcher", static_cast<int64_t>(i), parent, t0, log->NowMs());
    }
  }
  CheckCache("matcher", Minus(CacheOf(*tenant->service), before),
             ScriptedFor(w, ops), failures);
  return registry;
}

/// What the stage replay measured besides its spans.
struct StageReport {
  size_t mapping_elements_round0 = 0;
  uint64_t partials_round0 = 0;
  size_t mappings_round0 = 0;
  size_t trees_reused = 0;
  size_t trees_total = 0;
  size_t wal_records = 0;
  uint64_t final_fingerprint = 0;
};

/// Entry point 4: the stage calls, on a benchmark-side snapshot chain,
/// cluster-state map and journal, checkpointing where the HTTP run did.
std::vector<ReplayOutcome> ReplayStages(const WorkloadConfig& w,
                                        const std::string& dir,
                                        const std::vector<Op>& ops,
                                        SpanLog* log, Failures* failures,
                                        StageReport* report) {
  util::io::Env* env = util::io::Env::Default();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir);
  std::shared_ptr<const service::RepositorySnapshot> snapshot;
  for (size_t k = 0; k < kSnapshotCreateRepeats; ++k) {
    schema::SchemaForest forest = MakeRepository(w);
    const double t0 = log->NowMs();
    snapshot = Check(service::RepositorySnapshot::Create(std::move(forest)),
                     "snapshot create");
    log->Add("snapshot_create", -1, -1, t0, log->NowMs());
  }
  // Checkpoint n is stages-<n>.snap, journaled into stages-<n>.wal.
  size_t checkpoints = 0;
  auto snap_path = [&]() {
    return dir + "/stages-" + std::to_string(checkpoints) + ".snap";
  };
  auto wal_path = [&]() {
    return dir + "/stages-" + std::to_string(checkpoints) + ".wal";
  };
  std::unique_ptr<wal::WalWriter> wal =
      Check(wal::WalWriter::Create(env, wal_path(), snapshot->generation(),
                                   snapshot->fingerprint()),
            "stage wal");

  const service::EffectiveOptionsPolicy policy;
  // Cluster states by (fingerprint, key); like the service, the states of
  // the current and the previous content stay available.
  std::map<std::pair<uint64_t, std::string>, service::ClusterStatePtr> cache;
  std::vector<uint64_t> retained = {snapshot->fingerprint()};
  std::vector<ReplayOutcome> outcomes(ops.size());
  // A session parses requests exactly as the HTTP tenant does.
  service::ServeSessionOptions session_options;
  session_options.defaults = PaperOptions();
  service::ServeSession parser(nullptr, session_options);

  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t request = static_cast<int64_t>(i);
    const int64_t parent = log->Find("matcher", request);
    if (ops[i].checkpoint) {
      ++checkpoints;
      Check(store::SaveSnapshotToFile(*snapshot, snap_path(), env).status(),
            "stage checkpoint");
      wal = Check(wal::WalWriter::Create(env, wal_path(),
                                         snapshot->generation(),
                                         snapshot->fingerprint()),
                  "stage checkpoint wal");
    }
    if (ops[i].kind == OpKind::kMatch) {
      auto query = Check(parser.ParseQuery(ops[i].line, i), "stage parse");
      core::MatchOptions effective =
          service::EffectiveRequestOptions(query, policy);
      effective.element.dictionary = &snapshot->name_dictionary();
      const core::ClusterStateOptions state_options =
          core::ClusterStateOptions::From(effective);
      const core::Bellflower& system = snapshot->matcher();
      struct Timed {
        const char* name;
        double t0, t1;
      };
      std::vector<Timed> stages;
      const double root0 = log->NowMs();
      const auto key = std::make_pair(
          snapshot->fingerprint(),
          service::BuildClusterStateKey(query.personal, state_options));
      auto it = cache.find(key);
      const bool hit = it != cache.end();
      service::ClusterStatePtr state;
      if (hit) {
        state = it->second;
      } else {
        double t0 = log->NowMs();
        auto matching = Check(
            match::MatchElements(query.personal, snapshot->forest(),
                                 state_options.element),
            "stage match");
        double t1 = log->NowMs();
        stages.push_back({"match", t0, t1});
        auto built = Check(
            system.ClusterFromMatching(query.personal, std::move(matching),
                                       (t1 - t0) / 1e3, state_options),
            "stage cluster");
        stages.push_back({"cluster", t1, log->NowMs()});
        state = std::make_shared<const core::ClusterState>(std::move(built));
        cache.emplace(key, state);
      }
      double t0 = log->NowMs();
      auto result = Check(system.MatchWithState(query.personal, *state,
                                                effective),
                          "stage generate");
      stages.push_back({"generate", t0, log->NowMs()});
      const int64_t root =
          log->Add("stages", request, parent, root0, log->NowMs());
      for (const Timed& s : stages) log->Add(s.name, request, root, s.t0, s.t1);
      outcomes[i] = {result.stats.num_mappings, result.mappings.size(),
                     result.stats.generator.partial_mappings};
      if (hit != ops[i].expect_hit) {
        failures->Add("stages: op " + std::to_string(i) +
                      (hit ? " hit" : " missed") + " against the script");
      }
      if (ops[i].round == 0) {
        report->mapping_elements_round0 +=
            state->matching.total_mapping_elements();
        report->partials_round0 += result.stats.generator.partial_mappings;
        report->mappings_round0 += result.stats.num_mappings;
      }
    } else {
      const double root0 = log->NowMs();
      double t0 = root0;
      live::DeltaBuilder builder;
      builder.ReplaceTree(
          ops[i].target,
          Check(schema::ParseTreeSpec(ops[i].tree_spec), "stage delta spec"),
          "serve:replace");
      live::RepositoryDelta delta = Check(builder.Build(), "stage delta");
      double t1 = log->NowMs();
      auto applied = Check(live::ApplyDeltaToForest(snapshot->forest(), delta),
                           "stage validate");
      double t2 = log->NowMs();
      auto successor = Check(service::RepositorySnapshot::CreateSuccessor(
                                 snapshot, std::move(applied.forest),
                                 applied.reuse_map),
                             "stage successor");
      double t3 = log->NowMs();
      Check(wal->Append(wal::RecordType::kDelta,
                        live::SerializeJournaledDelta(
                            delta, successor->generation(),
                            successor->fingerprint())),
            "stage wal append");
      double t4 = log->NowMs();
      const int64_t root = log->Add("stages", request, parent, root0, t4);
      log->Add("delta_build", request, root, t0, t1);
      log->Add("delta_validate", request, root, t1, t2);
      log->Add("successor", request, root, t2, t3);
      log->Add("wal_append", request, root, t3, t4);
      report->trees_reused += successor->build_stats().trees_reused;
      report->trees_total += successor->num_trees();
      snapshot = std::move(successor);
      std::erase(retained, snapshot->fingerprint());
      retained.push_back(snapshot->fingerprint());
      if (retained.size() > 2) retained.erase(retained.begin());
      std::erase_if(cache, [&](const auto& entry) {
        return std::find(retained.begin(), retained.end(),
                         entry.first.first) == retained.end();
      });
    }
    // The cold stream never revisits a key: keep the map small.
    if (w.warm_set == 0) cache.clear();
  }
  report->final_fingerprint = snapshot->fingerprint();
  wal.reset();

  // Recovery stages from the last checkpoint: checkpoint load, journal
  // read, and the whole recovery (load, read and replay).
  for (size_t k = 0; k < kStageRecoveries; ++k) {
    double t0 = log->NowMs();
    Check(store::LoadSnapshotFromFile(snap_path(), env), "stage load");
    double t1 = log->NowMs();
    auto read = Check(wal::ReadWal(env, wal_path()), "stage wal read");
    double t2 = log->NowMs();
    live::RecoveryReport recovery;
    auto manager = Check(live::RepositoryManager::Recover(
                             env, snap_path(), wal_path(), &recovery),
                         "stage recover");
    double t3 = log->NowMs();
    log->Add("store_load", -1, -1, t0, t1);
    log->Add("wal_read", -1, -1, t1, t2);
    log->Add("recover_stage", -1, -1, t2, t3);
    report->wal_records = read.records.size();
    if (manager->Current()->fingerprint() != report->final_fingerprint) {
      failures->Add("stages: recovered fingerprint differs");
    }
  }
  return outcomes;
}

// --- Metrics output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

int Run(const Args& args) {
  RefuseUnoptimizedBuild();
  const WorkloadConfig& w = *FindWorkload(args.workload);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (w.connections > nproc) Die("more client connections than cores");

  const std::string out_dir = args.out_dir + "/" + w.name + "-s" +
                              std::to_string(args.seed) + "-t" +
                              (args.trace ? "1" : "0");
  std::error_code ec;
  fs::remove_all(out_dir, ec);
  fs::create_directories(out_dir, ec);
  if (ec) Die("cannot create " + out_dir);

  std::printf(
      "ENV {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
      "\"client_connections\": %zu, \"http_workers\": %zu, "
      "\"service_threads\": %zu, \"shards\": %zu, \"loop\": \"closed\", "
      "\"seconds\": %g, \"trace\": %d}\n",
      w.name.c_str(), args.seed, nproc, CpuModel().c_str(), XSM_E2E_BUILD_TYPE,
      w.connections, w.connections, w.connections, w.shards, args.seconds,
      args.trace ? 1 : 0);
  std::fflush(stdout);

  SpanLog log;
  // --- 1. Set-up, several times; keep the last. -------------------------------
  const schema::SchemaForest script_repo = MakeRepository(w);
  Script script(w, args.seed, script_repo);
  std::vector<Op> ops = script.warmup();
  std::vector<OpResult> warmup_results;
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    served.reset();
    const std::string dir = out_dir + "/setup-" + std::to_string(k);
    const auto start = std::chrono::steady_clock::now();
    served = SetUp(w, dir, script.warmup(), &warmup_results, log);
    setup_s.push_back(SecondsSince(start));
  }
  const std::string state_dir =
      out_dir + "/setup-" + std::to_string(kSetupRepeats - 1);
  service::Matcher& backend = *served->tenant->service;
  // The footprint of the loaded tenant with its warm caches.
  const double rss_mb = LiveRssMb();

  // --- 2. Timed segments, each followed by a durability block. --------------
  Failures failures;
  std::vector<OpResult> results = warmup_results;
  const CacheCounts cache_before = CacheOf(backend);
  const size_t timed_begin = ops.size();
  Dispenser dispenser(&script, &ops);
  std::vector<std::vector<std::pair<size_t, OpResult>>> per_connection(
      w.connections);
  std::vector<std::pair<size_t, OpResult>> block_results;
  std::mutex trace_mu;
  LoopbackConnection& conn0 = *served->connections[0];
  double timed_s = 0;
  std::vector<double> recover_s;
  size_t replayed = 0;
  for (size_t block = 0; block < kBlocks; ++block) {
    dispenser.Arm(args.seconds / kBlocks);
    const auto segment_start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < w.connections; ++c) {
      clients.emplace_back([&, c]() {
        size_t index = 0;
        Op op;
        while (dispenser.Next(&index, &op)) {
          OpResult r = RunHttpOp(*served->connections[c], op, log);
          // Traced runs record a span for ops of even rounds only, so the
          // odd rounds measure the same traffic without the recording.
          if (args.trace && op.round % 2 == 0) {
            std::lock_guard<std::mutex> lock(trace_mu);
            log.Add("http", static_cast<int64_t>(index), -1, r.start_ms,
                    r.start_ms + r.latency_ms);
          }
          per_connection[c].emplace_back(index, std::move(r));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    timed_s += SecondsSince(segment_start);

    // Durability block: checkpoint, journaled deltas, recoveries.
    auto saved = conn0.Post(kSaveTarget, "", "");
    if (!saved.ok() || saved->status_code != 200) {
      failures.Add("checkpoint over HTTP failed");
    }
    for (Op& op : script.Block(block)) {
      ops.push_back(std::move(op));
      block_results.emplace_back(ops.size() - 1,
                                 RunHttpOp(conn0, ops.back(), log));
    }
    const OpResult& ack = block_results.back().second;
    for (size_t k = 0; k < kRecoveriesPerBlock; ++k) {
      net::TenantRegistry recovered(
          RegistryOptions(w, state_dir, w.connections));
      live::RecoveryReport report;
      const auto start = std::chrono::steady_clock::now();
      auto tenant = recovered.WarmStart(kTenant, &report);
      recover_s.push_back(SecondsSince(start));
      if (!tenant.ok()) {
        failures.Add("recovery failed: " + tenant.status().ToString());
        continue;
      }
      replayed = report.records_replayed;
      const service::RepositoryPinPtr pin = (*tenant)->service->Pin();
      if (pin->fingerprint() != ack.fingerprint) {
        failures.Add("recovered fingerprint differs from the acknowledged");
      }
      if (pin->generation() == ack.generation) continue;
      // The sharded backend's recovery documents its generation as a lower
      // bound on the pre-crash counter; the content check above is exact.
      if (w.shards > 1 && pin->generation() < ack.generation) {
        if (block == 0 && k == 0) {
          std::printf("NOTE sharded recovery reports generation %" PRIu64
                      " for acknowledged generation %" PRIu64
                      " (same fingerprint)\n",
                      pin->generation(), ack.generation);
        }
      } else {
        failures.Add("recovered generation " +
                     std::to_string(pin->generation()) +
                     " differs from the acknowledged " +
                     std::to_string(ack.generation));
      }
    }
  }
  const size_t rounds = dispenser.rounds();
  const CacheCounts timed_cache = Minus(CacheOf(backend), cache_before);
  results.resize(ops.size());
  for (auto& list : per_connection) {
    for (auto& [index, r] : list) results[index] = std::move(r);
  }
  for (auto& [index, r] : block_results) results[index] = std::move(r);
  served.reset();
  WriteOps(out_dir + "/ops.ndjson", ops, results);

  // --- 4. Correctness. ---------------------------------------------------------
  size_t attempted = 0, failed = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    ++attempted;
    if (!results[i].ok) {
      ++failed;
      failures.Add("op " + std::to_string(i) + " failed: " + results[i].error);
    }
  }
  CheckCache("http", timed_cache, Scripted(ops, timed_begin, ops.size()),
             &failures);
  if (replayed != 2 * kBlockPairs) {
    failures.Add("recovery replayed " + std::to_string(replayed) +
                 " journal records, expected " +
                 std::to_string(2 * kBlockPairs));
  }
  size_t checked = 0;
  std::unique_ptr<net::TenantRegistry> reference =
      CheckAgainstReference(w, ops, results, &failures, &checked);
  const Table1 table1 = ComputeTable1();
  if (table1.useful_small != 279 || table1.pct[0] != 4.79 ||
      table1.pct[1] != 6.21 || table1.pct[2] != 24.64) {
    failures.Add("Table 1 drifted from 279 useful clusters and "
                 "4.79/6.21/24.64 %");
  }

  // --- Samples. ---------------------------------------------------------------
  std::vector<double> latency, ttfm, ingest, http_traced, http_untraced;
  std::vector<double> response_bytes;
  size_t timed_ops = 0;
  for (size_t i = timed_begin; i < ops.size(); ++i) {
    if (ops[i].round >= 0) ++timed_ops;
    if (ops[i].kind != OpKind::kMatch) continue;
    latency.push_back(results[i].latency_ms);
    response_bytes.push_back(static_cast<double>(results[i].wire_bytes));
    if (results[i].marker_ms >= 0) ttfm.push_back(results[i].marker_ms);
    (ops[i].round % 2 == 0 ? http_traced : http_untraced)
        .push_back(results[i].latency_ms);
  }
  for (size_t i = timed_begin; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kIngest && results[i].marker_ms >= 0) {
      ingest.push_back(results[i].marker_ms);
    }
  }
  if (latency.empty() || ttfm.empty() || ingest.empty()) {
    failures.Add("a metric has no samples");
  }
  std::printf(
      "SAMPLES {\"rounds\": %zu, \"timed_ops\": %zu, \"latency\": %zu, "
      "\"ttfm\": %zu, \"ingest\": %zu, \"setup\": %zu, \"recover\": %zu, "
      "\"checked_outputs\": %zu}\n",
      rounds, timed_ops, latency.size(), ttfm.size(),
      ingest.size(), setup_s.size(), recover_s.size(), checked);
  auto list = [](const std::vector<double>& v) {
    std::string out;
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof(buf), "%s%.6g", out.empty() ? "" : ", ", x);
      out += buf;
    }
    return "[" + out + "]";
  };
  std::printf("REPEATS {\"setup_s\": %s, \"recover_s\": %s}\n",
              list(setup_s).c_str(), list(recover_s).c_str());

  // Exact counts: identical across runs at one seed (the run script
  // compares them with the recorded ones).
  std::map<std::string, double> exact;
  exact["service.cache_hits"] =
      rounds ? static_cast<double>(timed_cache.hits) / rounds : 0;
  exact["service.cache_misses"] =
      rounds ? static_cast<double>(timed_cache.misses) / rounds : 0;
  exact["wal.records"] = static_cast<double>(replayed);
  exact["cluster.useful_clusters"] = static_cast<double>(table1.useful_small);
  exact["cluster.search_space_pct.small"] = table1.pct[0];
  exact["cluster.search_space_pct.medium"] = table1.pct[1];
  exact["cluster.search_space_pct.large"] = table1.pct[2];

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_ms_p50", Quantile(latency, 0.5), "ms"},
        {"latency_ms_p90", Quantile(latency, 0.9), "ms"},
        {"ttfm_ms_p50", Quantile(ttfm, 0.5), "ms"},
        {"throughput_qps",
         static_cast<double>(timed_ops) / timed_s, "req/s"},
        {"ingest_ms_p50", Quantile(ingest, 0.5), "ms"},
        // Best of the run's identical recoveries: on a shared 4-core host
        // they alternate between an undisturbed and a ~40 % slower phase,
        // which would put a median on the step between the two.
        {"recover_s", Quantile(recover_s, 0.0), "s"},
        {"rss_mb", rss_mb, "MiB"},
    };
  } else {
    // --- 5. Traced replays, one layer down at a time. -------------------------
    const std::vector<ReplayOutcome> session_out =
        ReplaySession(w, out_dir + "/session", ops, &log, &failures);
    std::vector<ReplayOutcome> matcher_out;
    std::unique_ptr<net::TenantRegistry> matcher_registry = ReplayMatcher(
        w, out_dir + "/matcher", ops, &log, &failures, &matcher_out);
    StageReport stages;
    const std::vector<ReplayOutcome> stage_out =
        ReplayStages(w, out_dir + "/stages", ops, &log, &failures, &stages);
    Compare(session_out, matcher_out, "session vs matcher", ops, &failures);
    Compare(matcher_out, stage_out, "matcher vs stages", ops, &failures);
    if (stages.final_fingerprint != results.back().fingerprint) {
      failures.Add("stage chain fingerprint differs from the HTTP tenant");
    }

    // Shard fan-out: the matcher replay's backend (sharded on fanout_100k)
    // against the single-snapshot reference, both at the final generation,
    // without an observer so the sharded backend may scatter generation.
    service::Matcher& sharded = *matcher_registry->Find(kTenant)->service;
    service::Matcher& single = *reference->Find(kTenant)->service;
    std::vector<size_t> shard_ops;
    for (size_t i = timed_begin; i < ops.size() && shard_ops.size() < 16; ++i) {
      if (ops[i].kind == OpKind::kMatch) shard_ops.push_back(i);
    }
    for (size_t rep = 0; rep <= kShardRepeats; ++rep) {
      for (size_t i : shard_ops) {
        auto request = Check(
            reference->Find(kTenant)->session->ParseQuery(ops[i].line, i),
            "shard parse");
        for (int side = 0; side < 2; ++side) {
          service::Matcher& m = side == 0 ? sharded : single;
          const double t0 = log.NowMs();
          Check(m.RunOn(m.Pin(), request, core::ExecutionControl()),
                "shard run");
          // The first pass warms both caches.
          if (rep > 0) {
            log.Add(side == 0 ? "shard_run" : "unsharded_run",
                    static_cast<int64_t>(i), -1, t0, log.NowMs());
          }
        }
      }
    }

    // Per-layer self times: each layer's span minus its replayed child.
    std::vector<double> net_self, session_self, matcher_self;
    for (size_t i = timed_begin; i < ops.size(); ++i) {
      if (ops[i].kind != OpKind::kMatch) continue;
      const int64_t r = static_cast<int64_t>(i);
      const int64_t http = log.Find("http", r);
      const int64_t session = log.Find("session", r);
      const int64_t matcher = log.Find("matcher", r);
      const int64_t stage_root = log.Find("stages", r);
      if (http >= 0 && session >= 0) {
        net_self.push_back(log.spans()[http].duration_ms() -
                           log.spans()[session].duration_ms());
      }
      session_self.push_back(log.spans()[session].duration_ms() -
                             log.spans()[matcher].duration_ms());
      matcher_self.push_back(log.spans()[matcher].duration_ms() -
                             log.spans()[stage_root].duration_ms());
    }
    const double hits = exact["service.cache_hits"];
    const double misses = exact["service.cache_misses"];
    const std::vector<double> shard_runs = log.Durations("shard_run");
    const std::vector<double> single_runs = log.Durations("unsharded_run");
    const double shard_total =
        std::accumulate(shard_runs.begin(), shard_runs.end(), 0.0);
    const double single_total =
        std::accumulate(single_runs.begin(), single_runs.end(), 0.0);
    const double load_ms = Median(log.Durations("store_load"));
    // A whole recovery minus its checkpoint load and journal read.
    const double replay_ms = Median(log.Durations("recover_stage")) - load_ms -
                             Median(log.Durations("wal_read"));
    const double untraced_p50 = Quantile(http_untraced, 0.5);
    exact["match.mapping_elements"] =
        static_cast<double>(stages.mapping_elements_round0);
    exact["live.trees_reused_ratio"] =
        stages.trees_total
            ? static_cast<double>(stages.trees_reused) / stages.trees_total
            : 0;
    if (stages.wal_records != 2 * kBlockPairs) {
      failures.Add("stage journal holds " + std::to_string(stages.wal_records) +
                   " records");
    }
    metrics = {
        {"net.self_ms_p50", Quantile(net_self, 0.5), "ms"},
        {"net.response_bytes_p50", Quantile(response_bytes, 0.5), "bytes"},
        {"service.session_self_ms_p50", Quantile(session_self, 0.5), "ms"},
        {"service.matcher_self_ms_p50", Quantile(matcher_self, 0.5), "ms"},
        {"service.cache_hits", hits, "count"},
        {"service.cache_misses", misses, "count"},
        {"service.cache_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"},
        {"service.snapshot_create_ms", Median(log.Durations("snapshot_create")),
         "ms"},
        {"match.ms_p50", Quantile(log.Durations("match"), 0.5), "ms"},
        {"match.mapping_elements", exact["match.mapping_elements"], "count"},
        {"cluster.ms_p50", Quantile(log.Durations("cluster"), 0.5), "ms"},
        {"cluster.useful_clusters", exact["cluster.useful_clusters"], "count"},
        {"cluster.search_space_pct.small", table1.pct[0], "%"},
        {"cluster.search_space_pct.medium", table1.pct[1], "%"},
        {"cluster.search_space_pct.large", table1.pct[2], "%"},
        {"generate.ms_p50", Quantile(log.Durations("generate"), 0.5), "ms"},
        {"generate.partial_mappings",
         static_cast<double>(stages.partials_round0), "count"},
        {"generate.mappings", static_cast<double>(stages.mappings_round0),
         "count"},
        {"generate.yield",
         stages.partials_round0
             ? static_cast<double>(stages.mappings_round0) /
                   static_cast<double>(stages.partials_round0)
             : 0,
         "ratio"},
        {"shard.run_ms_p50", Quantile(shard_runs, 0.5), "ms"},
        {"shard.unsharded_run_ms_p50", Quantile(single_runs, 0.5), "ms"},
        // Summed time, so the queries whose generation is worth scattering
        // weigh in by their cost.
        {"shard.speedup", shard_total > 0 ? single_total / shard_total : 0,
         "x"},
        {"live.apply_ms_p50",
         [&] {
           std::vector<double> v;
           for (size_t i = 0; i < ops.size(); ++i) {
             if (ops[i].kind != OpKind::kIngest) continue;
             v.push_back(log.spans()[log.Find("matcher", i)].duration_ms());
           }
           return Quantile(v, 0.5);
         }(),
         "ms"},
        {"live.successor_ms_p50", Quantile(log.Durations("successor"), 0.5),
         "ms"},
        {"live.trees_reused_ratio", exact["live.trees_reused_ratio"], "ratio"},
        {"wal.append_ms_p50", Quantile(log.Durations("wal_append"), 0.5), "ms"},
        {"wal.records", static_cast<double>(stages.wal_records), "count"},
        {"store.load_ms", load_ms, "ms"},
        {"live.replay_ms_per_record",
         replay_ms / static_cast<double>(std::max<size_t>(1, stages.wal_records)),
         "ms"},
        {"trace.overhead_pct",
         untraced_p50 > 0
             ? 100.0 * (Quantile(http_traced, 0.5) - untraced_p50) / untraced_p50
             : 0,
         "%"},
    };
    exact["generate.partial_mappings"] =
        static_cast<double>(stages.partials_round0);
    exact["generate.mappings"] = static_cast<double>(stages.mappings_round0);
    const std::string spans_path = out_dir + "/spans.ndjson";
    Check(log.WriteNdjson(spans_path), "spans write-out");
    std::printf("SPANS %s (%zu spans)\n", spans_path.c_str(),
                log.spans().size());
    // Per-layer self-time summary.
    std::printf("LAYERS {\"net_self_ms_p50\": %.4f, \"session_self_ms_p50\": "
                "%.4f, \"matcher_self_ms_p50\": %.4f, \"match_ms_p50\": %.4f, "
                "\"cluster_ms_p50\": %.4f, \"generate_ms_p50\": %.4f}\n",
                Quantile(net_self, 0.5), Quantile(session_self, 0.5),
                Quantile(matcher_self, 0.5),
                Quantile(log.Durations("match"), 0.5),
                Quantile(log.Durations("cluster"), 0.5),
                Quantile(log.Durations("generate"), 0.5));
  }

  std::string exact_line = "EXACT {";
  char buf[128];
  bool first = true;
  for (const auto& [name, value] : exact) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.10g", first ? "" : ", ",
                  name.c_str(), value);
    exact_line += buf;
    first = false;
  }
  std::printf("%s}\n", exact_line.c_str());
  std::printf("OPS {\"workload\": \"%s\", \"attempted\": %zu, \"succeeded\": "
              "%zu, \"failed\": %zu, \"check_failures\": %zu}\n",
              w.name.c_str(), attempted, attempted - failed, failed,
              failures.messages.size());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failures.empty() ? "true" : "false", attempted, failed,
              FormatMetrics(metrics).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace xsm::e2e

int main(int argc, char** argv) {
  return xsm::e2e::Run(xsm::e2e::ParseArgs(argc, argv));
}
