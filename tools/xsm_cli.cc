// xsm_cli — command-line front end for the Bellflower matcher.
//
// Subcommands:
//   gen      --elements N [--seed S] --out FILE
//            Generate a synthetic repository and save it.
//   convert  --repo-dir DIR --out FILE
//            Import .dtd/.xsd files and save the forest snapshot.
//   save     (--forest FILE | --repo-dir DIR | --synthetic N[:seed]
//            | --warm-start FILE.snap) [--shards K] --out FILE.snap
//            Build the full repository snapshot (index, dictionary,
//            fingerprints) and persist it as a versioned, checksummed
//            binary (xsm::store) for --warm-start boots; with --shards K
//            (or a sharded checkpoint) a shard manifest plus K shard files.
//   stats    (--forest FILE | --repo-dir DIR | --synthetic N[:seed]
//            | --warm-start FILE.snap)
//            Print corpus statistics.
//   match    (--forest FILE | --repo-dir DIR | --synthetic N[:seed]
//            | --warm-start FILE.snap)
//            --personal SPEC [--delta D] [--alpha A] [--threshold T]
//            [--cluster tree|kmeans] [--join J] [--top N] [--partial]
//            [--structural] [--query XPATH]
//            Run the matcher (service::Matcher, the backend batch and serve
//            use) and print the ranked mappings.
//   batch    (--forest FILE | --repo-dir DIR | --synthetic N[:seed])
//            --queries FILE [--threads N] [--delta D] [--top N]
//            [--cluster tree|kmeans] [--join J] [--threshold T] [--alpha A]
//            [--deadline-ms MS] [--first-n N] [--cluster-events]
//            Run a MatchService batch from a query file: one query per
//            line, `SPEC [key=value ...]` (keys: id, delta, top, cluster,
//            join, threshold, alpha); '#' starts a comment. Per-line keys
//            override the command-line defaults. Results stream to stdout
//            as NDJSON events: one "mapping" line the moment a mapping is
//            found that enters the running top `top` (every mapping with
//            top=0), then one "done" line per query (input order) with the
//            typed terminal status.
//   integrate (--forest FILE | --repo-dir DIR | --synthetic N[:seed]
//            | --warm-start FILE.snap) [--threshold T] [--min-linkage N]
//            [--severity weak|probable|strong] [--seed S] [--threads N]
//            [--matching-threads N] [--cache-capacity N] [--deadline-ms MS]
//            [--out FILE.intg] [--diff FILE.intg]
//            Holistic N-way integration of the whole repository (see
//            integrate::IntegrationEngine): all-pairs matching,
//            correspondence clustering, ranked mediated schema. Streams
//            the same NDJSON events as serve-mode `!integrate` — one
//            "pair" event per linked schema pair, one "cluster" event per
//            mediated element, a terminal "mediated" summary. --out saves
//            the result (versioned, checksummed; see integrate_io);
//            --diff loads a previously saved integration and appends one
//            "diff" event comparing cluster membership across the two
//            runs (membership is keyed on tree content fingerprints, so
//            the diff survives generation renumbering). SIGINT/SIGTERM
//            cancel cooperatively: the run ends with a typed partial
//            mediated event.
//   serve    (--forest FILE | --repo-dir DIR | --synthetic N[:seed])
//            [--threads N] [--delta D] [--top N] ...
//            [--deadline-ms MS] [--first-n N] [--cluster-events]
//            [--save-on-shutdown FILE.snap]
//            Interactive loop: read one query line (same format as batch)
//            from stdin per request, stream its NDJSON mapping events.
//            Lines starting with '!' evolve the repository while serving
//            (copy-on-write generations; see service::Matcher::ApplyDelta):
//              !ingest SPEC [source=NAME]      add one tree
//              !replace ID SPEC [source=NAME]  swap tree ID's payload
//              !remove ID                      retire tree ID
//              !reload (FILE|DIR)              replace the whole repository
//              !save PATH                      persist the current snapshot
//              !generation                     report the current generation
//              !stats                          cache/generation counters
//            Each successful mutation emits one "generation" NDJSON event;
//            EOF prints a session summary with the cluster-cache counters.
//            SIGINT/SIGTERM drain gracefully: the in-flight query is
//            cancelled (it resolves with its partial results), the session
//            summary prints, and --save-on-shutdown persists the final
//            snapshot before exit.
//   http     [--forest FILE | --repo-dir DIR | --synthetic N[:seed]
//            | --warm-start FILE.snap] [--port P] [--bind ADDR]
//            [--state-dir DIR] [--no-wal] [--tenant NAME] [--workers N]
//            [--threads N] [--deadline-ms MS] [--first-n N]
//            [--cluster-events] [--max-inflight N] [--soft-inflight N]
//            [--min-deadline-fraction F] [--delta D] [--top N] ...
//            Serve the multi-tenant HTTP/1.1 + NDJSON API (see
//            net::HttpServer). A repository source flag seeds the tenant
//            named by --tenant (default "default"); --state-dir both
//            warm-starts every previously saved tenant at boot and
//            receives every tenant's snapshot on graceful drain
//            (SIGINT/SIGTERM), so kill + restart resumes each tenant's
//            generation chain. With a state dir each tenant also
//            write-ahead journals its deltas (<name>.wal): acknowledged
//            deltas survive even a SIGKILL, replayed onto the last
//            checkpoint at boot. --no-wal turns journaling off.
//
// Warm starts: every command that loads a repository also accepts
//   --warm-start FILE.snap
// instead of --forest/--repo-dir/--synthetic. Every command boots its
// backend one way (MakeService): shard::OpenMatcher loads the checkpoint
// written by `save` (or serve-mode `!save`) whole — no re-parsing, no
// re-indexing — on the backend its format names: a sharded `!save` writes
// a shard manifest, which boots sharded again. --shards, if given, must
// agree with the checkpoint's shard count (InvalidArgument otherwise), and
// serve/batch continue delta ingestion from the persisted generation.
//
// Numeric flags are strict: a malformed value ("0.5x", "abc") or one out
// of range (--port outside [0, 65535], a negative count) exits 2 with an
// InvalidArgument naming the flag.
//
// Streaming flags (match/batch/serve):
//   --deadline-ms MS   per-query wall-clock deadline; an expired query
//                      reports status "deadline_exceeded" with the mappings
//                      found so far. It bounds mapping generation; the
//                      cluster-state build (element matching + clustering)
//                      always runs to completion, so the cache never holds
//                      a partial state.
//   --first-n N        stop each query after its first N mappings
//                      ("early_stopped") — the anytime / time-to-first mode.
//   --cluster-events   also emit one "cluster" NDJSON event per generated
//                      cluster (progress observability; off by default).
//
// Examples:
//   xsm_cli gen --elements 10000 --out corpus.forest
//   xsm_cli match --forest corpus.forest --personal "name(address,email)"
//       --cluster kmeans --join 3 --top 10
//   xsm_cli match --repo-dir examples/data --personal "book(title,author)"
//       --delta 0.55 --query '/book[title="Iliad"]/author'
//   xsm_cli batch --forest corpus.forest --queries queries.txt --threads 8
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <atomic>
#include <csignal>

#include "xsm/xsm.h"
#include "integrate/integration_io.h"
#include "match/structural_matcher.h"
#include "net/http_server.h"
#include "net/tenant_registry.h"
#include "schema/serialization.h"
#include "service/serve_session.h"
#include "shard/sharded_match_service.h"
#include "util/string_util.h"

namespace {

using namespace xsm;

// Minimal --key value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string key = arg.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          values_[key] = argv[++i];
        } else {
          values_[key] = "";  // boolean flag
        }
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // Numeric flags are strict (xsm::ParseReal / ParseInteger): a malformed
  // value, or an integer outside [min, max], exits 2 naming the flag.
  double GetDouble(const std::string& key, double fallback) const {
    if (!Has(key)) return fallback;
    return OrExit(ParseReal("--" + key, Get(key)));
  }
  long GetInt(const std::string& key, long fallback,
              long min = std::numeric_limits<long>::min(),
              long max = std::numeric_limits<long>::max()) const {
    return Has(key) ? ParseIntFlag(key, Get(key), min, max) : fallback;
  }
  /// `value` as the integer of flag --key, in [min, max].
  static long ParseIntFlag(const std::string& key, const std::string& value,
                           long min = std::numeric_limits<long>::min(),
                           long max = std::numeric_limits<long>::max()) {
    const long long parsed = OrExit(ParseInteger("--" + key, value));
    if (parsed < min || parsed > max) {
      const std::string range =
          max == std::numeric_limits<long>::max()
              ? ">= " + std::to_string(min)
              : "in [" + std::to_string(min) + ", " + std::to_string(max) +
                    "]";
      Exit(Status::InvalidArgument("--" + key + " must be " + range +
                                   ", got " + value));
    }
    return static_cast<long>(parsed);
  }

 private:
  [[noreturn]] static void Exit(const Status& status) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(2);
  }
  template <typename T>
  static T OrExit(Result<T> value) {
    if (!value.ok()) Exit(value.status());
    return std::move(*value);
  }

  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: xsm_cli "
      "<gen|convert|save|stats|match|batch|integrate|serve|http> "
      "[options]\n"
      "  gen      --elements N [--seed S] --out FILE\n"
      "  convert  --repo-dir DIR --out FILE\n"
      "  save     (--forest FILE | --repo-dir DIR | --synthetic N[:seed]\n"
      "           | --warm-start FILE.snap) [--shards K] --out FILE.snap\n"
      "  stats    (--forest FILE | --repo-dir DIR | --synthetic N[:seed]\n"
      "           | --warm-start FILE.snap)\n"
      "  match    (--forest FILE | --repo-dir DIR | --synthetic N[:seed]\n"
      "           | --warm-start FILE.snap)\n"
      "           --personal SPEC [--delta D] [--alpha A] [--threshold T]\n"
      "           [--cluster tree|kmeans] [--join J] [--top N]\n"
      "           [--partial] [--structural] [--query XPATH]\n"
      "  batch    (--forest FILE | --repo-dir DIR | --synthetic N[:seed])\n"
      "           --queries FILE [--threads N] [--shards K] [--delta D]\n"
      "           [--top N]\n"
      "           [--cluster tree|kmeans] [--join J] [--threshold T]\n"
      "           [--alpha A] [--deadline-ms MS] [--first-n N]\n"
      "           [--cluster-events]\n"
      "  integrate (--forest FILE | --repo-dir DIR | --synthetic N[:seed]\n"
      "           | --warm-start FILE.snap) [--threshold T]\n"
      "           [--min-linkage N] [--severity weak|probable|strong]\n"
      "           [--seed S] [--threads N] [--matching-threads N]\n"
      "           [--cache-capacity N] [--deadline-ms MS]\n"
      "           [--out FILE.intg] [--diff FILE.intg]\n"
      "  serve    (--forest FILE | --repo-dir DIR | --synthetic N[:seed])\n"
      "           [--threads N] [--shards K] [--delta D] [--top N]\n"
      "           [--cluster ...]\n"
      "           [--deadline-ms MS] [--first-n N] [--cluster-events]\n"
      "           [--trace] [--slow-query-ms MS]\n"
      "           [--save-on-shutdown FILE.snap]\n"
      "  http     [--forest FILE | --repo-dir DIR | --synthetic N[:seed]\n"
      "           | --warm-start FILE.snap] [--port P] [--bind ADDR]\n"
      "           [--state-dir DIR] [--no-wal] [--tenant NAME] [--workers N]\n"
      "           [--threads N] [--shards K] [--deadline-ms MS]\n"
      "           [--first-n N] [--max-inflight N] [--soft-inflight N]\n"
      "           [--min-deadline-fraction F] [--cluster-events]\n"
      "           [--trace] [--slow-query-ms MS]\n"
      "batch/serve stream NDJSON events (mapping / cluster / done / error)\n"
      "to stdout; match honors --deadline-ms / --first-n too (the deadline\n"
      "bounds mapping generation; the cluster-state build always completes).\n"
      "serve also accepts repository commands on stdin: !ingest SPEC,\n"
      "!replace ID SPEC, !remove ID, !reload FILE|DIR, !save PATH,\n"
      "!generation, !stats, !metrics (each mutation publishes a new\n"
      "generation and emits a \"generation\" event).\n"
      "--trace adds one \"trace\" event per query/mutation with per-stage\n"
      "spans; --slow-query-ms logs a \"slow_query\" event for queries at or\n"
      "over the threshold. http also serves GET /metrics (Prometheus text).\n"
      "--shards K (save/match/batch/integrate/serve/http) serves from K\n"
      "node-balanced repository shards with exact scatter-gather matching —\n"
      "results are byte-identical to the unsharded engine.\n"
      "Every command that loads a repository also accepts --warm-start\n"
      "FILE.snap (a file written by `save` or `!save`) as the source: the\n"
      "checkpoint loads whole on the backend it was saved from (sharded or\n"
      "not), nothing is re-parsed or re-indexed, and the generation chain\n"
      "continues where it was persisted; a --shards that disagrees with it\n"
      "is an error. Numeric flags are strict: a malformed or out-of-range\n"
      "value exits 2 naming the flag.\n");
  return 2;
}

/// service::LoadForestFromPath with the directory-load counters echoed to
/// stderr (used by --forest/--repo-dir at startup).
Result<schema::SchemaForest> LoadForestFromPath(const std::string& path) {
  repo::LoadReport report;
  XSM_ASSIGN_OR_RETURN(schema::SchemaForest forest,
                       service::LoadForestFromPath(path, &report));
  if (std::filesystem::is_directory(path)) {
    std::fprintf(stderr, "loaded %zu files (%zu failed), %zu trees\n",
                 report.files_loaded, report.files_failed,
                 report.trees_added);
  }
  return forest;
}

// Loads the repository from whichever source flag is present.
Result<schema::SchemaForest> LoadRepository(const Args& args) {
  if (args.Has("forest")) {
    return schema::LoadForestFromFile(args.Get("forest"));
  }
  if (args.Has("repo-dir")) {
    return LoadForestFromPath(args.Get("repo-dir"));
  }
  if (args.Has("synthetic")) {
    std::string spec = args.Get("synthetic");
    repo::SyntheticRepoOptions options;
    size_t colon = spec.find(':');
    options.target_elements = static_cast<size_t>(
        Args::ParseIntFlag("synthetic", spec.substr(0, colon), 0));
    if (colon != std::string::npos) {
      options.seed = static_cast<uint64_t>(
          Args::ParseIntFlag("synthetic", spec.substr(colon + 1)));
    }
    return repo::GenerateSyntheticRepository(options);
  }
  return Status::InvalidArgument(
      "need one of --forest / --repo-dir / --synthetic / --warm-start");
}

/// The one boot of every command that serves a repository. Under
/// --warm-start the checkpoint decides the backend (a store snapshot or a
/// shard manifest, as `save` and `!save` write them; shard::OpenMatcher)
/// and delta ingestion continues from the saved generation; otherwise
/// shard::CreateMatcher serves whichever source flag is present on
/// --shards K shards. `options` carries a command's own pool and cache
/// settings; --threads, --deadline-ms and --slow-query-ms fill in the rest.
Result<std::unique_ptr<service::Matcher>> MakeService(
    const Args& args,
    service::MatchServiceOptions options = service::MatchServiceOptions()) {
  const long shards = args.GetInt("shards", 1, 1);
  options.num_threads = static_cast<size_t>(args.GetInt("threads", 0, 0));
  // --deadline-ms becomes the service's default per-query deadline; the
  // clock starts at Submit, so pool queue wait counts against it.
  options.default_deadline_seconds = args.GetDouble("deadline-ms", 0) / 1e3;
  options.slow_query_ms = args.GetDouble("slow-query-ms", 0);
  if (!args.Has("warm-start")) {
    XSM_ASSIGN_OR_RETURN(schema::SchemaForest forest, LoadRepository(args));
    return shard::CreateMatcher(std::move(forest), options,
                                static_cast<size_t>(shards));
  }
  const std::string path = args.Get("warm-start");
  XSM_ASSIGN_OR_RETURN(
      std::unique_ptr<service::Matcher> matcher,
      shard::OpenMatcher(util::io::Env::Default(), path, /*wal_path=*/"",
                         options));
  const size_t saved_shards = matcher->Shards().size();
  if (args.Has("shards") && static_cast<size_t>(shards) != saved_shards) {
    return Status::InvalidArgument(
        "--shards " + std::to_string(shards) + " disagrees with " + path +
        ", a checkpoint of " + std::to_string(saved_shards) + " shard(s)");
  }
  service::RepositoryPinPtr pin = matcher->Pin();
  std::fprintf(stderr,
               "warm start: %zu trees / %zu elements in %zu shard(s) at "
               "generation %llu (fingerprint %016llx)\n",
               pin->num_trees(), pin->total_nodes(), saved_shards,
               static_cast<unsigned long long>(pin->generation()),
               static_cast<unsigned long long>(pin->fingerprint()));
  return matcher;
}

int RunGen(const Args& args) {
  if (!args.Has("elements") || !args.Has("out")) {
    std::fprintf(stderr, "gen requires --elements and --out\n");
    return 2;
  }
  repo::SyntheticRepoOptions options;
  options.target_elements =
      static_cast<size_t>(args.GetInt("elements", 0, 0));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  auto forest = repo::GenerateSyntheticRepository(options);
  if (!forest.ok()) {
    std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
    return 1;
  }
  Status save = schema::SaveForestToFile(*forest, args.Get("out"));
  if (!save.ok()) {
    std::fprintf(stderr, "%s\n", save.ToString().c_str());
    return 1;
  }
  repo::RepositoryStats stats = repo::ComputeStats(*forest);
  std::printf("wrote %s: %zu elements over %zu trees\n",
              args.Get("out").c_str(), stats.nodes, stats.trees);
  return 0;
}

int RunConvert(const Args& args) {
  if (!args.Has("repo-dir") || !args.Has("out")) {
    std::fprintf(stderr, "convert requires --repo-dir and --out\n");
    return 2;
  }
  auto forest = LoadRepository(args);
  if (!forest.ok()) {
    std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
    return 1;
  }
  Status save = schema::SaveForestToFile(*forest, args.Get("out"));
  if (!save.ok()) {
    std::fprintf(stderr, "%s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu trees, %zu elements)\n",
              args.Get("out").c_str(), forest->num_trees(),
              forest->total_nodes());
  return 0;
}

int RunSave(const Args& args) {
  if (!args.Has("out")) {
    std::fprintf(stderr, "save requires --out FILE.snap\n");
    return 2;
  }
  auto service = MakeService(args);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  auto info = (*service)->SaveSnapshot(args.Get("out"));
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: format v%u, generation %llu, %llu trees / %llu "
              "elements, %llu bytes (fingerprint %016llx)\n",
              args.Get("out").c_str(), info->format_version,
              static_cast<unsigned long long>(info->generation),
              static_cast<unsigned long long>(info->trees),
              static_cast<unsigned long long>(info->total_nodes),
              static_cast<unsigned long long>(info->total_bytes),
              static_cast<unsigned long long>(info->fingerprint));
  return 0;
}

int RunStats(const Args& args) {
  // Stats needs only the forest: a source flag's is read without building
  // a snapshot (index, dictionary, fingerprints), and a checkpoint's comes
  // from the pin it boots.
  auto forest = [&]() -> Result<schema::SchemaForest> {
    if (!args.Has("warm-start")) return LoadRepository(args);
    XSM_ASSIGN_OR_RETURN(std::unique_ptr<service::Matcher> service,
                         MakeService(args));
    return service->Pin()->forest();
  }();
  if (!forest.ok()) {
    std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
    return 1;
  }
  repo::RepositoryStats stats = repo::ComputeStats(*forest);
  std::printf("trees:          %zu\n", stats.trees);
  std::printf("elements:       %zu\n", stats.nodes);
  std::printf("avg tree size:  %.1f\n", stats.avg_tree_size);
  std::printf("max tree size:  %zu\n", stats.max_tree_size);
  std::printf("max depth:      %d\n", stats.max_depth);
  std::printf("distinct names: %zu\n", stats.distinct_names);
  return 0;
}

int RunMatch(const Args& args) {
  if (!args.Has("personal")) {
    std::fprintf(stderr, "match requires --personal SPEC\n");
    return 2;
  }
  auto personal = schema::ParseTreeSpec(args.Get("personal"));
  if (!personal.ok()) {
    std::fprintf(stderr, "bad --personal: %s\n",
                 personal.status().ToString().c_str());
    return 1;
  }

  core::MatchOptions options;
  options.delta = args.GetDouble("delta", 0.75);
  options.objective.alpha = args.GetDouble("alpha", 0.5);
  options.element.threshold = args.GetDouble("threshold", 0.5);
  options.top_n = static_cast<size_t>(args.GetInt("top", 20, 0));
  std::string mode = args.Get("cluster", "kmeans");
  if (mode == "tree") {
    options.clustering = core::ClusteringMode::kTreeClusters;
  } else if (mode == "kmeans") {
    options.clustering = core::ClusteringMode::kKMeans;
    options.kmeans.join_distance = static_cast<int>(
        args.GetInt("join", 3, std::numeric_limits<int>::min(),
                    std::numeric_limits<int>::max()));
  } else {
    std::fprintf(stderr, "--cluster must be tree or kmeans\n");
    return 2;
  }
  if (args.Has("partial")) {
    options.include_partial_mappings = true;
    options.partial.delta = options.delta * 0.7;
  }
  if (args.Has("structural")) {
    options.structural_matcher =
        &match::CompositeStructuralMatcher::Default();
  }
  auto request = service::MatchRequestBuilder()
                     .id("match")
                     .personal(*personal)
                     .options(options)
                     .Build();
  if (!request.ok()) {
    std::fprintf(stderr, "%s\n", request.status().ToString().c_str());
    return 1;
  }

  // --deadline-ms is the service's default deadline (see MakeService): it
  // bounds generation, while the cluster-state build runs to completion.
  core::ExecutionControl control;
  long first_n = args.GetInt("first-n", 0);
  if (first_n > 0) {
    control.stop_after_n_mappings = static_cast<uint64_t>(first_n);
  }

  auto service = MakeService(args);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  // The pin the run sees is the one its mappings are printed against.
  service::RepositoryPinPtr pin = (*service)->Pin();
  const schema::SchemaForest& forest = pin->forest();
  auto result = (*service)->RunOn(pin, *request, control);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (result->execution != core::ExecutionStatus::kCompleted) {
    std::fprintf(stderr, "run stopped early: %s (results are partial)\n",
                 std::string(core::ExecutionStatusName(result->execution))
                     .c_str());
  }

  const core::MatchStats& stats = result->stats;
  std::printf("repository: %zu elements / %zu trees | mapping elements: %zu"
              " | clusters: %zu (%zu useful)\n",
              stats.repository_nodes, stats.repository_trees,
              stats.total_mapping_elements, stats.num_clusters,
              stats.num_useful_clusters);
  // No generation counts (partial mappings, mappings with Δ ≥ δ) here:
  // under adaptive top-N they depend on how the backend groups clusters
  // into runs, and this output is the same on every backend.
  std::printf("search space: %.0f\n\n", stats.search_space);

  int rank = 1;
  for (const auto& mapping : result->mappings) {
    std::printf("%3d. %s\n", rank++,
                generate::MappingToString(mapping, *personal, forest)
                    .c_str());
  }
  if (options.include_partial_mappings) {
    std::printf("\npartial mappings (%zu):\n",
                result->partial_mappings.size());
    int prank = 1;
    for (const auto& pm : result->partial_mappings) {
      if (prank > 10) break;
      std::printf("%3d. tree=%d delta=%.3f coverage=%.2f\n", prank++,
                  pm.tree, pm.delta, pm.Coverage());
    }
  }

  if (args.Has("query") && !result->mappings.empty()) {
    auto query = query::ParseXPath(args.Get("query"));
    if (!query.ok()) {
      std::fprintf(stderr, "bad --query: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    std::printf("\nquery rewrites of %s:\n", args.Get("query").c_str());
    int qrank = 1;
    for (const auto& mapping : result->mappings) {
      if (qrank > 5) break;
      auto rewritten =
          query::RewriteQuery(*query, *personal, mapping, forest);
      std::printf("%3d. %s\n", qrank++,
                  rewritten.ok()
                      ? rewritten->ToString().c_str()
                      : rewritten.status().ToString().c_str());
    }
  }
  return 0;
}

// Options shared by batch and serve: command-line defaults that each query
// line may override.
core::MatchOptions DefaultServiceOptions(const Args& args, bool* ok) {
  core::MatchOptions options;
  options.delta = args.GetDouble("delta", 0.75);
  options.objective.alpha = args.GetDouble("alpha", 0.5);
  options.element.threshold = args.GetDouble("threshold", 0.5);
  options.top_n = static_cast<size_t>(args.GetInt("top", 10, 0));
  options.kmeans.join_distance = static_cast<int>(
      args.GetInt("join", 3, std::numeric_limits<int>::min(),
                  std::numeric_limits<int>::max()));
  std::string mode = args.Get("cluster", "kmeans");
  if (mode == "tree") {
    options.clustering = core::ClusteringMode::kTreeClusters;
  } else if (mode == "kmeans") {
    options.clustering = core::ClusteringMode::kKMeans;
  } else {
    std::fprintf(stderr, "--cluster must be tree or kmeans\n");
    *ok = false;
  }
  return options;
}

// --- NDJSON event streaming (batch / serve / http) -------------------------

std::mutex g_stdout_mu;  // one complete event line at a time

void EmitEventLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_stdout_mu);
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);  // streaming: every event visible immediately
}

/// Session options shared by batch and serve, from the command line.
service::ServeSessionOptions SessionOptionsFromArgs(const Args& args,
                                                    bool* ok) {
  service::ServeSessionOptions options;
  options.defaults = DefaultServiceOptions(args, ok);
  long first_n = args.GetInt("first-n", 0);
  if (first_n > 0) options.first_n = static_cast<uint64_t>(first_n);
  options.cluster_events = args.Has("cluster-events");
  options.trace_events = args.Has("trace");
  return options;
}

int RunBatch(const Args& args) {
  if (!args.Has("queries")) {
    std::fprintf(stderr, "batch requires --queries FILE\n");
    return 2;
  }
  bool ok = true;
  service::ServeSessionOptions session_options =
      SessionOptionsFromArgs(args, &ok);
  if (!ok) return 2;

  auto service = MakeService(args);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  service::ServeSession session(service->get(), session_options);

  std::ifstream file(args.Get("queries"));
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", args.Get("queries").c_str());
    return 1;
  }
  std::vector<service::MatchRequest> queries;
  std::string line;
  size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto query = session.ParseQuery(line, queries.size());
    if (!query.ok()) {
      std::fprintf(stderr, "%s:%zu: %s\n", args.Get("queries").c_str(),
                   lineno, query.status().ToString().c_str());
      return 1;
    }
    queries.push_back(std::move(*query));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queries in %s\n", args.Get("queries").c_str());
    return 1;
  }

  {
    service::RepositoryPinPtr pin = (*service)->Pin();
    std::fprintf(stderr,
                 "serving %zu queries over %zu elements / %zu trees on %zu "
                 "threads (%zu shards)\n",
                 queries.size(), pin->total_nodes(), pin->num_trees(),
                 (*service)->pool().num_threads(),
                 (*service)->Shards().size());
  }

  Timer timer;
  size_t failed = session.RunBatch(queries, EmitEventLine);
  double elapsed = timer.ElapsedSeconds();
  service::ServiceStats stats = (*service)->stats();
  std::fprintf(
      stderr,
      "%zu queries in %.3fs (%.1f queries/sec) | cluster cache: "
      "%llu hits, %llu shared, %llu misses, %llu evictions, %zu resident | "
      "cancelled %llu, deadline_exceeded %llu, early_stopped %llu\n",
      queries.size(), elapsed,
      static_cast<double>(queries.size()) / elapsed,
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.shared),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.evictions),
      stats.cache.entries,
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.early_stopped));
  return failed == 0 ? 0 : 1;
}

// --- serve-mode signal handling --------------------------------------------

std::atomic<bool> g_serve_shutdown{false};
/// Shared by every serve-mode query; the signal handler cancels it once,
/// and stickiness makes any queries after the signal resolve immediately.
core::CancelToken g_serve_cancel;

void OnServeSignal(int) {
  if (g_serve_shutdown.exchange(true)) _exit(130);  // second signal: force
  // Cancel() is one relaxed atomic store — async-signal-safe in effect.
  g_serve_cancel.Cancel();
}

void InstallServeSignalHandlers() {
  struct sigaction sa{};
  sa.sa_handler = OnServeSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: the blocking stdin read returns EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int RunServe(const Args& args) {
  bool ok = true;
  service::ServeSessionOptions session_options =
      SessionOptionsFromArgs(args, &ok);
  if (!ok) return 2;

  auto service = MakeService(args);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  service::ServeSession session(service->get(), session_options);
  InstallServeSignalHandlers();
  {
    service::RepositoryPinPtr snapshot = (*service)->Pin();
    std::fprintf(stderr,
                 "ready: %zu elements / %zu trees (generation %llu); enter "
                 "queries (SPEC [key=value ...]) or !commands (!ingest, "
                 "!replace, !remove, !reload, !save, !generation, !stats, "
                 "!metrics), "
                 "EOF or SIGINT/SIGTERM to quit; NDJSON events on stdout\n",
                 snapshot->total_nodes(), snapshot->num_trees(),
                 static_cast<unsigned long long>(snapshot->generation()));
  }

  std::string line;
  while (!g_serve_shutdown.load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    core::ExecutionControl control;
    control.cancel = g_serve_cancel;
    session.HandleLine(line, EmitEventLine, control);
  }

  // Session summary (the serve-mode analogue of the batch footer): the
  // generation the session ended at, the deltas it applied, and cache
  // effectiveness across every generation it served.
  service::ServiceStats stats = (*service)->stats();
  std::fprintf(
      stderr,
      "%sserved %llu queries at generation %llu (%llu deltas) | cluster "
      "cache: %llu hits, %llu shared, %llu misses, %llu evictions, %zu "
      "resident in %zu namespaces | cancelled %llu, deadline_exceeded %llu, "
      "early_stopped %llu\n",
      g_serve_shutdown.load() ? "shutdown signal received; " : "",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.generation),
      static_cast<unsigned long long>(stats.deltas_applied),
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.shared),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.evictions),
      stats.cache.entries, stats.cache_namespaces,
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.early_stopped));

  if (args.Has("save-on-shutdown")) {
    const std::string path = args.Get("save-on-shutdown");
    auto info = (*service)->SaveSnapshot(path);
    if (!info.ok()) {
      std::fprintf(stderr, "save-on-shutdown failed: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "saved %s: generation %llu, %llu trees, %llu bytes\n",
                 path.c_str(),
                 static_cast<unsigned long long>(info->generation),
                 static_cast<unsigned long long>(info->trees),
                 static_cast<unsigned long long>(info->total_bytes));
  }
  return 0;
}

int RunIntegrate(const Args& args) {
  integrate::IntegrationOptions options;
  options.threshold = args.GetDouble("threshold", options.threshold);
  options.min_linkage = static_cast<size_t>(args.GetInt("min-linkage", 1, 0));
  if (args.Has("severity")) {
    auto severity = integrate::ParseSeverity(args.Get("severity"));
    if (!severity.ok()) {
      std::fprintf(stderr, "bad --severity: %s\n",
                   severity.status().ToString().c_str());
      return 2;
    }
    options.min_severity = *severity;
  }
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  service::MatchServiceOptions service_options;
  service_options.matching_threads =
      static_cast<size_t>(args.GetInt("matching-threads", 0, 0));
  // One cache entry per ~32-element slice: the default comfortably warms
  // repositories up to ~128k elements (see IntegrationEngine's sizing note).
  service_options.cluster_cache_capacity =
      static_cast<size_t>(args.GetInt("cache-capacity", 4096, 0));
  auto service = MakeService(args, service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }

  // The deadline bounds the integration, not the boot before it.
  if (args.Has("deadline-ms")) {
    options.control = core::ExecutionControl::WithDeadline(
        args.GetDouble("deadline-ms", 0) / 1e3);
  }
  // Ctrl-C cancels cooperatively: the run resolves with a typed partial
  // mediated event instead of dying mid-grid.
  InstallServeSignalHandlers();
  options.control.cancel = g_serve_cancel;

  integrate::IntegrationEngine engine(service->get());
  // Named sink: the observer keeps a reference, a temporary would dangle.
  service::EventSink sink = EmitEventLine;
  service::NdjsonIntegrationObserver observer(sink);
  auto result = engine.Integrate(options, &observer);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  if (args.Has("out")) {
    auto bytes = integrate::SaveIntegrationToFile(*result, args.Get("out"));
    if (!bytes.ok()) {
      std::fprintf(stderr, "%s\n", bytes.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "saved %s: %zu clusters / %zu mediated elements, %zu "
                 "bytes\n",
                 args.Get("out").c_str(), result->clusters.size(),
                 result->mediated.elements.size(), *bytes);
  }

  if (args.Has("diff")) {
    auto before = integrate::LoadIntegrationFromFile(args.Get("diff"));
    if (!before.ok()) {
      std::fprintf(stderr, "%s\n", before.status().ToString().c_str());
      return 1;
    }
    integrate::IntegrationDiff diff =
        integrate::DiffIntegrations(*before, *result);
    std::string line;
    service::EventLine event(&line, "diff");
    event.Int("before", diff.before_clusters)
        .Int("after", diff.after_clusters)
        .Int("kept", diff.kept)
        .Int("added", diff.added)
        .Int("removed", diff.removed)
        .Array("added_names");
    for (const std::string& name : diff.added_names) event.Element(name);
    event.EndArray().Array("removed_names");
    for (const std::string& name : diff.removed_names) event.Element(name);
    event.EndArray().End();
    EmitEventLine(line);
  }

  service::ServiceStats stats = (*service)->stats();
  std::fprintf(
      stderr,
      "integrated %zu trees: %zu clusters, %zu mediated elements "
      "(execution %s) | cluster cache: %llu hits, %llu shared, %llu "
      "misses\n",
      result->stats.trees, result->clusters.size(),
      result->mediated.elements.size(),
      std::string(core::ExecutionStatusName(result->execution)).c_str(),
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.shared),
      static_cast<unsigned long long>(stats.cache.misses));
  return 0;
}

int RunHttp(const Args& args) {
  bool ok = true;
  net::TenantRegistryOptions registry_options;
  registry_options.session = SessionOptionsFromArgs(args, &ok);
  if (!ok) return 2;
  net::HttpServerOptions server_options;
  server_options.bind_address = args.Get("bind", "127.0.0.1");
  server_options.port =
      static_cast<uint16_t>(args.GetInt("port", 8080, 0, 65535));
  server_options.num_workers =
      static_cast<size_t>(args.GetInt("workers", 0, 0));
  server_options.admission.max_inflight =
      static_cast<size_t>(args.GetInt("max-inflight", 256, 0));
  server_options.admission.soft_inflight =
      static_cast<size_t>(args.GetInt("soft-inflight", 0, 0));
  server_options.admission.min_deadline_fraction =
      args.GetDouble("min-deadline-fraction", 0.25);
  registry_options.service.num_threads =
      static_cast<size_t>(args.GetInt("threads", 0, 0));
  registry_options.service.default_deadline_seconds =
      args.GetDouble("deadline-ms", 0) / 1e3;
  registry_options.service.slow_query_ms =
      args.GetDouble("slow-query-ms", 0);
  registry_options.shards = static_cast<size_t>(args.GetInt("shards", 1, 1));
  registry_options.state_dir = args.Get("state-dir");
  // With a state dir, every tenant write-ahead journals its deltas
  // (checkpoint at creation, fsync'd append per delta, replay on boot) so
  // even a SIGKILL loses no acknowledged delta; --no-wal reverts to
  // save-points-only durability.
  registry_options.enable_wal = !args.Has("no-wal");
  const bool journaling = args.Has("state-dir") && registry_options.enable_wal;
  net::TenantRegistry registry(std::move(registry_options));

  // Warm restart: every tenant saved by a previous drain resumes its
  // generation chain.
  if (args.Has("state-dir")) {
    size_t booted = registry.WarmStartAll();
    if (booted > 0) {
      std::fprintf(stderr, "warm-started %zu tenants from %s\n", booted,
                   args.Get("state-dir").c_str());
    }
  }

  // A repository source flag seeds the named tenant (skipped when a warm
  // start already brought it back).
  const std::string tenant_name = args.Get("tenant", "default");
  if (args.Has("forest") || args.Has("repo-dir") || args.Has("synthetic") ||
      args.Has("warm-start")) {
    if (registry.Find(tenant_name) != nullptr) {
      std::fprintf(stderr,
                   "tenant '%s' already warm-started; ignoring repository "
                   "source flags\n",
                   tenant_name.c_str());
    } else if (args.Has("warm-start")) {
      // Boot from an explicit snapshot file (not the state dir).
      auto service = MakeService(args);
      if (!service.ok()) {
        std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "note: --warm-start FILE seeds tenant '%s' via its "
                   "forest; generation restarts at 0 unless --state-dir "
                   "holds a drain snapshot\n",
                   tenant_name.c_str());
      schema::SchemaForest forest = (*service)->Pin()->forest();
      auto tenant = registry.Create(tenant_name, std::move(forest));
      if (!tenant.ok()) {
        std::fprintf(stderr, "%s\n", tenant.status().ToString().c_str());
        return 1;
      }
    } else {
      auto forest = LoadRepository(args);
      if (!forest.ok()) {
        std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
        return 1;
      }
      auto tenant = registry.Create(tenant_name, std::move(*forest));
      if (!tenant.ok()) {
        std::fprintf(stderr, "%s\n", tenant.status().ToString().c_str());
        return 1;
      }
    }
  }

  net::HttpServer server(&registry, server_options);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  server.InstallShutdownSignalHandlers();
  std::fprintf(stderr,
               "listening on %s:%u (%zu tenants%s); SIGINT/SIGTERM drains%s\n",
               server_options.bind_address.c_str(), server.port(),
               registry.size(),
               journaling ? ", delta journaling on" : "",
               args.Has("state-dir") ? " and saves every tenant" : "");
  server.Serve();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args(argc, argv);
  if (!args.ok()) return Usage();
  std::string command = argv[1];
  if (command == "gen") return RunGen(args);
  if (command == "save") return RunSave(args);
  if (command == "convert") return RunConvert(args);
  if (command == "stats") return RunStats(args);
  if (command == "match") return RunMatch(args);
  if (command == "batch") return RunBatch(args);
  if (command == "integrate") return RunIntegrate(args);
  if (command == "serve") return RunServe(args);
  if (command == "http") return RunHttp(args);
  return Usage();
}
