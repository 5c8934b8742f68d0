// Scatter-gather sharding harness: exactness and scaling of the
// ShardedMatchService against the single-snapshot MatchService on the same
// content.
//
// Hard gate (every mode): `sharded_identical` — for every shard count the
// sharded backend's results (mapping tree / Δ / images, in rank order) and
// repository fingerprint are identical to the unsharded engine's. This is
// the tentpole claim: sharding is a pure execution strategy, invisible in
// results.
//
// Timing (full mode, skippable with --no-timing-gate): the headline
// `query_scaling_ratio` — warm-path queries/sec of the best shard count
// over the unsharded engine — must clear a floor that adapts to the
// hardware. The fan-out scatters mapping generation across shards onto a
// min(K, cores)-thread pool, so with multiple cores the ratio should rise
// toward the core count (until per-query work is too small to amortize
// the fan-out); on a single core no speedup is physically possible and
// the gate instead proves the scatter machinery costs almost nothing
// (>= 0.8x). The committed full-mode baseline + check_bench_regression
// guard the achieved ratio against order-of-magnitude regressions.
//
// Also reported (informational): per-K publish time — the K per-shard
// snapshots build in parallel, so publishing large repositories speeds up
// with K as well.
//
// Usage: bench_sharding [--smoke] [--no-timing-gate] [--out PATH]
//                       [corpus_elements]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiment_common.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "shard/sharded_match_service.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace xsm {
namespace {

const char* kSpecs[] = {
    "name(address,email)",
    "person(name,phone)",
    "book(title,author)",
    "order(item(price),customer)",
    "customer(name,address(city,zip))",
    "article(title,publisher)",
    "employee(name,department,email)",
    "product(name,price,@id)",
};
constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);
constexpr size_t kShardCounts[] = {2, 4, 8};

std::vector<service::MatchRequest> MakeQueries() {
  std::vector<service::MatchRequest> queries;
  for (size_t s = 0; s < kNumSpecs; ++s) {
    service::MatchRequest query;
    query.id = "q" + std::to_string(s);
    query.personal = *schema::ParseTreeSpec(kSpecs[s]);
    query.options.delta = 0.7;
    query.options.top_n = 10;
    queries.push_back(std::move(query));
  }
  return queries;
}

/// Rank-ordered (tree, Δ, image-count) triples of every query's mappings:
/// the cross-backend identity digest.
struct Digest {
  std::vector<std::vector<std::pair<schema::TreeId, double>>> per_query;
  std::vector<size_t> image_counts;
  bool operator==(const Digest& other) const {
    return per_query == other.per_query &&
           image_counts == other.image_counts;
  }
};

Digest DigestOf(service::Matcher* matcher,
                const std::vector<service::MatchRequest>& queries) {
  Digest digest;
  for (const service::MatchRequest& query : queries) {
    auto outcome = matcher->Run(query);
    if (!outcome.ok()) {
      std::fprintf(stderr, "query %s failed: %s\n", query.id.c_str(),
                   outcome.status().ToString().c_str());
      std::exit(1);
    }
    std::vector<std::pair<schema::TreeId, double>> mappings;
    for (const auto& mapping : outcome->result.mappings) {
      mappings.emplace_back(mapping.tree, mapping.delta);
      digest.image_counts.push_back(mapping.images.size());
    }
    digest.per_query.push_back(std::move(mappings));
  }
  return digest;
}

/// Warm-path queries/sec: sequential single-query runs over the set.
double MeasureQueries(service::Matcher* matcher,
                      const std::vector<service::MatchRequest>& queries,
                      int repeat) {
  Timer timer;
  for (int r = 0; r < repeat; ++r) {
    for (const service::MatchRequest& query : queries) {
      auto outcome = matcher->Run(query);
      if (!outcome.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     outcome.status().ToString().c_str());
        std::exit(1);
      }
    }
  }
  return static_cast<double>(queries.size()) * repeat /
         timer.ElapsedSeconds();
}

}  // namespace
}  // namespace xsm

int main(int argc, char** argv) {
  using namespace xsm;

  bool smoke = false;
  bool timing_gate = true;
  std::string out_path = "BENCH_sharding.json";
  size_t elements = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-timing-gate") == 0) {
      timing_gate = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      elements = static_cast<size_t>(std::atol(argv[i]));
    }
  }
  if (elements == 0) elements = smoke ? 3000 : 100000;
  const int repeat = smoke ? 2 : 4;
  const int rounds = smoke ? 2 : 4;  // alternating best-of rounds
  const size_t threads = 8;

  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = elements;
  repo_options.seed = bench::kExperimentSeed;
  auto forest = repo::GenerateSyntheticRepository(repo_options);
  if (!forest.ok()) {
    std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
    return 1;
  }

  service::MatchServiceOptions options;
  options.num_threads = threads;

  // Unsharded reference (publish timed for the informational column).
  Timer unsharded_publish;
  auto snapshot = service::RepositorySnapshot::Create(*forest);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  const double unsharded_publish_seconds = unsharded_publish.ElapsedSeconds();
  service::MatchService unsharded(*snapshot, options);

  std::printf(
      "sharded scatter-gather: %zu elements / %zu trees, %zu queries, "
      "%zu threads, repeat=%d x %d rounds\n\n",
      (*snapshot)->total_nodes(), (*snapshot)->num_trees(), kNumSpecs,
      threads, repeat, rounds);

  // Sharded backends, publish timed per K.
  std::vector<std::unique_ptr<shard::ShardedMatchService>> backends;
  std::vector<double> publish_seconds;
  for (size_t k : kShardCounts) {
    shard::ShardedOptions shard_options;
    shard_options.num_shards = k;
    Timer publish;
    auto sharded = shard::ShardedMatchService::Create(*forest, options,
                                                      shard_options);
    if (!sharded.ok()) {
      std::fprintf(stderr, "K=%zu: %s\n", k,
                   sharded.status().ToString().c_str());
      return 1;
    }
    publish_seconds.push_back(publish.ElapsedSeconds());
    backends.push_back(std::move(*sharded));
  }

  // Identity gate + cluster-state warm-up in one pass.
  std::vector<service::MatchRequest> queries = MakeQueries();
  const Digest want = DigestOf(&unsharded, queries);
  bool sharded_identical = true;
  for (size_t i = 0; i < backends.size(); ++i) {
    if (backends[i]->Pin()->fingerprint() !=
        unsharded.Pin()->fingerprint()) {
      std::fprintf(stderr, "K=%zu: fingerprint mismatch\n", kShardCounts[i]);
      sharded_identical = false;
    }
    if (!(DigestOf(backends[i].get(), queries) == want)) {
      std::fprintf(stderr, "K=%zu: results differ from unsharded\n",
                   kShardCounts[i]);
      sharded_identical = false;
    }
  }

  // Alternate rounds so machine drift hits every backend equally; keep
  // the best of each (the least-perturbed run).
  double unsharded_qps = 0;
  std::vector<double> sharded_qps(backends.size(), 0);
  for (int round = 0; round < rounds; ++round) {
    double u = MeasureQueries(&unsharded, queries, repeat);
    if (u > unsharded_qps) unsharded_qps = u;
    for (size_t i = 0; i < backends.size(); ++i) {
      double s = MeasureQueries(backends[i].get(), queries, repeat);
      if (s > sharded_qps[i]) sharded_qps[i] = s;
    }
  }

  std::printf("%-14s | %10s | %10s | %8s | %11s\n", "backend", "publish(s)",
              "warm qps", "speedup", "fan-outs");
  std::printf("%-14s | %10.3f | %10.1f | %8s | %11s\n", "unsharded",
              unsharded_publish_seconds, unsharded_qps, "1.00x", "-");
  double best_qps = 0;
  size_t best_k = 1;
  for (size_t i = 0; i < backends.size(); ++i) {
    if (sharded_qps[i] > best_qps) {
      best_qps = sharded_qps[i];
      best_k = kShardCounts[i];
    }
    char label[32];
    std::snprintf(label, sizeof(label), "sharded K=%zu", kShardCounts[i]);
    std::printf("%-14s | %10.3f | %10.1f | %7.2fx | %11llu\n", label,
                publish_seconds[i], sharded_qps[i],
                sharded_qps[i] / unsharded_qps,
                static_cast<unsigned long long>(
                    backends[i]->metrics().CounterValue(
                        "xsm_shard_fanouts_total")));
  }
  const double ratio = best_qps / unsharded_qps;

  std::printf("\nsharded identical: %s | best: K=%zu at %.2fx unsharded\n",
              sharded_identical ? "yes" : "NO", best_k, ratio);

  // Full-mode floor: with >= 2 cores the scatter must beat the unsharded
  // engine at 100k+ elements; on a single core (where no speedup is
  // possible) it must prove itself near-free. Smoke corpora are too small
  // to amortize fan-out on shared CI machines; there the bar is "not
  // catastrophically slower".
  const size_t cores = ThreadPool::DefaultThreadCount();
  const double gate_ratio = smoke ? 0.3 : (cores >= 2 ? 1.1 : 0.8);
  const bool scaling_ok = !timing_gate || ratio >= gate_ratio;

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n  \"bench\": \"sharding\",\n"
      "  \"mode\": \"%s\",\n"
      "  \"elements\": %zu,\n"
      "  \"queries\": %zu,\n"
      "  \"cores\": %zu,\n"
      "  \"threads\": %zu,\n"
      "  \"repeat\": %d,\n"
      "  \"rounds\": %d,\n"
      "  \"unsharded_publish_seconds\": %.3f,\n"
      "  \"unsharded_qps\": %.1f,\n"
      "  \"best_shard_count\": %zu,\n"
      "  \"best_sharded_qps\": %.1f,\n"
      "  \"query_scaling_ratio\": %.4f,\n"
      "  \"scaling_ok\": %s,\n"
      "  \"sharded_identical\": %s\n"
      "}\n",
      smoke ? "smoke" : "full", (*snapshot)->total_nodes(), kNumSpecs,
      cores, threads, repeat, rounds, unsharded_publish_seconds,
      unsharded_qps,
      best_k, best_qps, ratio, scaling_ok ? "true" : "false",
      sharded_identical ? "true" : "false");
  std::fputs(buf, stdout);
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out != nullptr) {
    std::fputs(buf, out);
    std::fclose(out);
  }

  if (!sharded_identical) return 1;
  if (!scaling_ok) {
    std::fprintf(stderr, "FAIL query_scaling_ratio %.3f < %.3f\n", ratio,
                 gate_ratio);
    return 1;
  }
  return 0;
}
