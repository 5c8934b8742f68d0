// Service throughput harness: queries/sec of service::MatchService over a
// synthetic repository, at 1/4/8 worker threads, with a cold cluster cache
// (every query pays element matching + clustering) versus a warm one (the
// cluster state is served from the ClusterIndexCache).
//
// This measures the PR's architectural claim: amortizing the paper's
// preprocessing across queries plus concurrent batch execution should give
// warm-cache multi-thread throughput >= 2x the cold-cache single-thread
// baseline.
//
// Usage: bench_service_throughput [target_elements] [repeat]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "repo/synthetic.h"
#include "service/match_service.h"
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
constexpr size_t kCopies = 3;  // each spec appears this many times per batch

std::vector<service::MatchRequest> MakeQueries() {
  std::vector<service::MatchRequest> queries;
  for (size_t copy = 0; copy < kCopies; ++copy) {
    for (size_t s = 0; s < kNumSpecs; ++s) {
      service::MatchRequest query;
      query.id = "q" + std::to_string(copy) + "-" + std::to_string(s);
      query.personal = *schema::ParseTreeSpec(kSpecs[s]);
      query.options.delta = 0.7;
      query.options.top_n = 10;
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

/// Runs `repeat` batches and returns queries/sec over all of them.
double MeasureBatches(service::MatchService* service,
                      const std::vector<service::MatchRequest>& queries,
                      int repeat) {
  Timer timer;
  for (int r = 0; r < repeat; ++r) {
    auto results = service->RunBatch(queries).results;
    for (const auto& result : results) {
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
    }
  }
  double seconds = timer.ElapsedSeconds();
  return static_cast<double>(queries.size()) * repeat / seconds;
}

}  // namespace
}  // namespace xsm

int main(int argc, char** argv) {
  using namespace xsm;

  size_t target_elements =
      argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 6000;
  int repeat = argc > 2 ? std::atoi(argv[2]) : 3;

  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = target_elements;
  repo_options.seed = bench::kExperimentSeed;
  auto forest = repo::GenerateSyntheticRepository(repo_options);
  if (!forest.ok()) {
    std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
    return 1;
  }

  auto snapshot = service::RepositorySnapshot::Create(std::move(*forest));
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }

  std::vector<service::MatchRequest> queries = MakeQueries();
  std::printf(
      "service throughput: %zu elements / %zu trees, %zu queries per batch "
      "(%zu distinct personal schemas), repeat=%d\n\n",
      (*snapshot)->total_nodes(), (*snapshot)->num_trees(), queries.size(),
      kNumSpecs, repeat);

  std::printf("%8s  %14s  %14s  %8s\n", "threads", "cold qps", "warm qps",
              "warm/cold");

  const size_t thread_counts[] = {1, 4, 8};
  double cold_single = 0;
  double warm_best = 0;
  for (size_t threads : thread_counts) {
    // Cold: cache disabled, every query reruns matching + clustering.
    service::MatchServiceOptions cold_options;
    cold_options.num_threads = threads;
    cold_options.cluster_cache_capacity = 0;
    service::MatchService cold_service(*snapshot, cold_options);
    double cold_qps = MeasureBatches(&cold_service, queries, repeat);

    // Warm: one priming batch fills the cache, then measure.
    service::MatchServiceOptions warm_options;
    warm_options.num_threads = threads;
    service::MatchService warm_service(*snapshot, warm_options);
    MeasureBatches(&warm_service, queries, 1);
    double warm_qps = MeasureBatches(&warm_service, queries, repeat);

    if (threads == 1) cold_single = cold_qps;
    if (warm_qps > warm_best) warm_best = warm_qps;
    std::printf("%8zu  %14.1f  %14.1f  %7.2fx\n", threads, cold_qps,
                warm_qps, warm_qps / cold_qps);
  }

  double speedup = warm_best / cold_single;
  std::printf(
      "\nwarm multi-thread vs cold single-thread: %.2fx (target >= 2x) %s\n",
      speedup, speedup >= 2.0 ? "OK" : "BELOW TARGET");
  return speedup >= 2.0 ? 0 : 1;
}
