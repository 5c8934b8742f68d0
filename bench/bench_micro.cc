// Microbenchmarks (google-benchmark) for the kernels the paper's pipeline
// leans on: string similarity (element matchers), labeled tree distance
// (clustering distance measure + Δpath), the k-means iteration, element
// matching over the full repository, and per-cluster B&B generation.
#include <benchmark/benchmark.h>

#include <vector>

#include "cluster/kmeans.h"
#include "core/bellflower.h"
#include "label/tree_index.h"
#include "match/element_matching.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "sim/string_similarity.h"
#include "util/random.h"

namespace {

using namespace xsm;

// --- string similarity kernels ------------------------------------------

const std::vector<std::pair<std::string, std::string>>& NamePairs() {
  static const auto* kPairs =
      new std::vector<std::pair<std::string, std::string>>{
          {"name", "fullName"},       {"address", "billingAddress"},
          {"email", "e-mail"},        {"authorName", "author_name"},
          {"quantity", "qty"},        {"telephone", "phoneNumber"},
          {"shelf", "bookshelf"},     {"customer", "client"},
          {"purchaseOrder", "order"}, {"identifier", "id"},
      };
  return *kPairs;
}

void BM_FuzzySimilarity(benchmark::State& state) {
  const auto& pairs = NamePairs();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(sim::FuzzyStringSimilarityIgnoreCase(a, b));
  }
}
BENCHMARK(BM_FuzzySimilarity);

// --- labeled tree distance ------------------------------------------------

schema::SchemaTree RandomTree(size_t n, uint64_t seed) {
  Rng rng(seed);
  schema::SchemaTree t;
  t.AddNode(schema::kInvalidNode, {.name = "root"});
  for (size_t i = 1; i < n; ++i) {
    t.AddNode(static_cast<schema::NodeId>(rng.Uniform(i)),
              {.name = "n" + std::to_string(i)});
  }
  return t;
}

void BM_TreeIndexBuild(benchmark::State& state) {
  schema::SchemaTree tree =
      RandomTree(static_cast<size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(label::TreeIndex::Build(tree));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeIndexBuild)->Range(64, 4096)->Complexity();

void BM_TreeDistanceQuery(benchmark::State& state) {
  const size_t n = 2048;
  schema::SchemaTree tree = RandomTree(n, 7);
  label::TreeIndex index = label::TreeIndex::Build(tree);
  Rng rng(13);
  for (auto _ : state) {
    auto u = static_cast<schema::NodeId>(rng.Uniform(n));
    auto v = static_cast<schema::NodeId>(rng.Uniform(n));
    benchmark::DoNotOptimize(index.Distance(u, v));
  }
}
BENCHMARK(BM_TreeDistanceQuery);

// Naive parent-walk distance, to quantify what the node-labeling buys.
void BM_TreeDistanceNaive(benchmark::State& state) {
  const size_t n = 2048;
  schema::SchemaTree tree = RandomTree(n, 7);
  Rng rng(13);
  std::vector<bool> mark(n);
  for (auto _ : state) {
    auto u = static_cast<schema::NodeId>(rng.Uniform(n));
    auto v = static_cast<schema::NodeId>(rng.Uniform(n));
    std::fill(mark.begin(), mark.end(), false);
    int du = 0;
    for (auto x = u; x != schema::kInvalidNode; x = tree.parent(x)) {
      mark[static_cast<size_t>(x)] = true;
    }
    int d = 0;
    auto x = v;
    while (!mark[static_cast<size_t>(x)]) {
      x = tree.parent(x);
      ++d;
    }
    for (auto y = u; y != x; y = tree.parent(y)) ++du;
    benchmark::DoNotOptimize(d + du);
  }
}
BENCHMARK(BM_TreeDistanceNaive);

// --- pipeline stages over the canonical repository -------------------------

struct PipelineFixture {
  schema::SchemaForest repository;
  schema::SchemaTree personal;
  label::ForestIndex index;
  std::vector<cluster::ClusterPoint> points;
  std::vector<size_t> me_sizes;

  explicit PipelineFixture(size_t elements) {
    repo::SyntheticRepoOptions options;
    options.target_elements = elements;
    options.seed = 2006;
    repository = std::move(*repo::GenerateSyntheticRepository(options));
    personal = *schema::ParseTreeSpec("name(address,email)");
    index = label::ForestIndex::Build(repository);
    auto matching =
        match::MatchElements(personal, repository, {.threshold = 0.5});
    for (size_t i = 0; i < matching->distinct_nodes.size(); ++i) {
      points.push_back(
          {matching->distinct_nodes[i], matching->masks[i]});
    }
    me_sizes.resize(personal.size());
    for (size_t i = 0; i < personal.size(); ++i) {
      me_sizes[i] = matching->sets[i].size();
    }
  }

  static const PipelineFixture& Get() {
    static const PipelineFixture* kFixture = new PipelineFixture(9759);
    return *kFixture;
  }
};

void BM_ElementMatching(benchmark::State& state) {
  const PipelineFixture& fx = PipelineFixture::Get();
  for (auto _ : state) {
    auto matching =
        match::MatchElements(fx.personal, fx.repository, {.threshold = 0.5});
    benchmark::DoNotOptimize(matching);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.repository.total_nodes()));
}
BENCHMARK(BM_ElementMatching);

void BM_KMeansClustering(benchmark::State& state) {
  const PipelineFixture& fx = PipelineFixture::Get();
  cluster::KMeansClusterer clusterer(&fx.repository, &fx.index);
  cluster::KMeansOptions options;
  options.join_distance = static_cast<int>(state.range(0));
  options.min_cluster_size = 4;
  for (auto _ : state) {
    auto result = clusterer.Cluster(fx.points, fx.me_sizes, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.points.size()));
}
BENCHMARK(BM_KMeansClustering)->Arg(2)->Arg(3)->Arg(4);

void BM_FullMatchPipeline(benchmark::State& state) {
  const PipelineFixture& fx = PipelineFixture::Get();
  core::Bellflower system(&fx.repository);
  core::MatchOptions options;
  options.element.threshold = 0.5;
  options.delta = 0.75;
  options.clustering = state.range(0) == 0
                           ? core::ClusteringMode::kTreeClusters
                           : core::ClusteringMode::kKMeans;
  options.kmeans.join_distance = 3;
  options.kmeans.min_cluster_size = 4;
  for (auto _ : state) {
    auto result = system.Match(fx.personal, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullMatchPipeline)
    ->Arg(0)   // non-clustered baseline
    ->Arg(1);  // clustered (medium)

}  // namespace

BENCHMARK_MAIN();
