// The exactness contract of xsm::shard: for every shard count K and thread
// count, the sharded backend returns byte-identical results to the
// unsharded MatchService — same mappings, same ranks, same Δ doubles, same
// deterministic stats — because element matching scatters per shard (each
// shard's dictionary over its own forest concatenates into the global one)
// and clustering + generation run against the merged global state. The one
// exception is stats.num_mappings under adaptive top-N pruning, which
// counts materialized work (see MaterializedCountIsDeterministic below).
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "shard/sharded_match_service.h"

namespace xsm::shard {
namespace {

using service::MatchRequest;
using service::MatchService;
using service::MatchServiceOptions;

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

class ShardedEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo::SyntheticRepoOptions options;
    options.target_elements = 1800;
    options.seed = 11;
    auto forest = repo::GenerateSyntheticRepository(options);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    forest_ = new schema::SchemaForest(std::move(*forest));
  }

  static void TearDownTestSuite() {
    delete forest_;
    forest_ = nullptr;
  }

  static MatchRequest MakeQuery(const std::string& id, const char* spec) {
    MatchRequest query;
    query.id = id;
    auto personal = schema::ParseTreeSpec(spec);
    EXPECT_TRUE(personal.ok()) << personal.status().ToString();
    query.personal = std::move(*personal);
    query.options.delta = 0.6;
    query.options.top_n = 10;
    return query;
  }

  static std::unique_ptr<MatchService> MakeReference(
      MatchServiceOptions options = MatchServiceOptions()) {
    auto snapshot = service::RepositorySnapshot::Create(*forest_);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    return std::make_unique<MatchService>(std::move(*snapshot), options);
  }

  static std::unique_ptr<ShardedMatchService> MakeSharded(
      size_t k, MatchServiceOptions options = MatchServiceOptions()) {
    ShardedOptions shard_options;
    shard_options.num_shards = k;
    auto sharded = ShardedMatchService::Create(*forest_, options,
                                               shard_options);
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    return std::move(*sharded);
  }

  /// Whether `options` makes stats.num_mappings comparable across
  /// execution strategies. With adaptive top-N pruning active the δ
  /// ratchet's reach depends on how clusters are grouped into runs, so the
  /// materialized-mapping count is work accounting, not a semantic
  /// quantity — the final top N is still byte-identical.
  static bool MaterializedCountIsDeterministic(
      const core::MatchOptions& options) {
    return !options.adaptive_top_n || options.top_n == 0;
  }

  /// Byte-identical: assignments, ranks AND the exact doubles.
  static void ExpectSameResults(const core::MatchResult& got,
                                const core::MatchResult& want,
                                const std::string& context,
                                bool compare_materialized_count = true) {
    EXPECT_EQ(got.execution, want.execution) << context;
    ASSERT_EQ(got.mappings.size(), want.mappings.size()) << context;
    for (size_t i = 0; i < got.mappings.size(); ++i) {
      const generate::SchemaMapping& a = got.mappings[i];
      const generate::SchemaMapping& b = want.mappings[i];
      EXPECT_EQ(a.tree, b.tree) << context << " mapping " << i;
      EXPECT_EQ(a.images, b.images) << context << " mapping " << i;
      EXPECT_EQ(a.delta, b.delta) << context << " mapping " << i;
      EXPECT_EQ(a.delta_sim, b.delta_sim) << context << " mapping " << i;
      EXPECT_EQ(a.delta_path, b.delta_path) << context << " mapping " << i;
      EXPECT_EQ(a.total_path_length, b.total_path_length)
          << context << " mapping " << i;
    }
    ASSERT_EQ(got.partial_mappings.size(), want.partial_mappings.size())
        << context;
    for (size_t i = 0; i < got.partial_mappings.size(); ++i) {
      const generate::PartialMapping& a = got.partial_mappings[i];
      const generate::PartialMapping& b = want.partial_mappings[i];
      EXPECT_EQ(a.tree, b.tree) << context << " partial " << i;
      EXPECT_EQ(a.images, b.images) << context << " partial " << i;
      EXPECT_EQ(a.delta, b.delta) << context << " partial " << i;
      EXPECT_EQ(a.assigned_count, b.assigned_count)
          << context << " partial " << i;
    }
    // Deterministic stats (everything but wall-clock timings).
    EXPECT_EQ(got.stats.repository_nodes, want.stats.repository_nodes)
        << context;
    EXPECT_EQ(got.stats.repository_trees, want.stats.repository_trees)
        << context;
    EXPECT_EQ(got.stats.total_mapping_elements,
              want.stats.total_mapping_elements)
        << context;
    EXPECT_EQ(got.stats.distinct_mapping_nodes,
              want.stats.distinct_mapping_nodes)
        << context;
    EXPECT_EQ(got.stats.num_clusters, want.stats.num_clusters) << context;
    EXPECT_EQ(got.stats.num_useful_clusters, want.stats.num_useful_clusters)
        << context;
    EXPECT_EQ(got.stats.search_space, want.stats.search_space) << context;
    if (compare_materialized_count) {
      EXPECT_EQ(got.stats.num_mappings, want.stats.num_mappings) << context;
    }
  }

  static schema::SchemaForest* forest_;
};

schema::SchemaForest* ShardedEquivalenceTest::forest_ = nullptr;

TEST_F(ShardedEquivalenceTest, PinIdentityMatchesUnsharded) {
  auto reference = MakeReference();
  service::RepositoryPinPtr want = reference->Pin();
  for (size_t k : {1u, 2u, 4u, 8u}) {
    auto sharded = MakeSharded(k);
    service::RepositoryPinPtr got = sharded->Pin();
    EXPECT_EQ(got->fingerprint(), want->fingerprint()) << "K=" << k;
    EXPECT_EQ(got->num_trees(), want->num_trees()) << "K=" << k;
    EXPECT_EQ(got->total_nodes(), want->total_nodes()) << "K=" << k;
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(want->num_trees()); ++t) {
      ASSERT_EQ(got->tree_fingerprint(t), want->tree_fingerprint(t))
          << "K=" << k << " tree " << t;
    }
  }
}

TEST_F(ShardedEquivalenceTest, TreeClusteringIdenticalAcrossShardCounts) {
  MatchServiceOptions options;
  options.num_threads = 2;
  auto reference = MakeReference(options);
  for (size_t k : {1u, 2u, 4u, 8u}) {
    auto sharded = MakeSharded(k, options);
    for (size_t q = 0; q < kNumSpecs; ++q) {
      MatchRequest query = MakeQuery("q" + std::to_string(q), kSpecs[q]);
      query.options.clustering = core::ClusteringMode::kTreeClusters;
      auto want = reference->Run(query);
      auto got = sharded->Run(query);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResults(got->result, want->result,
                        "K=" + std::to_string(k) + " q=" + query.id,
                        MaterializedCountIsDeterministic(query.options));
    }
  }
}

TEST_F(ShardedEquivalenceTest, KMeansClusteringIdenticalAcrossShardCounts) {
  MatchServiceOptions options;
  options.num_threads = 2;
  auto reference = MakeReference(options);
  for (size_t k : {1u, 3u, 8u}) {
    auto sharded = MakeSharded(k, options);
    for (size_t q = 0; q < kNumSpecs; q += 2) {
      MatchRequest query = MakeQuery("km" + std::to_string(q), kSpecs[q]);
      query.options.clustering = core::ClusteringMode::kKMeans;
      query.options.kmeans.join_distance = 2;
      auto want = reference->Run(query);
      auto got = sharded->Run(query);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResults(got->result, want->result,
                        "K=" + std::to_string(k) + " q=" + query.id,
                        MaterializedCountIsDeterministic(query.options));
    }
  }
}

TEST_F(ShardedEquivalenceTest, IdenticalAcrossThreadCounts) {
  // The scatter fan-out must not leak scheduling nondeterminism into the
  // merged result: every (K, threads) cell agrees with the single-threaded
  // unsharded run.
  MatchServiceOptions single;
  single.num_threads = 1;
  auto reference = MakeReference(single);
  std::vector<Result<service::MatchOutcome>> want;
  for (size_t q = 0; q < kNumSpecs; ++q) {
    want.push_back(
        reference->Run(MakeQuery("t" + std::to_string(q), kSpecs[q])));
    ASSERT_TRUE(want.back().ok()) << want.back().status().ToString();
  }
  for (size_t threads : {1u, 4u}) {
    for (size_t k : {2u, 4u}) {
      MatchServiceOptions options;
      options.num_threads = threads;
      auto sharded = MakeSharded(k, options);
      for (size_t q = 0; q < kNumSpecs; ++q) {
        MatchRequest query = MakeQuery("t" + std::to_string(q), kSpecs[q]);
        const bool count_comparable =
            MaterializedCountIsDeterministic(query.options);
        auto got = sharded->Run(std::move(query));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectSameResults(got->result, want[q]->result,
                          "K=" + std::to_string(k) + " threads=" +
                              std::to_string(threads) + " q=" +
                              std::to_string(q),
                          count_comparable);
      }
    }
  }
}

TEST_F(ShardedEquivalenceTest, RandomizedOptionSweepStaysIdentical) {
  // Randomized but reproducible: random personal schemas and option
  // combinations (δ, top-N, clustering mode, partial mappings, adaptive
  // top-N) across shard counts. Covers both the scatter path and the
  // coupled-config fallback path (partials + adaptive δ), which must agree
  // with the unsharded engine either way.
  MatchServiceOptions options;
  options.num_threads = 2;
  auto reference = MakeReference(options);
  std::vector<std::unique_ptr<ShardedMatchService>> backends;
  const size_t shard_counts[] = {1, 2, 4, 8};
  for (size_t k : shard_counts) backends.push_back(MakeSharded(k, options));

  std::mt19937 rng(271828);
  for (int round = 0; round < 12; ++round) {
    MatchRequest query =
        MakeQuery("r" + std::to_string(round), kSpecs[rng() % kNumSpecs]);
    query.options.delta = 0.45 + 0.05 * static_cast<double>(rng() % 8);
    query.options.top_n = rng() % 3 == 0 ? 0 : 1 + rng() % 12;
    query.options.adaptive_top_n = rng() % 2 == 0;
    query.options.include_partial_mappings = rng() % 3 == 0;
    query.options.clustering = rng() % 2 == 0
                                   ? core::ClusteringMode::kTreeClusters
                                   : core::ClusteringMode::kKMeans;
    if (query.options.clustering == core::ClusteringMode::kKMeans) {
      query.options.kmeans.join_distance = static_cast<int>(rng() % 3);
    }
    auto want = reference->Run(query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (size_t i = 0; i < backends.size(); ++i) {
      auto got = backends[i]->Run(query);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResults(got->result, want->result,
                        "round " + std::to_string(round) + " K=" +
                            std::to_string(shard_counts[i]),
                        MaterializedCountIsDeterministic(query.options));
    }
  }
}

}  // namespace
}  // namespace xsm::shard
