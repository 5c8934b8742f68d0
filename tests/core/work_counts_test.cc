// Pins the work counts of the paper's §5 setting (seeded ~9.8k-element
// repository, seed 2006) for a handful of queries: how many mappings
// generation materializes, how many partial mappings it expands, which
// clusters are useful, the search space, the per-cluster summaries and the
// top-10 list. Generation-stage optimizations must leave every one of these
// numbers where it is; a change here is a behaviour change, not a speed-up.
//
// Set XSM_PRINT_WORK_COUNTS=1 to print the observed values in the layout of
// kCases below.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/bellflower.h"
#include "match/structural_matcher.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"

namespace xsm::core {
namespace {

struct TopMapping {
  schema::TreeId tree;
  std::vector<schema::NodeId> images;
  double delta;
};

struct WorkCountCase {
  const char* name;
  const char* personal;
  ClusteringMode clustering;
  int join_distance;
  size_t top_n;
  bool include_partial_mappings;
  bool structural_baseline;

  size_t num_mappings;
  uint64_t partial_mappings;
  size_t num_useful_clusters;
  double search_space;
  size_t num_clusters;
  /// FNV-1a over every ClusterSummary field, in summary order.
  uint64_t summaries_digest;
  uint64_t partial_generator_partials;
  size_t num_partial_mappings;
  std::vector<TopMapping> top;
};

uint64_t Fnv(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SummariesDigest(const std::vector<ClusterSummary>& summaries) {
  uint64_t h = 14695981039346656037ull;
  for (const ClusterSummary& s : summaries) {
    h = Fnv(h, static_cast<uint64_t>(static_cast<int64_t>(s.tree)));
    h = Fnv(h, s.num_points);
    h = Fnv(h, s.num_mapping_elements);
    h = Fnv(h, s.useful ? 1 : 0);
    h = Fnv(h, std::bit_cast<uint64_t>(s.search_space));
  }
  return h;
}

class WorkCountsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo::SyntheticRepoOptions options;
    options.target_elements = 9759;  // the paper's §5 repository size
    options.seed = 2006;
    auto forest = repo::GenerateSyntheticRepository(options);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    forest_ = new schema::SchemaForest(std::move(*forest));
    system_ = new Bellflower(forest_);
  }

  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
    delete forest_;
    forest_ = nullptr;
  }

  static MatchOptions Options(const WorkCountCase& c) {
    MatchOptions options;
    options.element.threshold = 0.5;
    options.objective.alpha = 0.5;
    options.objective.k_norm = 0.0;
    options.delta = 0.75;
    options.kmeans.min_cluster_size = 4;
    options.kmeans.max_iterations = 25;
    options.clustering = c.clustering;
    options.kmeans.join_distance = c.join_distance;
    options.top_n = c.top_n;
    options.adaptive_top_n = true;
    options.include_partial_mappings = c.include_partial_mappings;
    if (c.structural_baseline) {
      static const match::PathContextMatcher kStructural;
      options.structural_matcher = &kStructural;
      options.structural_within_clusters_only = false;
    }
    return options;
  }

  static schema::SchemaForest* forest_;
  static Bellflower* system_;
};

schema::SchemaForest* WorkCountsTest::forest_ = nullptr;
Bellflower* WorkCountsTest::system_ = nullptr;

void PrintObserved(const WorkCountCase& c, const MatchResult& r) {
  const MatchStats& s = r.stats;
  std::printf("    // %s\n     %zu, %llu, %zu, %.17g, %zu,\n     0x%016llxull, "
              "%llu, %zu,\n     {\n",
              c.name, s.num_mappings,
              static_cast<unsigned long long>(s.generator.partial_mappings),
              s.num_useful_clusters, s.search_space, s.num_clusters,
              static_cast<unsigned long long>(
                  SummariesDigest(s.cluster_summaries)),
              static_cast<unsigned long long>(
                  s.partial_generator.partial_mappings),
              s.num_partial_mappings);
  for (const auto& m : r.mappings) {
    std::printf("         {%d, {", m.tree);
    for (size_t i = 0; i < m.images.size(); ++i) {
      std::printf(i == 0 ? "%d" : ", %d", m.images[i]);
    }
    std::printf("}, %.17g},\n", m.delta);
  }
  std::printf("     }},\n");
}

const WorkCountCase kCases[] = {
    // name, personal, clustering, join, top_n, partials, structural
    // then: num_mappings, partial_mappings, useful clusters, search_space,
    // clusters, summaries digest, partial-generator partials, partial
    // mappings, top list
    {"medium_top10", "name(address,email)", ClusteringMode::kKMeans, 3, 10,
     false, false,
     156, 1898, 260, 16527, 278,
     0x0bc453f1c1b382c7ull, 0, 0,
     {
         {147, {37, 38, 39}, 0.97499999999999998},
         {1, {34, 35, 43}, 0.96250000000000002},
         {79, {339, 340, 171}, 0.96250000000000002},
         {147, {37, 38, 56}, 0.96250000000000002},
         {16, {10, 11, 28}, 0.95119047619047614},
         {163, {4, 5, 6}, 0.95119047619047614},
         {1, {34, 35, 93}, 0.94999999999999996},
         {43, {23, 7, 20}, 0.94999999999999996},
         {59, {9, 17, 21}, 0.94999999999999996},
         {160, {22, 23, 10}, 0.94999999999999996},
     }},
    {"tree_top10", "name(address,email)", ClusteringMode::kTreeClusters, 0,
     10, false, false,
     228, 4737, 128, 266258, 163,
     0xc962de42281dd7f3ull, 0, 0,
     {
         {147, {37, 38, 39}, 0.97499999999999998},
         {1, {34, 35, 43}, 0.96250000000000002},
         {79, {339, 340, 171}, 0.96250000000000002},
         {147, {37, 38, 56}, 0.96250000000000002},
         {16, {10, 11, 28}, 0.95119047619047614},
         {163, {4, 5, 6}, 0.95119047619047614},
         {1, {34, 35, 93}, 0.94999999999999996},
         {43, {23, 7, 20}, 0.94999999999999996},
         {59, {9, 17, 21}, 0.94999999999999996},
         {124, {3, 12, 13}, 0.94999999999999996},
     }},
    {"small_six_nodes", "person(name,phone,address(date,email))",
     ClusteringMode::kKMeans, 2, 10, false, false,
     917, 11418, 62, 2664313, 116,
     0xb16efb77ebea1c60ull, 0, 0,
     {
         {65, {73, 214, 144, 32, 192, 16}, 0.93500000000000005},
         {65, {73, 214, 164, 32, 192, 16}, 0.93500000000000005},
         {65, {73, 214, 144, 43, 192, 16}, 0.9330952380952382},
         {65, {73, 214, 164, 43, 192, 16}, 0.9330952380952382},
         {65, {73, 214, 144, 32, 192, 83}, 0.92999999999999994},
         {65, {73, 214, 144, 32, 192, 110}, 0.92999999999999994},
         {65, {73, 214, 144, 32, 192, 152}, 0.92999999999999994},
         {65, {73, 214, 144, 32, 192, 190}, 0.92999999999999994},
         {65, {73, 214, 164, 32, 192, 83}, 0.92999999999999994},
         {65, {73, 214, 164, 32, 192, 110}, 0.92999999999999994},
     }},
    {"large_with_partials", "name(address,email)", ClusteringMode::kKMeans, 4,
     10, true, false,
     227, 3062, 184, 65606, 195,
     0xb600ad27d6aa634full, 98, 67,
     {
         {147, {37, 38, 39}, 0.97499999999999998},
         {1, {34, 35, 43}, 0.96250000000000002},
         {79, {339, 340, 171}, 0.96250000000000002},
         {147, {37, 38, 56}, 0.96250000000000002},
         {16, {10, 11, 28}, 0.95119047619047614},
         {163, {4, 5, 6}, 0.95119047619047614},
         {1, {34, 35, 93}, 0.94999999999999996},
         {43, {23, 7, 20}, 0.94999999999999996},
         {59, {9, 17, 21}, 0.94999999999999996},
         {124, {3, 12, 13}, 0.94999999999999996},
     }},
    {"medium_structural_baseline", "name(address,phone)",
     ClusteringMode::kKMeans, 3, 10, false, true,
     1, 809, 153, 9209, 158,
     0x21fe4fc5f01606adull, 0, 0,
     {
         {151, {72, 73, 75}, 0.75753968253968251},
     }},
};

TEST_F(WorkCountsTest, GenerationWorkCountsArePinned) {
  const bool print = std::getenv("XSM_PRINT_WORK_COUNTS") != nullptr;
  for (const WorkCountCase& c : kCases) {
    SCOPED_TRACE(c.name);
    auto personal = schema::ParseTreeSpec(c.personal);
    ASSERT_TRUE(personal.ok()) << personal.status().ToString();
    auto r = system_->Match(*personal, Options(c));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (print) {
      PrintObserved(c, *r);
      continue;
    }
    const MatchStats& s = r->stats;
    EXPECT_EQ(s.num_mappings, c.num_mappings);
    EXPECT_EQ(s.generator.partial_mappings, c.partial_mappings);
    EXPECT_EQ(s.num_useful_clusters, c.num_useful_clusters);
    EXPECT_EQ(s.search_space, c.search_space);
    EXPECT_EQ(s.num_clusters, c.num_clusters);
    EXPECT_EQ(s.cluster_summaries.size(), c.num_clusters);
    EXPECT_EQ(SummariesDigest(s.cluster_summaries), c.summaries_digest);
    EXPECT_EQ(s.partial_generator.partial_mappings,
              c.partial_generator_partials);
    EXPECT_EQ(s.num_partial_mappings, c.num_partial_mappings);
    ASSERT_EQ(r->mappings.size(), c.top.size());
    for (size_t i = 0; i < c.top.size(); ++i) {
      EXPECT_EQ(r->mappings[i].tree, c.top[i].tree) << "rank " << i + 1;
      EXPECT_EQ(r->mappings[i].images, c.top[i].images) << "rank " << i + 1;
      EXPECT_EQ(r->mappings[i].delta, c.top[i].delta) << "rank " << i + 1;
    }
  }
}

// A top-N larger than any result is the same as no limit. Nothing may be
// allocated in proportion to N: SIZE_MAX is what a request's `top=-1` parses
// to.
TEST_F(WorkCountsTest, HugeTopNMatchesUnlimited) {
  const WorkCountCase& c = kCases[0];
  auto personal = schema::ParseTreeSpec(c.personal);
  ASSERT_TRUE(personal.ok()) << personal.status().ToString();
  MatchOptions options = Options(c);
  auto state = system_->BuildClusterState(
      *personal, ClusterStateOptions::From(options));
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  options.top_n = 0;
  auto unlimited = system_->MatchWithState(*personal, *state, options);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  ASSERT_FALSE(unlimited->mappings.empty());
  for (size_t top_n : {SIZE_MAX, static_cast<size_t>(1e12)}) {
    SCOPED_TRACE(top_n);
    options.top_n = top_n;
    auto r = system_->MatchWithState(*personal, *state, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.num_mappings, unlimited->stats.num_mappings);
    EXPECT_EQ(r->stats.generator.partial_mappings,
              unlimited->stats.generator.partial_mappings);
    ASSERT_EQ(r->mappings.size(), unlimited->mappings.size());
    for (size_t i = 0; i < r->mappings.size(); ++i) {
      EXPECT_EQ(r->mappings[i].tree, unlimited->mappings[i].tree);
      EXPECT_EQ(r->mappings[i].images, unlimited->mappings[i].images);
      EXPECT_EQ(r->mappings[i].delta, unlimited->mappings[i].delta);
    }
  }
}

}  // namespace
}  // namespace xsm::core
