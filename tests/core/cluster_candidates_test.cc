// BuildClusterCandidates reads each cluster's candidate lists off its
// members' personal masks instead of merging every ME_n with the members.
// These randomized checks hold it to the definition — ME_n ∩ cluster, as a
// std::set_intersection of the NodeRef-sorted ME_n with the sorted member
// nodes — on k-means and tree-cluster states of seeded synthetic
// repositories and on the merged state of the sharded backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/bellflower.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "shard/sharded_match_service.h"

namespace xsm::core {
namespace {

using match::MappingElement;
using schema::NodeRef;

const char* const kVocabulary[] = {
    "name",  "address", "email", "phone",    "person", "title", "date",
    "city",  "zip",     "price", "customer", "order",  "item",  "id",
    "url",   "status",  "type",  "author",   "book",   "description"};

// Random personal schema of 2..6 nodes drawn from kVocabulary.
std::string RandomSpec(std::mt19937& rng) {
  std::uniform_int_distribution<size_t> word(0, std::size(kVocabulary) - 1);
  const int nodes = std::uniform_int_distribution<int>(2, 6)(rng);
  // parent[i] < i; children appended in order.
  std::vector<std::vector<int>> children(static_cast<size_t>(nodes));
  for (int i = 1; i < nodes; ++i) {
    children[static_cast<size_t>(
                 std::uniform_int_distribution<int>(0, i - 1)(rng))]
        .push_back(i);
  }
  std::vector<std::string> labels;
  for (int i = 0; i < nodes; ++i) labels.push_back(kVocabulary[word(rng)]);
  auto render = [&](auto&& self, int n) -> std::string {
    std::string out = labels[static_cast<size_t>(n)];
    const auto& kids = children[static_cast<size_t>(n)];
    if (kids.empty()) return out;
    out += "(";
    for (size_t k = 0; k < kids.size(); ++k) {
      if (k > 0) out += ",";
      out += self(self, kids[k]);
    }
    return out + ")";
  };
  return render(render, 0);
}

std::vector<std::vector<MappingElement>> BruteForce(
    const match::ElementMatchingResult& matching,
    const std::vector<cluster::ClusterPoint>& points,
    const cluster::Cluster& cluster) {
  std::vector<NodeRef> members;
  for (int32_t m : cluster.members) {
    members.push_back(points[static_cast<size_t>(m)].node);
  }
  std::sort(members.begin(), members.end());
  struct ByNode {
    bool operator()(const MappingElement& a, const NodeRef& b) const {
      return a.node < b;
    }
    bool operator()(const NodeRef& a, const MappingElement& b) const {
      return a < b.node;
    }
  };
  std::vector<std::vector<MappingElement>> lists(matching.sets.size());
  for (size_t n = 0; n < matching.sets.size(); ++n) {
    const auto& me = matching.sets[n].elements;
    std::set_intersection(me.begin(), me.end(), members.begin(),
                          members.end(), std::back_inserter(lists[n]),
                          ByNode());
  }
  return lists;
}

// Checks every cluster of `state`; adds the candidates seen to `*seen`.
void ExpectMatchesBruteForce(const ClusterState& state, std::mt19937& rng,
                             const std::string& context, size_t* seen) {
  for (size_t ci = 0; ci < state.clustering.clusters.size(); ++ci) {
    const cluster::Cluster& c = state.clustering.clusters[ci];
    const auto want = BruteForce(state.matching, state.points, c);
    // Member order is not part of the contract: a shuffled copy of the
    // cluster must produce the same lists.
    cluster::Cluster shuffled = c;
    std::shuffle(shuffled.members.begin(), shuffled.members.end(), rng);
    for (const cluster::Cluster* input :
         std::initializer_list<const cluster::Cluster*>{&c, &shuffled}) {
      const generate::ClusterCandidates got =
          BuildClusterCandidates(state.matching, state.points, *input);
      EXPECT_EQ(got.tree, c.tree) << context << " cluster " << ci;
      ASSERT_EQ(got.candidates.size(), want.size()) << context;
      for (size_t n = 0; n < want.size(); ++n) {
        ASSERT_EQ(got.candidates[n].size(), want[n].size())
            << context << " cluster " << ci << " node " << n;
        for (size_t i = 0; i < want[n].size(); ++i) {
          EXPECT_EQ(got.candidates[n][i].node, want[n][i].node)
              << context << " cluster " << ci << " node " << n;
          EXPECT_EQ(got.candidates[n][i].score, want[n][i].score)
              << context << " cluster " << ci << " node " << n;
        }
        *seen += want[n].size();
      }
    }
  }
}

TEST(BuildClusterCandidatesTest, MatchesSetIntersectionOnRandomStates) {
  size_t total = 0;
  for (uint64_t seed : {3u, 17u, 2006u}) {
    repo::SyntheticRepoOptions repo_options;
    repo_options.target_elements = 1500;
    repo_options.seed = seed;
    auto forest = repo::GenerateSyntheticRepository(repo_options);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    Bellflower system(&*forest);
    std::mt19937 rng(static_cast<uint32_t>(seed));
    for (int q = 0; q < 6; ++q) {
      const std::string spec = RandomSpec(rng);
      auto personal = schema::ParseTreeSpec(spec);
      ASSERT_TRUE(personal.ok()) << spec;
      for (ClusteringMode mode :
           {ClusteringMode::kKMeans, ClusteringMode::kTreeClusters}) {
        ClusterStateOptions options;
        options.clustering = mode;
        options.element.threshold =
            std::uniform_real_distribution<double>(0.4, 0.8)(rng);
        options.kmeans.join_distance =
            std::uniform_int_distribution<int>(2, 4)(rng);
        auto state = system.BuildClusterState(*personal, options);
        ASSERT_TRUE(state.ok()) << state.status().ToString();
        std::string context = "seed ";
        context.append(std::to_string(seed)).append(" ").append(spec);
        context.append(mode == ClusteringMode::kKMeans ? " kmeans" : " tree");
        ExpectMatchesBruteForce(*state, rng, context, &total);
      }
    }
  }
  EXPECT_GT(total, 0u);  // the random inputs must exercise something
}

TEST(BuildClusterCandidatesTest, MatchesSetIntersectionOnShardedMergedState) {
  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = 1800;
  repo_options.seed = 11;
  auto forest = repo::GenerateSyntheticRepository(repo_options);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  shard::ShardedOptions shard_options;
  shard_options.num_shards = 3;
  auto sharded = shard::ShardedMatchService::Create(
      *forest, service::MatchServiceOptions(), shard_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  std::mt19937 rng(11);
  size_t total = 0;
  for (int q = 0; q < 6; ++q) {
    service::MatchRequest request;
    request.id = std::to_string(q);
    const std::string spec = RandomSpec(rng);
    auto personal = schema::ParseTreeSpec(spec);
    ASSERT_TRUE(personal.ok()) << spec;
    request.personal = std::move(*personal);
    request.options.clustering = q % 2 == 0 ? ClusteringMode::kKMeans
                                            : ClusteringMode::kTreeClusters;
    auto state = (*sharded)->ClusterStateFor((*sharded)->Pin(), request);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ExpectMatchesBruteForce(**state, rng, std::string("sharded ").append(spec),
                            &total);
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace xsm::core
