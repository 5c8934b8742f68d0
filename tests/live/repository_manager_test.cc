// RepositoryManager: generation semantics, copy-on-write reuse, and the
// incremental-equivalence suite — an incrementally maintained snapshot must
// be indistinguishable (fingerprint, name dictionary, structural index,
// and query-for-query match results) from a snapshot built from scratch on
// the post-delta forest, across add/replace/remove deltas and randomized
// forests.
#include "live/repository_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "live/repository_delta.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "service/repository_snapshot.h"
#include "util/random.h"

namespace xsm::live {
namespace {

using service::MatchRequest;
using service::MatchService;
using service::RepositorySnapshot;

const char* kSpecs[] = {
    "name(address,email)",
    "person(name,phone)",
    "book(title,author)",
    "customer(name,address(city,zip))",
};
constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);

schema::SchemaForest MakeCorpus(size_t elements, uint64_t seed) {
  repo::SyntheticRepoOptions options;
  options.target_elements = elements;
  options.seed = seed;
  auto forest = repo::GenerateSyntheticRepository(options);
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

/// Deep copy: fresh payload objects with equal content, so comparisons can
/// never pass by pointer identity alone.
schema::SchemaForest DeepCopy(const schema::SchemaForest& forest) {
  schema::SchemaForest copy;
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
    copy.AddTree(schema::SchemaTree(forest.tree(t)), forest.source(t));
  }
  return copy;
}

/// A content-visible mutation of one tree: rename one node and flip one
/// optionality bit.
schema::SchemaTree MutateTree(const schema::SchemaTree& tree, Rng* rng) {
  schema::SchemaTree mutated = tree;
  schema::NodeId victim = static_cast<schema::NodeId>(
      rng->Uniform(static_cast<uint64_t>(tree.size())));
  schema::NodeProperties* props = mutated.mutable_props(victim);
  props->name += "V2";
  props->optional = !props->optional;
  return mutated;
}

void ExpectDictionariesEqual(const match::NameDictionary& got,
                             const match::NameDictionary& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.total_nodes(), want.total_nodes());
  for (size_t i = 0; i < got.size(); ++i) {
    const match::NameDictionary::Entry& a = got.entry(i);
    const match::NameDictionary::Entry& b = want.entry(i);
    EXPECT_EQ(a.name, b.name) << "entry " << i;
    EXPECT_EQ(a.lower, b.lower) << "entry " << i;
    EXPECT_EQ(a.element_nodes, b.element_nodes) << "entry " << i;
    EXPECT_EQ(a.attribute_nodes, b.attribute_nodes) << "entry " << i;
    EXPECT_EQ(a.representative, b.representative) << "entry " << i;
    EXPECT_EQ(got.Find(a.name), i);
  }
}

void ExpectIndexesEqual(const label::ForestIndex& got,
                        const label::ForestIndex& want,
                        const schema::SchemaForest& forest) {
  ASSERT_EQ(got.num_trees(), want.num_trees());
  EXPECT_EQ(got.max_diameter(), want.max_diameter());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
    const label::TreeIndex& a = got.tree(t);
    const label::TreeIndex& b = want.tree(t);
    ASSERT_EQ(a.num_nodes(), b.num_nodes()) << "tree " << t;
    EXPECT_EQ(a.diameter(), b.diameter()) << "tree " << t;
    EXPECT_EQ(a.height(), b.height()) << "tree " << t;
    const schema::NodeId n =
        static_cast<schema::NodeId>(forest.tree(t).size());
    for (schema::NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(a.depth(u), b.depth(u)) << "tree " << t << " node " << u;
      for (schema::NodeId v = u; v < n; ++v) {
        ASSERT_EQ(a.Distance(u, v), b.Distance(u, v))
            << "tree " << t << " pair (" << u << "," << v << ")";
        ASSERT_EQ(a.Lca(u, v), b.Lca(u, v))
            << "tree " << t << " pair (" << u << "," << v << ")";
      }
    }
  }
}

void ExpectSameMatchResults(const core::MatchResult& got,
                            const core::MatchResult& want) {
  ASSERT_EQ(got.mappings.size(), want.mappings.size());
  for (size_t i = 0; i < got.mappings.size(); ++i) {
    const generate::SchemaMapping& a = got.mappings[i];
    const generate::SchemaMapping& b = want.mappings[i];
    ASSERT_EQ(a.tree, b.tree) << "rank " << i;
    ASSERT_EQ(a.images, b.images) << "rank " << i;
    ASSERT_EQ(a.delta, b.delta) << "rank " << i;
    ASSERT_EQ(a.delta_sim, b.delta_sim) << "rank " << i;
    ASSERT_EQ(a.delta_path, b.delta_path) << "rank " << i;
  }
  EXPECT_EQ(got.stats.num_mappings, want.stats.num_mappings);
  EXPECT_EQ(got.stats.num_clusters, want.stats.num_clusters);
}

/// The full equivalence check: `snapshot` (incrementally maintained) versus
/// a from-scratch snapshot over a deep copy of the same forest.
void ExpectEquivalentToScratch(
    const std::shared_ptr<const RepositorySnapshot>& snapshot) {
  auto scratch = RepositorySnapshot::Create(DeepCopy(snapshot->forest()));
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  // Content fingerprint: equal despite entirely different payload objects.
  EXPECT_EQ(snapshot->fingerprint(), (*scratch)->fingerprint());

  ExpectDictionariesEqual(snapshot->name_dictionary(),
                          (*scratch)->name_dictionary());
  ExpectIndexesEqual(snapshot->index(), (*scratch)->index(),
                     snapshot->forest());

  // Query-for-query: identical mappings, ranks, and scores.
  MatchService incremental(snapshot);
  MatchService fresh(*scratch);
  for (size_t s = 0; s < kNumSpecs; ++s) {
    MatchRequest query;
    query.id = "eq-" + std::to_string(s);
    query.personal = *schema::ParseTreeSpec(kSpecs[s]);
    query.options.delta = 0.6;
    query.options.top_n = 10;
    auto got = incremental.Run(query);
    auto want = fresh.Run(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameMatchResults(got->result, want->result);
  }
}

TEST(RepositoryManagerTest, GenerationChainAndAtomicSwap) {
  auto manager = RepositoryManager::Create(MakeCorpus(400, 11));
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  std::shared_ptr<const RepositorySnapshot> gen0 = (*manager)->Current();
  EXPECT_EQ(gen0->generation(), 0u);
  EXPECT_EQ((*manager)->CurrentGeneration(), 0u);

  DeltaBuilder builder;
  builder.AddTree(*schema::ParseTreeSpec("invoice(total,customer)"),
                  "feed:invoice");
  auto report = (*manager)->Apply(*builder.Build());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_EQ((*manager)->CurrentGeneration(), 1u);

  // The old snapshot is untouched and still fully usable; the new one is a
  // different object with the old trees shared.
  std::shared_ptr<const RepositorySnapshot> gen1 = (*manager)->Current();
  ASSERT_NE(gen0, gen1);
  EXPECT_EQ(gen0->generation(), 0u);
  EXPECT_EQ(gen0->num_trees() + 1, gen1->num_trees());
  EXPECT_NE(gen0->fingerprint(), gen1->fingerprint());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(gen0->num_trees()); ++t) {
    EXPECT_EQ(gen0->forest().tree_ptr(t), gen1->forest().tree_ptr(t));
    EXPECT_EQ(gen0->tree_fingerprint(t), gen1->tree_fingerprint(t));
  }
  EXPECT_EQ(report->trees_reused, gen0->num_trees());
  EXPECT_EQ(report->trees_rebuilt, 1u);
}

TEST(RepositoryManagerTest, UntouchedTreesShareIndexState) {
  auto manager = RepositoryManager::Create(MakeCorpus(600, 12));
  ASSERT_TRUE(manager.ok());
  std::shared_ptr<const RepositorySnapshot> gen0 = (*manager)->Current();
  const size_t trees = gen0->num_trees();
  ASSERT_GE(trees, 3u);

  Rng rng(1);
  DeltaBuilder builder;
  builder.ReplaceTree(0, MutateTree(gen0->forest().tree(0), &rng));
  auto report = (*manager)->Apply(*builder.Build());
  ASSERT_TRUE(report.ok());
  std::shared_ptr<const RepositorySnapshot> gen1 = (*manager)->Current();

  // Exactly one tree was rebuilt; every other tree's labeling structure is
  // the same shared object, not a recomputed copy.
  EXPECT_EQ(report->trees_rebuilt, 1u);
  EXPECT_EQ(report->trees_reused, trees - 1);
  EXPECT_NE(gen1->index().tree_ptr(0), gen0->index().tree_ptr(0));
  for (schema::TreeId t = 1; t < static_cast<schema::TreeId>(trees); ++t) {
    EXPECT_EQ(gen1->index().tree_ptr(t), gen0->index().tree_ptr(t)) << t;
  }
  // The dictionary recomputed folds only for vocabulary the mutation
  // introduced (the "V2" rename), never for carried-over names.
  EXPECT_LE(report->name_entries_computed, 1u);
  EXPECT_GT(report->name_entries_copied, 0u);
}

TEST(RepositoryManagerTest, ApplyErrorLeavesCurrentUnchanged) {
  auto manager = RepositoryManager::Create(MakeCorpus(300, 13));
  ASSERT_TRUE(manager.ok());
  std::shared_ptr<const RepositorySnapshot> before = (*manager)->Current();

  DeltaBuilder builder;
  builder.RemoveTree(static_cast<schema::TreeId>(before->num_trees()));
  auto report = (*manager)->Apply(*builder.Build());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ((*manager)->Current(), before);
  EXPECT_EQ((*manager)->CurrentGeneration(), 0u);
}

TEST(RepositoryManagerTest, SuccessorRejectsForgedReuseMap) {
  auto snapshot = RepositorySnapshot::Create(MakeCorpus(300, 14));
  ASSERT_TRUE(snapshot.ok());
  // A forest whose tree 0 merely *equals* the base tree 0 (deep copy, no
  // sharing) must not pass as "reused": the certificate is payload
  // identity.
  schema::SchemaForest forged = DeepCopy((*snapshot)->forest());
  std::vector<schema::TreeId> reuse_map(forged.num_trees());
  for (size_t t = 0; t < reuse_map.size(); ++t) {
    reuse_map[t] = static_cast<schema::TreeId>(t);
  }
  auto successor =
      RepositorySnapshot::CreateSuccessor(*snapshot, std::move(forged),
                                          reuse_map);
  ASSERT_FALSE(successor.ok());
  EXPECT_EQ(successor.status().code(), StatusCode::kInvalidArgument);
}

// The acceptance-criterion suite: randomized forests, randomized
// add/replace/remove deltas, every generation checked equivalent to a
// from-scratch build.
TEST(RepositoryManagerTest, RandomizedDeltasStayEquivalentToScratch) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto manager = RepositoryManager::Create(MakeCorpus(350, seed));
    ASSERT_TRUE(manager.ok());
    // Donor corpus supplying genuinely new trees for adds.
    schema::SchemaForest donors = MakeCorpus(200, seed + 100);
    Rng rng(seed * 977);

    size_t next_donor = 0;
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::shared_ptr<const RepositorySnapshot> current =
          (*manager)->Current();
      const size_t trees = current->num_trees();
      ASSERT_GT(trees, 0u);

      DeltaBuilder builder;
      // One of each kind per round, targets drawn at random (distinct by
      // construction: replace draws from the front half, remove from the
      // back half).
      if (next_donor < donors.num_trees()) {
        builder.AddTree(
            donors.tree_ptr(static_cast<schema::TreeId>(next_donor)),
            "donor:" + std::to_string(next_donor));
        ++next_donor;
      }
      schema::TreeId replace_target =
          static_cast<schema::TreeId>(rng.Uniform(trees / 2 + 1));
      builder.ReplaceTree(replace_target,
                          MutateTree(current->forest().tree(replace_target),
                                     &rng));
      // The back-half window [trees/2 + 1, trees - 1) is empty below five
      // trees (Uniform would get a zero bound); skip the removal then.
      if (trees >= 5) {
        schema::TreeId remove_target = static_cast<schema::TreeId>(
            trees / 2 + 1 + rng.Uniform(trees - trees / 2 - 2));
        builder.RemoveTree(remove_target);
      }
      auto delta = builder.Build();
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();

      auto report = (*manager)->Apply(*delta);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->generation, static_cast<uint64_t>(round + 1));
      // Copy-on-write really happened: untouched trees were not rebuilt.
      EXPECT_EQ(report->trees_rebuilt,
                delta->num_adds() + delta->num_replaces());
      EXPECT_EQ(report->trees_reused,
                trees - delta->num_replaces() - delta->num_removes());

      ExpectEquivalentToScratch((*manager)->Current());
    }
  }
}

}  // namespace
}  // namespace xsm::live
