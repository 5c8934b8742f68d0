// Snapshot store round-trip equivalence: a loaded snapshot must be
// indistinguishable from the one that was saved — fingerprint-identical,
// dictionary-deep-equal, index-equal on every intra-tree node pair, and
// query-for-query identical in mappings, ranks, and scores — across
// randomized forests, and across a save → load → ApplyDelta sequence
// (the warm-started generation chain keeps evolving correctly).
#include "store/snapshot_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "service/repository_snapshot.h"
#include "util/io.h"
#include "util/random.h"

namespace xsm::store {
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

std::shared_ptr<const RepositorySnapshot> MakeSnapshot(size_t elements,
                                                       uint64_t seed) {
  auto snapshot = RepositorySnapshot::Create(MakeCorpus(elements, seed));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return *snapshot;
}

void ExpectForestsEqual(const schema::SchemaForest& got,
                        const schema::SchemaForest& want) {
  ASSERT_EQ(got.num_trees(), want.num_trees());
  ASSERT_EQ(got.total_nodes(), want.total_nodes());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(want.num_trees()); ++t) {
    EXPECT_EQ(got.source(t), want.source(t)) << "tree " << t;
    const schema::SchemaTree& a = got.tree(t);
    const schema::SchemaTree& b = want.tree(t);
    ASSERT_EQ(a.size(), b.size()) << "tree " << t;
    for (schema::NodeId n = 0; n < static_cast<schema::NodeId>(b.size());
         ++n) {
      ASSERT_EQ(a.parent(n), b.parent(n)) << "tree " << t << " node " << n;
      ASSERT_EQ(a.children(n), b.children(n))
          << "tree " << t << " node " << n;
      const schema::NodeProperties& pa = a.props(n);
      const schema::NodeProperties& pb = b.props(n);
      ASSERT_EQ(pa.name, pb.name) << "tree " << t << " node " << n;
      ASSERT_EQ(pa.kind, pb.kind) << "tree " << t << " node " << n;
      ASSERT_EQ(pa.datatype, pb.datatype) << "tree " << t << " node " << n;
      ASSERT_EQ(pa.repeatable, pb.repeatable)
          << "tree " << t << " node " << n;
      ASSERT_EQ(pa.optional, pb.optional) << "tree " << t << " node " << n;
    }
  }
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
    for (size_t bucket = 0; bucket < sim::NameSignature::kBuckets;
         ++bucket) {
      ASSERT_EQ(a.signature.counts[bucket], b.signature.counts[bucket])
          << "entry " << i << " bucket " << bucket;
    }
    EXPECT_EQ(a.element_nodes, b.element_nodes) << "entry " << i;
    EXPECT_EQ(a.attribute_nodes, b.attribute_nodes) << "entry " << i;
    EXPECT_EQ(a.representative, b.representative) << "entry " << i;
    EXPECT_EQ(got.Find(a.name), i);
  }
  // The derived per-node table resolves identically too.
  const schema::SchemaForest& forest = *want.forest();
  forest.ForEachNode([&](schema::NodeRef ref) {
    ASSERT_EQ(got.EntryOf(ref), want.EntryOf(ref))
        << "tree " << ref.tree << " node " << ref.node;
  });
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
        ASSERT_EQ(a.IsAncestorOrSelf(u, v), b.IsAncestorOrSelf(u, v))
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

/// The full round-trip check: `loaded` must be indistinguishable from
/// `original` to every consumer.
void ExpectRoundTripEquivalent(
    const std::shared_ptr<const RepositorySnapshot>& loaded,
    const std::shared_ptr<const RepositorySnapshot>& original) {
  EXPECT_EQ(loaded->generation(), original->generation());
  EXPECT_EQ(loaded->fingerprint(), original->fingerprint());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(original->num_trees()); ++t) {
    EXPECT_EQ(loaded->tree_fingerprint(t), original->tree_fingerprint(t))
        << "tree " << t;
  }
  ExpectForestsEqual(loaded->forest(), original->forest());
  ExpectDictionariesEqual(loaded->name_dictionary(),
                          original->name_dictionary());
  ExpectIndexesEqual(loaded->index(), original->index(), original->forest());

  // Query-for-query: identical mappings, ranks, and scores.
  MatchService warm(loaded);
  MatchService cold(original);
  for (size_t s = 0; s < kNumSpecs; ++s) {
    MatchRequest query;
    query.id = "rt-" + std::to_string(s);
    query.personal = *schema::ParseTreeSpec(kSpecs[s]);
    query.options.delta = 0.6;
    query.options.top_n = 10;
    auto got = warm.Run(query);
    auto want = cold.Run(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameMatchResults(got->result, want->result);
  }
}

TEST(SnapshotStoreTest, ProbeReportsHeaderFacts) {
  std::shared_ptr<const RepositorySnapshot> snapshot = MakeSnapshot(300, 7);
  std::string bytes = SerializeSnapshot(*snapshot);
  auto info = ProbeSnapshot(bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, kFormatVersion);
  EXPECT_EQ(info->generation, 0u);
  EXPECT_EQ(info->fingerprint, snapshot->fingerprint());
  EXPECT_EQ(info->trees, snapshot->num_trees());
  EXPECT_EQ(info->total_nodes, snapshot->total_nodes());
  EXPECT_EQ(info->total_bytes, bytes.size());
}

// The acceptance-criterion suite: randomized forests, in-memory round
// trip, every derived structure and every query identical.
TEST(SnapshotStoreTest, RandomizedRoundTripIsEquivalent) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::shared_ptr<const RepositorySnapshot> original =
        MakeSnapshot(350, seed);
    std::string bytes = SerializeSnapshot(*original);
    auto loaded = DeserializeSnapshot(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectRoundTripEquivalent(*loaded, original);
    // Nothing was rebuilt on load.
    EXPECT_EQ((*loaded)->build_stats().trees_rebuilt, 0u);
    EXPECT_EQ((*loaded)->build_stats().name_entries_computed, 0u);
  }
}

TEST(SnapshotStoreTest, FileRoundTripSurvivesSaveAndLoad) {
  std::shared_ptr<const RepositorySnapshot> original = MakeSnapshot(400, 41);
  const std::string path =
      testing::TempDir() + "/xsm_store_roundtrip.snap";
  auto saved = SaveSnapshotToFile(*original, path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->fingerprint, original->fingerprint());
  EXPECT_GT(saved->total_bytes, 0u);

  auto probed = ProbeSnapshotFile(path);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_EQ(probed->total_bytes, saved->total_bytes);

  auto loaded = LoadSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectRoundTripEquivalent(*loaded, original);
  std::remove(path.c_str());
}

TEST(SnapshotStoreTest, MissingFileIsIOError) {
  auto loaded = LoadSnapshotFromFile(testing::TempDir() +
                                     "/definitely_not_there.snap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// Warm start continues the generation chain: save generation g, load it,
// apply deltas — the warm-started manager's generations g+1, g+2, ... are
// equivalent to the same deltas applied to the never-persisted original.
TEST(SnapshotStoreTest, SaveLoadApplyDeltaMatchesUninterruptedChain) {
  for (uint64_t seed : {51u, 52u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto cold_manager = live::RepositoryManager::Create(
        MakeCorpus(350, seed));
    ASSERT_TRUE(cold_manager.ok()) << cold_manager.status().ToString();
    schema::SchemaForest donors = MakeCorpus(120, seed + 100);
    Rng rng(seed * 7919);

    // Advance the original chain a couple of generations before saving, so
    // the persisted generation is not 0.
    auto advance = [&](live::RepositoryManager* manager) {
      std::shared_ptr<const RepositorySnapshot> current = manager->Current();
      live::DeltaBuilder builder;
      schema::TreeId victim = static_cast<schema::TreeId>(
          rng.Uniform(current->num_trees()));
      schema::SchemaTree mutated(current->forest().tree(victim));
      schema::NodeProperties* props = mutated.mutable_props(
          static_cast<schema::NodeId>(rng.Uniform(mutated.size())));
      props->name += "W";
      builder.ReplaceTree(victim, std::move(mutated));
      auto report = manager->Apply(*builder.Build());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    };
    advance(cold_manager->get());
    advance(cold_manager->get());
    const uint64_t saved_generation =
        (*cold_manager)->CurrentGeneration();
    ASSERT_EQ(saved_generation, 2u);

    const std::string path = testing::TempDir() + "/xsm_store_chain_" +
                             std::to_string(seed) + ".snap";
    auto saved = store::SaveSnapshotToFile(*(*cold_manager)->Current(), path);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_EQ(saved->generation, saved_generation);

    auto warm_manager = live::RepositoryManager::Recover(
        util::io::Env::Default(), path, /*wal_path=*/"");
    ASSERT_TRUE(warm_manager.ok()) << warm_manager.status().ToString();
    EXPECT_EQ((*warm_manager)->CurrentGeneration(), saved_generation);
    ExpectRoundTripEquivalent((*warm_manager)->Current(),
                              (*cold_manager)->Current());

    // Same deltas on both chains, two more rounds: one add + one replace.
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::shared_ptr<const RepositorySnapshot> current =
          (*cold_manager)->Current();
      live::DeltaBuilder cold_builder;
      live::DeltaBuilder warm_builder;
      schema::TreeId donor = static_cast<schema::TreeId>(round);
      cold_builder.AddTree(donors.tree_ptr(donor), "donor");
      warm_builder.AddTree(donors.tree_ptr(donor), "donor");
      schema::TreeId victim = static_cast<schema::TreeId>(
          rng.Uniform(current->num_trees()));
      schema::SchemaTree mutated(current->forest().tree(victim));
      schema::NodeProperties* props = mutated.mutable_props(
          static_cast<schema::NodeId>(rng.Uniform(mutated.size())));
      props->name += "X" + std::to_string(round);
      cold_builder.ReplaceTree(victim, schema::SchemaTree(mutated));
      warm_builder.ReplaceTree(victim, std::move(mutated));

      auto cold_report = (*cold_manager)->Apply(*cold_builder.Build());
      auto warm_report = (*warm_manager)->Apply(*warm_builder.Build());
      ASSERT_TRUE(cold_report.ok()) << cold_report.status().ToString();
      ASSERT_TRUE(warm_report.ok()) << warm_report.status().ToString();
      // The chain really continued from the persisted generation, and the
      // loaded snapshot's shared state supported copy-on-write reuse just
      // like an in-memory one.
      EXPECT_EQ(warm_report->generation,
                saved_generation + static_cast<uint64_t>(round) + 1);
      EXPECT_EQ(warm_report->generation, cold_report->generation);
      EXPECT_EQ(warm_report->trees_reused, cold_report->trees_reused);
      EXPECT_GT(warm_report->trees_reused, 0u);
      EXPECT_EQ(warm_report->fingerprint, cold_report->fingerprint);
      ExpectRoundTripEquivalent((*warm_manager)->Current(),
                                (*cold_manager)->Current());
    }
    std::remove(path.c_str());
  }
}

// MatchService-level warm boot: SaveSnapshot on one service, boot a second
// one from the file (Recover without a journal), and both serve identical results; the warm
// service keeps ingesting deltas from the persisted generation.
TEST(SnapshotStoreTest, MatchServiceWarmStartServesIdenticalResults) {
  auto cold = MatchService::Create(MakeCorpus(400, 61));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  const std::string path = testing::TempDir() + "/xsm_store_service.snap";
  auto saved = (*cold)->SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();

  auto warm = MatchService::Recover(util::io::Env::Default(), path,
                                   /*wal_path=*/"");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ((*warm)->CurrentGeneration(), 0u);
  EXPECT_EQ((*warm)->CurrentSnapshot()->fingerprint(),
            (*cold)->CurrentSnapshot()->fingerprint());

  for (size_t s = 0; s < kNumSpecs; ++s) {
    MatchRequest query;
    query.id = "svc-" + std::to_string(s);
    query.personal = *schema::ParseTreeSpec(kSpecs[s]);
    query.options.delta = 0.6;
    auto got = (*warm)->Run(query);
    auto want = (*cold)->Run(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameMatchResults(got->result, want->result);
  }

  live::DeltaBuilder builder;
  builder.AddTree(*schema::ParseTreeSpec("invoice(total,customer)"),
                  "feed:invoice");
  auto report = (*warm)->ApplyDelta(*builder.Build());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_GT(report->trees_reused, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xsm::store
