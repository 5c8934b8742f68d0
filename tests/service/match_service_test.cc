#include "service/match_service.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bellflower.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"

namespace xsm::service {
namespace {

// Personal schemas for the batch tests: distinct shapes and vocabularies so
// each query produces its own cluster state and result set.
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

class MatchServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo::SyntheticRepoOptions options;
    options.target_elements = 2000;
    options.seed = 7;
    auto forest = repo::GenerateSyntheticRepository(options);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    forest_ = new schema::SchemaForest(std::move(*forest));
    direct_ = new core::Bellflower(forest_);
  }

  static void TearDownTestSuite() {
    delete direct_;
    direct_ = nullptr;
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

  static std::unique_ptr<MatchService> MakeService(
      MatchServiceOptions options = MatchServiceOptions()) {
    auto snapshot = RepositorySnapshot::Create(*forest_);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    return std::make_unique<MatchService>(std::move(*snapshot), options);
  }

  // Byte-identical comparison: same assignments AND the exact same doubles.
  static void ExpectSameResults(const core::MatchResult& got,
                                const core::MatchResult& want) {
    ASSERT_EQ(got.mappings.size(), want.mappings.size());
    for (size_t i = 0; i < got.mappings.size(); ++i) {
      const generate::SchemaMapping& a = got.mappings[i];
      const generate::SchemaMapping& b = want.mappings[i];
      EXPECT_EQ(a.tree, b.tree) << "mapping " << i;
      EXPECT_EQ(a.images, b.images) << "mapping " << i;
      EXPECT_EQ(a.delta, b.delta) << "mapping " << i;
      EXPECT_EQ(a.delta_sim, b.delta_sim) << "mapping " << i;
      EXPECT_EQ(a.delta_path, b.delta_path) << "mapping " << i;
      EXPECT_EQ(a.total_path_length, b.total_path_length) << "mapping " << i;
    }
    EXPECT_EQ(got.stats.num_mappings, want.stats.num_mappings);
    EXPECT_EQ(got.stats.num_clusters, want.stats.num_clusters);
    EXPECT_EQ(got.stats.num_useful_clusters, want.stats.num_useful_clusters);
  }

  static schema::SchemaForest* forest_;
  static core::Bellflower* direct_;
};

schema::SchemaForest* MatchServiceTest::forest_ = nullptr;
core::Bellflower* MatchServiceTest::direct_ = nullptr;

TEST_F(MatchServiceTest, MatchEqualsDirectBellflower) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("q0", kSpecs[0]);

  auto via_service = service->Run(query);
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();
  auto via_direct = direct_->Match(query.personal, query.options);
  ASSERT_TRUE(via_direct.ok()) << via_direct.status().ToString();

  EXPECT_FALSE(via_service->result.mappings.empty());
  ExpectSameResults(via_service->result, *via_direct);
}

// The PR's acceptance criterion: a batch of >= 8 queries on >= 4 threads
// produces byte-identical mappings, in input order, to sequential direct
// Bellflower::Match calls.
TEST_F(MatchServiceTest, BatchOnFourThreadsIsByteIdenticalAndInOrder) {
  MatchServiceOptions options;
  options.num_threads = 4;
  auto service = MakeService(options);

  std::vector<MatchRequest> queries;
  for (size_t i = 0; i < kNumSpecs; ++i) {
    queries.push_back(MakeQuery("batch-" + std::to_string(i), kSpecs[i]));
  }
  ASSERT_GE(queries.size(), 8u);

  std::vector<Result<core::MatchResult>> batch =
      service->RunBatch(queries).results;
  ASSERT_EQ(batch.size(), queries.size());

  size_t nonempty = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    auto direct = direct_->Match(queries[i].personal, queries[i].options);
    ASSERT_TRUE(direct.ok());
    ExpectSameResults(*batch[i], *direct);  // order: result i is query i
    if (!batch[i]->mappings.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u);
  EXPECT_EQ(service->stats().queries, queries.size());
  EXPECT_EQ(service->stats().batches, 1u);
}

TEST_F(MatchServiceTest, RepeatedQueryHitsClusterCache) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("repeat", kSpecs[1]);

  auto first = service->Run(query);
  ASSERT_TRUE(first.ok());
  auto second = service->Run(query);
  ASSERT_TRUE(second.ok());
  ExpectSameResults(second->result, first->result);

  ClusterIndexCache::Stats cache = service->stats().cache;
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.entries, 1u);
}

TEST_F(MatchServiceTest, GenerationOnlyOptionsShareClusterState) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("gen-a", kSpecs[2]);
  ASSERT_TRUE(service->Run(query).ok());

  // δ and top-N only affect the generation phase: same cache entry.
  MatchRequest variant = query;
  variant.id = "gen-b";
  variant.options.delta = 0.8;
  variant.options.top_n = 3;
  EXPECT_EQ(service->ClusterStateKey(variant),
            service->ClusterStateKey(query));
  ASSERT_TRUE(service->Run(variant).ok());
  EXPECT_EQ(service->stats().cache.misses, 1u);
  EXPECT_EQ(service->stats().cache.hits, 1u);

  // A clustering knob (join distance) changes the key: new entry.
  MatchRequest reclustered = query;
  reclustered.id = "gen-c";
  reclustered.options.kmeans.join_distance = 4;
  EXPECT_NE(service->ClusterStateKey(reclustered),
            service->ClusterStateKey(query));
  ASSERT_TRUE(service->Run(reclustered).ok());
  EXPECT_EQ(service->stats().cache.misses, 2u);
}

TEST_F(MatchServiceTest, TreeClusterBaselineIgnoresKMeansKnobs) {
  auto service = MakeService();
  MatchRequest a = MakeQuery("tree-a", kSpecs[3]);
  a.options.clustering = core::ClusteringMode::kTreeClusters;
  MatchRequest b = a;
  b.id = "tree-b";
  b.options.kmeans.join_distance = 2;
  EXPECT_EQ(service->ClusterStateKey(a), service->ClusterStateKey(b));
}

TEST_F(MatchServiceTest, SubmitResolvesToSameResult) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("async", kSpecs[4]);

  MatchHandle handle = service->Submit(service->Pin(), query);
  auto async_result = handle.Get();
  ASSERT_TRUE(async_result.ok()) << async_result.status().ToString();
  EXPECT_EQ(async_result->execution, core::ExecutionStatus::kCompleted);
  auto direct = direct_->Match(query.personal, query.options);
  ASSERT_TRUE(direct.ok());
  ExpectSameResults(*async_result, *direct);
}

TEST_F(MatchServiceTest, IdenticalQueriesInBatchComputeStateOnce) {
  MatchServiceOptions options;
  options.num_threads = 8;
  auto service = MakeService(options);

  std::vector<MatchRequest> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(MakeQuery("same-" + std::to_string(i), kSpecs[5]));
  }
  auto results = service->RunBatch(std::move(queries)).results;

  ASSERT_TRUE(results[0].ok());
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    ExpectSameResults(*results[i], *results[0]);
  }
  ClusterIndexCache::Stats cache = service->stats().cache;
  EXPECT_EQ(cache.misses, 1u);  // one build; everyone else hit or shared it
  EXPECT_EQ(cache.hits + cache.shared, 15u);
}

TEST_F(MatchServiceTest, ClusterStateKeyCoversEveryStateField) {
  auto service = MakeService();
  const MatchRequest query = MakeQuery("key-base", kSpecs[6]);
  ASSERT_EQ(query.options.clustering, core::ClusteringMode::kKMeans);
  const std::string base_key = service->ClusterStateKey(query);

  // Every field that shapes the cluster state, each changed on its own.
  using Edit = std::function<void(core::MatchOptions*)>;
  const std::vector<std::pair<const char*, Edit>> element_edits = {
      {"element.threshold",
       [](core::MatchOptions* o) { o->element.threshold += 0.1; }},
      {"element.match_attributes",
       [](core::MatchOptions* o) {
         o->element.match_attributes = !o->element.match_attributes;
       }},
  };
  const std::vector<std::pair<const char*, Edit>> kmeans_edits = {
      {"kmeans.join_reclustering",
       [](core::MatchOptions* o) {
         o->kmeans.join_reclustering = !o->kmeans.join_reclustering;
       }},
      {"kmeans.join_distance",
       [](core::MatchOptions* o) { o->kmeans.join_distance += 1; }},
      {"kmeans.remove_reclustering",
       [](core::MatchOptions* o) {
         o->kmeans.remove_reclustering = !o->kmeans.remove_reclustering;
       }},
      {"kmeans.min_cluster_size",
       [](core::MatchOptions* o) { o->kmeans.min_cluster_size += 1; }},
      {"kmeans.convergence_fraction",
       [](core::MatchOptions* o) { o->kmeans.convergence_fraction *= 2; }},
      {"kmeans.max_iterations",
       [](core::MatchOptions* o) { o->kmeans.max_iterations += 1; }},
  };

  std::set<std::string> keys = {base_key};
  for (const auto* edits : {&element_edits, &kmeans_edits}) {
    for (const auto& [field, edit] : *edits) {
      MatchRequest variant = query;
      edit(&variant.options);
      const std::string key = service->ClusterStateKey(variant);
      EXPECT_NE(key, base_key) << field;
      EXPECT_TRUE(keys.insert(key).second) << field << " collides";
    }
  }

  // The tree-clusters baseline ignores every k-means field.
  MatchRequest tree = query;
  tree.options.clustering = core::ClusteringMode::kTreeClusters;
  const std::string tree_key = service->ClusterStateKey(tree);
  EXPECT_NE(tree_key, base_key);
  for (const auto& [field, edit] : kmeans_edits) {
    MatchRequest variant = tree;
    edit(&variant.options);
    EXPECT_EQ(service->ClusterStateKey(variant), tree_key) << field;
  }

  // The request id labels results and never changes the key.
  for (const MatchRequest& request : {query, tree}) {
    MatchRequest renamed = request;
    renamed.id = "key-renamed";
    EXPECT_EQ(service->ClusterStateKey(renamed),
              service->ClusterStateKey(request));
  }
}

TEST_F(MatchServiceTest, DisabledCacheStillCorrect) {
  MatchServiceOptions options;
  options.cluster_cache_capacity = 0;
  auto service = MakeService(options);
  MatchRequest query = MakeQuery("nocache", kSpecs[7]);

  auto first = service->Run(query);
  auto second = service->Run(query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResults(second->result, first->result);
  EXPECT_EQ(service->stats().cache.misses, 2u);
  EXPECT_EQ(service->stats().cache.entries, 0u);
}

TEST_F(MatchServiceTest, InvalidQueryPropagatesStatus) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("bad", kSpecs[0]);
  query.options.delta = 1.5;
  auto outcome = service->Run(query);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  // Rejected before the expensive build: nothing computed, nothing cached.
  EXPECT_EQ(service->stats().cache.misses, 0u);
  EXPECT_EQ(service->stats().cache.entries, 0u);
}

TEST_F(MatchServiceTest, DelimiterNamesDoNotCollideInCacheKey) {
  auto service = MakeService();
  // ':' is legal in XML names (namespaces). Unprefixed concatenation would
  // serialize both of these children as "...a:0:b:0::00;" — one cache key
  // for two different schemas; length-prefixing keeps them distinct.
  MatchRequest a = MakeQuery("colon-a", "root(child)");
  a.personal.mutable_props(1)->name = "a:0:b";
  MatchRequest b = MakeQuery("colon-b", "root(child)");
  b.personal.mutable_props(1)->name = "a";
  b.personal.mutable_props(1)->datatype = "b:0:";
  EXPECT_NE(service->ClusterStateKey(a), service->ClusterStateKey(b));
}

TEST_F(MatchServiceTest, InjectsSnapshotDictionaryAndMatchingPool) {
  MatchServiceOptions options;
  options.matching_threads = 2;
  auto service = MakeService(options);

  // EffectiveOptions wires the snapshot's name dictionary and the dedicated
  // matching pool into every query that didn't bring its own.
  MatchRequest query = MakeQuery("plumbed", kSpecs[0]);
  core::MatchOptions effective = service->EffectiveOptions(query);
  EXPECT_EQ(effective.element.dictionary,
            &service->CurrentSnapshot()->name_dictionary());
  ASSERT_NE(effective.element.pool, nullptr);
  EXPECT_EQ(effective.element.pool->num_threads(), 2u);

  // The plumbing is result-neutral: byte-identical to the direct pipeline
  // and to a serial-matching service, including through RunBatch.
  auto serial_service = MakeService();
  std::vector<MatchRequest> queries;
  for (size_t s = 0; s < kNumSpecs; ++s) {
    queries.push_back(MakeQuery("plumb-" + std::to_string(s), kSpecs[s]));
  }
  auto parallel_results = service->RunBatch(queries).results;
  auto serial_results = serial_service->RunBatch(queries).results;
  ASSERT_EQ(parallel_results.size(), serial_results.size());
  for (size_t i = 0; i < parallel_results.size(); ++i) {
    ASSERT_TRUE(parallel_results[i].ok());
    ASSERT_TRUE(serial_results[i].ok());
    ExpectSameResults(*parallel_results[i], *serial_results[i]);
    // Strip the injected plumbing for the direct run: the snapshot's
    // dictionary indexes the snapshot's forest copy, not `forest_`, and a
    // transient dictionary must give the same answer anyway.
    core::MatchOptions direct_options = service->EffectiveOptions(queries[i]);
    direct_options.element.dictionary = nullptr;
    direct_options.element.pool = nullptr;
    auto direct = direct_->Match(queries[i].personal, direct_options);
    ASSERT_TRUE(direct.ok());
    ExpectSameResults(*parallel_results[i], *direct);
  }
}

TEST_F(MatchServiceTest, QuerySuppliedElementControlCannotPoisonCache) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("ctl", kSpecs[0]);
  core::ExecutionControl cancelled;
  cancelled.cancel.Cancel();
  query.options.element.control = &cancelled;
  // The service strips the element-stage control: the cached build always
  // completes, the query succeeds, and the cancelled control never reaches
  // a build that other queries could share.
  EXPECT_EQ(service->EffectiveOptions(query).element.control, nullptr);
  auto outcome = service->Run(query);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->result.execution, core::ExecutionStatus::kCompleted);
  EXPECT_FALSE(outcome->result.mappings.empty());
}

TEST_F(MatchServiceTest, SnapshotDictionaryMatchesForest) {
  auto service = MakeService();
  std::shared_ptr<const RepositorySnapshot> snapshot =
      service->CurrentSnapshot();
  const match::NameDictionary& dict = snapshot->name_dictionary();
  EXPECT_EQ(dict.forest(), &snapshot->forest());
  EXPECT_EQ(dict.total_nodes(), snapshot->total_nodes());
  EXPECT_GT(dict.size(), 0u);
  EXPECT_LE(dict.size(), dict.total_nodes());
}

TEST_F(MatchServiceTest, CreateValidatesForest) {
  schema::SchemaForest empty;
  auto service = MatchService::Create(std::move(empty));
  ASSERT_TRUE(service.ok());  // empty repository is valid, just matchless
  MatchRequest query = MakeQuery("empty", kSpecs[0]);
  auto outcome = (*service)->Run(query);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->result.mappings.empty());
}

// --- Evolving repositories (live::ApplyDelta through the service). --------

TEST_F(MatchServiceTest, ApplyDeltaPublishesNewGeneration) {
  auto service = MakeService();
  EXPECT_EQ(service->CurrentGeneration(), 0u);
  const uint64_t fp0 = service->CurrentSnapshot()->fingerprint();

  // A tree hand-tailored to dominate one query's result.
  live::DeltaBuilder builder;
  builder.AddTree(*schema::ParseTreeSpec("name(address,email)"),
                  "feed:exact");
  auto report = service->ApplyDelta(*builder.Build());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_EQ(service->CurrentGeneration(), 1u);
  EXPECT_NE(service->CurrentSnapshot()->fingerprint(), fp0);

  // New queries see the ingested tree: an exact-match mapping at Δ = 1.
  // Baseline clustering, so the tiny 3-node tree cannot be dropped by
  // k-means cluster-size heuristics — this asserts visibility, not
  // clustering behaviour.
  MatchRequest query = MakeQuery("after-delta", kSpecs[0]);
  query.options.clustering = core::ClusteringMode::kTreeClusters;
  auto outcome = service->Run(query);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->result.mappings.empty());
  EXPECT_EQ(outcome->result.mappings[0].delta, 1.0);
  EXPECT_EQ(outcome->result.mappings[0].tree,
            static_cast<schema::TreeId>(
                service->CurrentSnapshot()->num_trees() - 1));

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.deltas_applied, 1u);
}

// A batch records which snapshot served it: generation + fingerprint of the
// one pin all members ran against (integration provenance reads these
// instead of racing CurrentGeneration() against concurrent deltas).
TEST_F(MatchServiceTest, RunBatchSurfacesPinnedGeneration) {
  auto service = MakeService();

  std::vector<MatchRequest> queries;
  queries.push_back(MakeQuery("pin-0", kSpecs[0]));
  queries.push_back(MakeQuery("pin-1", kSpecs[1]));
  BatchMatchResult before = service->RunBatch(queries);
  EXPECT_EQ(before.generation, 0u);
  EXPECT_EQ(before.fingerprint, service->CurrentSnapshot()->fingerprint());
  ASSERT_EQ(before.results.size(), queries.size());

  live::DeltaBuilder builder;
  builder.AddTree(*schema::ParseTreeSpec("invoice(total,customer)"),
                  "feed:pin");
  ASSERT_TRUE(service->ApplyDelta(*builder.Build()).ok());

  BatchMatchResult after = service->RunBatch(queries);
  EXPECT_EQ(after.generation, 1u);
  EXPECT_EQ(after.fingerprint, service->CurrentSnapshot()->fingerprint());
  EXPECT_NE(after.fingerprint, before.fingerprint);
}

TEST_F(MatchServiceTest, DeltaInvalidatesCacheByNamespaceNotByKey) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("ns", kSpecs[1]);
  ASSERT_TRUE(service->Run(query).ok());
  ASSERT_TRUE(service->Run(query).ok());
  EXPECT_EQ(service->stats().cache.misses, 1u);
  EXPECT_EQ(service->stats().cache.hits, 1u);
  const std::string key_before = service->ClusterStateKey(query);

  live::DeltaBuilder builder;
  builder.AddTree(*schema::ParseTreeSpec("personnel(member)"), "feed");
  ASSERT_TRUE(service->ApplyDelta(*builder.Build()).ok());

  // Same cluster-state key — isolation comes from the fingerprint
  // namespace, so the changed repository recomputes instead of serving the
  // stale state.
  EXPECT_EQ(service->ClusterStateKey(query), key_before);
  ASSERT_TRUE(service->Run(query).ok());
  ASSERT_TRUE(service->Run(query).ok());
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache_namespaces, 2u);
}

TEST_F(MatchServiceTest, RevertedDeltaRevivesWarmCache) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("revert", kSpecs[2]);
  ASSERT_TRUE(service->Run(query).ok());  // miss, warms gen-0 namespace

  // Add a tree, then remove it again: the final content equals gen 0, so
  // its fingerprint — and its warm cache — come back.
  live::DeltaBuilder add;
  add.AddTree(*schema::ParseTreeSpec("transient(leaf)"), "feed");
  auto r1 = service->ApplyDelta(*add.Build());
  ASSERT_TRUE(r1.ok());
  live::DeltaBuilder remove;
  remove.RemoveTree(
      static_cast<schema::TreeId>(r1->snapshot->num_trees() - 1));
  auto r2 = service->ApplyDelta(*remove.Build());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->generation, 2u);
  EXPECT_EQ(r2->fingerprint, service->CurrentSnapshot()->fingerprint());

  ASSERT_TRUE(service->Run(query).ok());
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.cache.misses, 1u);  // no recompute: namespace revived
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST_F(MatchServiceTest, CacheNamespaceRetentionIsBounded) {
  auto service = MakeService();
  for (int i = 0; i < 4; ++i) {
    live::DeltaBuilder builder;
    builder.AddTree(*schema::ParseTreeSpec(
                        "gen" + std::to_string(i) + "(leaf)"),
                    "feed");
    ASSERT_TRUE(service->ApplyDelta(*builder.Build()).ok());
  }
  // Current + one retained, however many generations went by.
  EXPECT_EQ(service->stats().cache_namespaces, 2u);
  EXPECT_EQ(service->CurrentGeneration(), 4u);
}

// Satellite acceptance: queries running while deltas publish finish
// against their pinned generation, with results identical to a quiesced
// run on that generation's content. Each generation here changes the
// repository node count, so a result's stats identify which snapshot it
// ran against; any torn or retargeted query would mismatch its quiesced
// twin.
TEST_F(MatchServiceTest, ConcurrentApplyDeltaAndBatchesStayConsistent) {
  MatchServiceOptions options;
  options.num_threads = 4;
  auto service = MakeService(options);

  constexpr int kGenerations = 4;  // gen 0 .. 3
  // Quiesced ground truth per generation, keyed by total node count:
  // independent services over deep-equal content.
  std::vector<std::unique_ptr<MatchService>> quiesced;
  std::vector<size_t> gen_nodes;
  std::vector<live::RepositoryDelta> deltas;
  {
    auto snapshot = RepositorySnapshot::Create(*forest_);
    ASSERT_TRUE(snapshot.ok());
    quiesced.push_back(
        std::make_unique<MatchService>(std::move(*snapshot)));
    gen_nodes.push_back(forest_->total_nodes());
  }
  for (int g = 1; g < kGenerations; ++g) {
    // Distinct vocabulary per generation so results genuinely differ.
    live::DeltaBuilder builder;
    builder.AddTree(*schema::ParseTreeSpec(
                        "name" + std::to_string(g) +
                        "(address" + std::to_string(g) + ",email" +
                        std::to_string(g) + ",name(address,email))"),
                    "gen" + std::to_string(g));
    auto delta = builder.Build();
    ASSERT_TRUE(delta.ok());
    deltas.push_back(*delta);
  }

  // Build the quiesced twins by applying the same deltas to fresh
  // services, one generation at a time.
  for (int g = 1; g < kGenerations; ++g) {
    auto twin_snapshot = RepositorySnapshot::Create(*forest_);
    ASSERT_TRUE(twin_snapshot.ok());
    auto twin = std::make_unique<MatchService>(std::move(*twin_snapshot));
    for (int d = 0; d < g; ++d) {
      ASSERT_TRUE(twin->ApplyDelta(deltas[static_cast<size_t>(d)]).ok());
    }
    gen_nodes.push_back(twin->CurrentSnapshot()->total_nodes());
    quiesced.push_back(std::move(twin));
  }
  // The node-count → generation mapping must be unambiguous for the check.
  for (int a = 0; a < kGenerations; ++a) {
    for (int b = a + 1; b < kGenerations; ++b) {
      ASSERT_NE(gen_nodes[static_cast<size_t>(a)],
                gen_nodes[static_cast<size_t>(b)]);
    }
  }

  // Fire a stream of async queries while deltas land between waves; the
  // submissions interleave with publications across the pool.
  std::vector<MatchHandle> handles;
  std::vector<MatchRequest> submitted;
  for (int g = 1; g < kGenerations; ++g) {
    for (int burst = 0; burst < 6; ++burst) {
      MatchRequest query = MakeQuery(
          "live-" + std::to_string(g) + "-" + std::to_string(burst),
          kSpecs[burst % kNumSpecs]);
      submitted.push_back(query);
      handles.push_back(service->Submit(service->Pin(), query));
    }
    ASSERT_TRUE(service->ApplyDelta(deltas[static_cast<size_t>(g - 1)]).ok());
  }

  for (size_t i = 0; i < handles.size(); ++i) {
    auto result = handles[i].Get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Identify the pinned generation by the repository size the run saw...
    size_t gen = gen_nodes.size();
    for (size_t g = 0; g < gen_nodes.size(); ++g) {
      if (result->stats.repository_nodes == gen_nodes[g]) {
        gen = g;
        break;
      }
    }
    ASSERT_LT(gen, gen_nodes.size()) << "result saw an unknown repository";
    // ...and demand equality with that generation's quiesced run.
    auto expected = quiesced[gen]->Run(submitted[i]);
    ASSERT_TRUE(expected.ok());
    ExpectSameResults(*result, expected->result);
  }
}

}  // namespace
}  // namespace xsm::service
