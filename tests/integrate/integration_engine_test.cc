#include "integrate/integration_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "integrate/integration_io.h"
#include "live/repository_delta.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "util/random.h"

namespace xsm::integrate {
namespace {

// --- Planted-synonym corpus ------------------------------------------------
//
// The ground-truth generator both the recall tests and bench_integration
// rely on. Group tokens are eight copies of one letter from 'a'..'l':
// distinct tokens share no character, so cross-group similarity is 0 under
// the default Damerau-Levenshtein matcher. Noise names are three 4-char
// blocks over the disjoint alphabet 'm'..'z' taken from base-14 digits of a
// global counter: any two distinct noise names differ in at least 4 of 12
// characters (similarity <= 2/3 < 0.75), and noise-vs-token similarity is 0.
// The only correspondences at the default threshold are therefore the exact
// planted token repeats — the expected clustering is known exactly.

std::string NoiseName(size_t* counter) {
  size_t k = (*counter)++;
  std::string name;
  for (int block = 0; block < 3; ++block) {
    name.append(4, static_cast<char>('m' + k % 14));
    k /= 14;
  }
  return name;
}

struct PlantedGroup {
  std::string token;
  std::vector<schema::NodeRef> members;  // build order = sorted NodeRef order
};

struct PlantedCorpus {
  schema::SchemaForest forest;
  std::vector<PlantedGroup> groups;
};

/// `num_groups` <= 12. When `first_tree_noise_only`, tree 0 carries no
/// planted member (so removing it must not disturb any planted cluster).
PlantedCorpus BuildPlantedCorpus(uint64_t seed, size_t num_trees,
                                 size_t num_groups,
                                 bool first_tree_noise_only = false) {
  PlantedCorpus corpus;
  Rng rng(seed);
  size_t noise_counter = 0;
  const size_t lo = first_tree_noise_only ? 1 : 0;

  corpus.groups.resize(num_groups);
  std::vector<std::vector<size_t>> groups_in_tree(num_trees);
  for (size_t g = 0; g < num_groups; ++g) {
    corpus.groups[g].token = std::string(8, static_cast<char>('a' + g));
    std::vector<size_t> candidates;
    for (size_t t = lo; t < num_trees; ++t) candidates.push_back(t);
    rng.Shuffle(&candidates);
    const size_t occurrences = 2 + rng.Uniform(candidates.size() - 1);
    for (size_t i = 0; i < occurrences; ++i) {
      groups_in_tree[candidates[i]].push_back(g);
    }
  }

  for (size_t t = 0; t < num_trees; ++t) {
    schema::SchemaTree tree;
    schema::NodeProperties root;
    root.name = NoiseName(&noise_counter);
    tree.AddNode(schema::kInvalidNode, std::move(root));

    constexpr size_t kNoGroup = static_cast<size_t>(-1);
    std::vector<std::pair<std::string, size_t>> names;
    for (size_t g : groups_in_tree[t]) {
      names.emplace_back(corpus.groups[g].token, g);
    }
    // Big enough that every tree spans several 32-node personal slices.
    const size_t noise = 36 + rng.Uniform(30);
    for (size_t j = 0; j < noise; ++j) {
      names.emplace_back(NoiseName(&noise_counter), kNoGroup);
    }
    rng.Shuffle(&names);

    for (auto& [name, group] : names) {
      schema::NodeProperties props;
      props.name = name;
      // Random parent: structural variety the name matcher ignores.
      const schema::NodeId parent =
          static_cast<schema::NodeId>(rng.Uniform(tree.size()));
      const schema::NodeId id = tree.AddNode(parent, std::move(props));
      if (group != kNoGroup) {
        corpus.groups[group].members.push_back(
            {static_cast<schema::TreeId>(t), id});
      }
    }
    corpus.forest.AddTree(std::move(tree));
  }
  return corpus;
}

std::unique_ptr<service::MatchService> ServiceOver(
    schema::SchemaForest forest, size_t num_threads = 0,
    size_t cache_capacity = 4096) {
  service::MatchServiceOptions options;
  options.num_threads = num_threads;
  options.cluster_cache_capacity = cache_capacity;
  auto snapshot = service::RepositorySnapshot::Create(std::move(forest));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return std::make_unique<service::MatchService>(std::move(*snapshot),
                                                 options);
}

const CorrespondenceCluster* FindClusterByName(const IntegrationResult& result,
                                               const std::string& name) {
  for (const CorrespondenceCluster& cluster : result.clusters) {
    if (cluster.name == name) return &cluster;
  }
  return nullptr;
}

TEST(SeverityNamesTest, RoundTrip) {
  for (Severity s :
       {Severity::kWeak, Severity::kProbable, Severity::kStrong}) {
    auto parsed = ParseSeverity(SeverityName(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_EQ(ParseSeverity("medium").status().code(),
            StatusCode::kInvalidArgument);
}

// Every planted synonym group must land in exactly one correspondence
// cluster holding exactly its members — and nothing else clusters, because
// the noise vocabulary is constructed below the threshold.
TEST(IntegrationEngineTest, PlantedGroupsLandInOneClusterEach) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    PlantedCorpus corpus = BuildPlantedCorpus(seed, /*num_trees=*/7,
                                              /*num_groups=*/6);
    auto service = ServiceOver(std::move(corpus.forest), /*num_threads=*/4);
    IntegrationEngine engine(service.get());
    auto result = engine.Integrate(IntegrationOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    EXPECT_EQ(result->execution, core::ExecutionStatus::kCompleted);
    EXPECT_EQ(result->clusters.size(), corpus.groups.size())
        << "seed " << seed;
    for (const PlantedGroup& group : corpus.groups) {
      const CorrespondenceCluster* cluster =
          FindClusterByName(*result, group.token);
      ASSERT_NE(cluster, nullptr) << "seed " << seed << " lost group "
                                  << group.token;
      EXPECT_EQ(cluster->members, group.members) << "seed " << seed;
      // Exact repeats: every edge scores 1.0, so the grade is strong and
      // the group spans as many schemas as it has members (one per tree).
      EXPECT_EQ(cluster->confidence, 1.0);
      EXPECT_EQ(cluster->severity, Severity::kStrong);
      EXPECT_EQ(cluster->schemas, group.members.size());
      EXPECT_GE(cluster->links, group.members.size() - 1);
    }
    // The mediated schema carries each cluster once, in rank order.
    EXPECT_EQ(result->mediated.elements.size(), result->clusters.size());
    for (size_t i = 0; i < result->mediated.elements.size(); ++i) {
      const MediatedElement& element = result->mediated.elements[i];
      EXPECT_EQ(element.cluster, i);
      EXPECT_EQ(element.name, result->clusters[i].name);
    }
  }
}

// The determinism contract: for a fixed snapshot fingerprint + seed the
// serialized result is byte-identical across thread counts, and a warm
// second run (cluster cache populated) reproduces it exactly.
TEST(IntegrationEngineTest, ByteIdenticalAcrossThreadCountsAndWarmRuns) {
  repo::SyntheticRepoOptions synth;
  synth.target_elements = 1200;
  synth.seed = 5;
  auto forest = repo::GenerateSyntheticRepository(synth);
  ASSERT_TRUE(forest.ok());

  std::string reference;
  for (size_t threads : {1u, 2u, 8u}) {
    auto service = ServiceOver(*forest, threads);
    IntegrationEngine engine(service.get());
    auto result = engine.Integrate(IntegrationOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string bytes = SerializeIntegration(*result);
    if (reference.empty()) {
      reference = bytes;
      EXPECT_FALSE(result->clusters.empty());
    } else {
      EXPECT_EQ(bytes, reference) << "thread count " << threads;
    }

    // Warm rerun on the same service: identical bytes, served from cache.
    const uint64_t misses_after_cold = service->stats().cache.misses;
    auto warm = engine.Integrate(IntegrationOptions());
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(SerializeIntegration(*warm), reference);
    EXPECT_EQ(service->stats().cache.misses, misses_after_cold)
        << "warm run should not rebuild any slice state";
    EXPECT_GT(service->stats().cache.hits, 0u);
  }
}

TEST(IntegrationEngineTest, MinLinkageAndSeverityFilterMediatedSchema) {
  PlantedCorpus corpus = BuildPlantedCorpus(7, /*num_trees=*/6,
                                            /*num_groups=*/5);
  auto service = ServiceOver(std::move(corpus.forest));
  IntegrationEngine engine(service.get());

  IntegrationOptions all;
  auto baseline = engine.Integrate(all);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->clusters.empty());

  // A linkage floor above the largest group's edge count empties the
  // mediated schema without touching the clusters themselves.
  size_t max_links = 0;
  for (const CorrespondenceCluster& cluster : baseline->clusters) {
    max_links = std::max(max_links, cluster.links);
  }
  IntegrationOptions strict;
  strict.min_linkage = max_links + 1;
  auto filtered = engine.Integrate(strict);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->clusters.size(), baseline->clusters.size());
  EXPECT_TRUE(filtered->mediated.elements.empty());

  // Severity follows the confidence thresholds: planted clusters sit at
  // confidence 1.0, so raising strong_confidence past it demotes every
  // grade to probable — and a strong-only floor then empties the schema.
  IntegrationOptions demoted;
  demoted.strong_confidence = 1.2;
  demoted.probable_confidence = 0.9;
  auto graded = engine.Integrate(demoted);
  ASSERT_TRUE(graded.ok());
  for (const CorrespondenceCluster& cluster : graded->clusters) {
    EXPECT_EQ(cluster.severity, Severity::kProbable);
  }
  EXPECT_EQ(graded->mediated.elements.size(), graded->clusters.size());

  demoted.min_severity = Severity::kStrong;
  auto strong_only = engine.Integrate(demoted);
  ASSERT_TRUE(strong_only.ok());
  EXPECT_EQ(strong_only->clusters.size(), graded->clusters.size());
  EXPECT_TRUE(strong_only->mediated.elements.empty());

  demoted.min_severity = Severity::kProbable;
  auto probable_up = engine.Integrate(demoted);
  ASSERT_TRUE(probable_up.ok());
  EXPECT_EQ(probable_up->mediated.elements.size(),
            probable_up->clusters.size());
}

// A stop signal yields a typed partial result (never an error) and must not
// poison the cluster cache: the rerun on the same service matches a fresh
// service's run byte for byte.
TEST(IntegrationEngineTest, CancellationLeavesTypedPartialAndCleanCache) {
  PlantedCorpus corpus = BuildPlantedCorpus(4, /*num_trees=*/6,
                                            /*num_groups=*/5);
  auto service = ServiceOver(corpus.forest, /*num_threads=*/2);
  IntegrationEngine engine(service.get());

  IntegrationOptions cancelled;
  cancelled.control.cancel.Cancel();
  auto partial = engine.Integrate(cancelled);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->execution, core::ExecutionStatus::kCancelled);
  EXPECT_TRUE(partial->clusters.empty());
  EXPECT_TRUE(partial->mediated.elements.empty());
  // Provenance still names the snapshot the partial run was pinned to.
  EXPECT_EQ(partial->fingerprint,
            service->CurrentSnapshot()->fingerprint());

  auto rerun = engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->execution, core::ExecutionStatus::kCompleted);

  auto fresh_service = ServiceOver(std::move(corpus.forest));
  IntegrationEngine fresh_engine(fresh_service.get());
  auto fresh = fresh_engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(SerializeIntegration(*rerun), SerializeIntegration(*fresh));
}

TEST(IntegrationEngineTest, ExpiredDeadlineYieldsTypedPartialAndCleanCache) {
  PlantedCorpus corpus = BuildPlantedCorpus(5, /*num_trees=*/6,
                                            /*num_groups=*/5);
  auto service = ServiceOver(corpus.forest, /*num_threads=*/2);
  IntegrationEngine engine(service.get());

  IntegrationOptions expired;
  expired.control = core::ExecutionControl::WithDeadline(1e-9);
  auto partial = engine.Integrate(expired);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->execution, core::ExecutionStatus::kDeadlineExceeded);

  auto rerun = engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->execution, core::ExecutionStatus::kCompleted);
  auto fresh_service = ServiceOver(std::move(corpus.forest));
  IntegrationEngine fresh_engine(fresh_service.get());
  auto fresh = fresh_engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(SerializeIntegration(*rerun), SerializeIntegration(*fresh));
}

TEST(IntegrationEngineTest, SingleTreeRepositoryCompletesEmpty) {
  schema::SchemaForest forest;
  auto tree = schema::ParseTreeSpec("person(name,address(city,zip))");
  ASSERT_TRUE(tree.ok());
  forest.AddTree(std::move(*tree));
  auto service = ServiceOver(std::move(forest));
  IntegrationEngine engine(service.get());
  auto result = engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->execution, core::ExecutionStatus::kCompleted);
  EXPECT_EQ(result->stats.trees, 1u);
  EXPECT_EQ(result->stats.pairs_total, 0u);
  EXPECT_TRUE(result->clusters.empty());
  EXPECT_TRUE(result->mediated.elements.empty());
}

TEST(IntegrationEngineTest, ProvenanceTracksTheServedSnapshot) {
  PlantedCorpus corpus = BuildPlantedCorpus(6, /*num_trees=*/5,
                                            /*num_groups=*/4);
  auto service = ServiceOver(std::move(corpus.forest));
  IntegrationEngine engine(service.get());

  auto gen0 = engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(gen0.ok());
  auto snapshot = service->CurrentSnapshot();
  EXPECT_EQ(gen0->generation, 0u);
  EXPECT_EQ(gen0->fingerprint, snapshot->fingerprint());
  ASSERT_EQ(gen0->tree_fingerprints.size(), snapshot->num_trees());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(snapshot->num_trees()); ++t) {
    EXPECT_EQ(gen0->tree_fingerprints[static_cast<size_t>(t)],
              snapshot->tree_fingerprint(t));
  }

  live::DeltaBuilder builder;
  auto extra = schema::ParseTreeSpec("invoice(total,customer)");
  ASSERT_TRUE(extra.ok());
  builder.AddTree(std::move(*extra), "feed:prov");
  ASSERT_TRUE(service->ApplyDelta(*builder.Build()).ok());

  auto gen1 = engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(gen1.ok());
  EXPECT_EQ(gen1->generation, 1u);
  EXPECT_NE(gen1->fingerprint, gen0->fingerprint);
  EXPECT_EQ(gen1->tree_fingerprints.size(),
            gen0->tree_fingerprints.size() + 1);
}

TEST(IntegrationEngineTest, RejectsInvalidOptions) {
  PlantedCorpus corpus = BuildPlantedCorpus(8, /*num_trees=*/4,
                                            /*num_groups=*/3);
  auto service = ServiceOver(std::move(corpus.forest));
  IntegrationEngine engine(service.get());

  IntegrationOptions bad_threshold;
  bad_threshold.threshold = 1.5;
  EXPECT_EQ(engine.Integrate(bad_threshold).status().code(),
            StatusCode::kInvalidArgument);

  IntegrationOptions inverted;
  inverted.probable_confidence = 0.95;
  inverted.strong_confidence = 0.9;
  EXPECT_EQ(engine.Integrate(inverted).status().code(),
            StatusCode::kInvalidArgument);
}

// Observer contract: pair events come in (source, target) order with
// a < b, mediated elements stream in rank order, and OnFinish sees the
// final result once.
TEST(IntegrationEngineTest, ObserverStreamsDeterministicEventOrder) {
  struct Recorder : IntegrationObserver {
    std::vector<PairProgress> pairs;
    std::vector<std::pair<size_t, std::string>> elements;
    size_t finishes = 0;
    size_t finish_clusters = 0;
    void OnPair(const PairProgress& progress) override {
      pairs.push_back(progress);
    }
    void OnMediatedElement(size_t rank, const MediatedElement& element,
                           const CorrespondenceCluster& cluster) override {
      EXPECT_EQ(element.name, cluster.name);
      elements.emplace_back(rank, element.name);
    }
    void OnFinish(const IntegrationResult& result) override {
      ++finishes;
      finish_clusters = result.clusters.size();
    }
  };

  PlantedCorpus corpus = BuildPlantedCorpus(9, /*num_trees=*/6,
                                            /*num_groups=*/5);
  auto service = ServiceOver(std::move(corpus.forest), /*num_threads=*/4);
  IntegrationEngine engine(service.get());
  Recorder recorder;
  auto result = engine.Integrate(IntegrationOptions(), &recorder);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->stats.pairs_linked, recorder.pairs.size());
  for (size_t i = 0; i < recorder.pairs.size(); ++i) {
    const PairProgress& p = recorder.pairs[i];
    EXPECT_LT(p.a, p.b);
    EXPECT_GT(p.links, 0u);
    EXPECT_GE(p.best_score, 0.75);
    if (i > 0) {
      const PairProgress& prev = recorder.pairs[i - 1];
      // Sources ascending; targets ascending within one source.
      EXPECT_TRUE(prev.a < p.a || (prev.a == p.a && prev.b < p.b));
    }
  }
  ASSERT_EQ(recorder.elements.size(), result->mediated.elements.size());
  for (size_t i = 0; i < recorder.elements.size(); ++i) {
    EXPECT_EQ(recorder.elements[i].first, i + 1);  // 1-based ranks
    EXPECT_EQ(recorder.elements[i].second,
              result->mediated.elements[i].name);
  }
  EXPECT_EQ(recorder.finishes, 1u);
  EXPECT_EQ(recorder.finish_clusters, result->clusters.size());
}

}  // namespace
}  // namespace xsm::integrate
