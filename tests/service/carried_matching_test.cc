// Carried element matching across deltas. match::CarryElementMatching must
// equal MatchElements on the successor forest field by field, along
// randomized delta chains whose every step carries the previous step's
// carried result; and a MatchService whose post-delta misses carry must
// answer exactly like a fresh service booted on the successor forest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "live/repository_delta.h"
#include "match/element_matching.h"
#include "obs/metrics.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "service/serve_session.h"
#include "util/random.h"

namespace xsm::service {
namespace {

using schema::SchemaForest;
using schema::SchemaTree;
using schema::TreeId;

SchemaForest MakeCorpus(size_t elements, uint64_t seed) {
  repo::SyntheticRepoOptions options;
  options.target_elements = elements;
  options.seed = seed;
  auto forest = repo::GenerateSyntheticRepository(options);
  EXPECT_TRUE(forest.ok());
  return std::move(*forest);
}

std::shared_ptr<const SchemaTree> Tree(const char* spec) {
  auto tree = schema::ParseTreeSpec(spec);
  EXPECT_TRUE(tree.ok()) << spec;
  return std::make_shared<const SchemaTree>(std::move(*tree));
}

/// The shapes of delta a chain draws from.
enum class Step {
  kRandom,            ///< 1-3 random replace / add / remove operations
  kReplaceOne,        ///< one !replace, remembered for kRestore
  kRestore,           ///< puts the kReplaceOne tree's old payload back
  kMultiTree,         ///< two replacements and an addition in one delta
  kRemoveTwo,         ///< two removals, renumbering every later tree
  kReplaceAllButOne,  ///< rebuilt trees outweigh the one reused tree
  kReplaceAll,        ///< no tree reused
};

/// Builds deltas against a moving forest, drawing payloads from a donor
/// corpus and a few hand-written trees.
class DeltaChain {
 public:
  explicit DeltaChain(uint64_t seed)
      : rng_(seed), donor_(MakeCorpus(500, seed + 1000)) {
    for (const char* spec :
         {"contact(name,address(street,city),email)", "invoice(total,date)",
          "person(name,phone,email)", "book(title,author(name))"}) {
      extra_.push_back(Tree(spec));
    }
  }

  live::RepositoryDelta Next(const SchemaForest& base, Step step) {
    const TreeId n = static_cast<TreeId>(base.num_trees());
    live::DeltaBuilder builder;
    switch (step) {
      case Step::kRandom: {
        const int ops = static_cast<int>(rng_.UniformInt(1, 3));
        std::vector<TreeId> used;
        for (int i = 0; i < ops; ++i) {
          const uint64_t kind = rng_.Uniform(3);
          if (kind == 0 || n < 4) {
            builder.AddTree(Payload());
            continue;
          }
          const TreeId target = static_cast<TreeId>(rng_.Uniform(n));
          if (std::find(used.begin(), used.end(), target) != used.end()) {
            continue;
          }
          used.push_back(target);
          if (kind == 1) {
            builder.ReplaceTree(target, Payload());
          } else {
            builder.RemoveTree(target);
          }
        }
        if (builder.empty()) builder.AddTree(Payload());
        break;
      }
      case Step::kReplaceOne:
        replaced_ = static_cast<TreeId>(rng_.Uniform(n));
        original_ = base.tree_ptr(replaced_);
        builder.ReplaceTree(replaced_, Payload());
        break;
      case Step::kRestore:
        builder.ReplaceTree(replaced_, original_);
        break;
      case Step::kMultiTree:
        builder.ReplaceTree(0, Payload());
        builder.ReplaceTree(n - 1, Payload());
        builder.AddTree(Payload());
        break;
      case Step::kRemoveTwo:
        builder.RemoveTree(1);
        builder.RemoveTree(n / 2);
        break;
      case Step::kReplaceAllButOne:
      case Step::kReplaceAll:
        for (TreeId t = step == Step::kReplaceAll ? 0 : 1; t < n; ++t) {
          builder.ReplaceTree(t, Payload());
        }
        break;
    }
    auto delta = builder.Build();
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    return std::move(*delta);
  }

 private:
  std::shared_ptr<const SchemaTree> Payload() {
    if (rng_.Uniform(4) == 0) return extra_[rng_.Uniform(extra_.size())];
    return donor_.tree_ptr(
        static_cast<TreeId>(rng_.Uniform(donor_.num_trees())));
  }

  Rng rng_;
  SchemaForest donor_;
  std::vector<std::shared_ptr<const SchemaTree>> extra_;
  TreeId replaced_ = 0;
  std::shared_ptr<const SchemaTree> original_;
};

/// The fixed scripted part of every chain, then random steps.
std::vector<Step> ChainSteps(size_t random_steps) {
  std::vector<Step> steps = {Step::kReplaceOne, Step::kRestore,
                             Step::kMultiTree, Step::kRemoveTwo};
  steps.insert(steps.end(), random_steps, Step::kRandom);
  return steps;
}

void ExpectIdentical(const match::ElementMatchingResult& expected,
                     const match::ElementMatchingResult& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.sets.size(), actual.sets.size()) << context;
  for (size_t i = 0; i < expected.sets.size(); ++i) {
    ASSERT_EQ(expected.sets[i].personal_node, actual.sets[i].personal_node)
        << context;
    ASSERT_EQ(expected.sets[i].size(), actual.sets[i].size())
        << context << " set " << i;
    for (size_t j = 0; j < expected.sets[i].elements.size(); ++j) {
      const match::MappingElement& e = expected.sets[i].elements[j];
      const match::MappingElement& a = actual.sets[i].elements[j];
      ASSERT_EQ(e.node, a.node) << context << " set " << i << " elem " << j;
      // Bitwise: EXPECT_EQ on doubles, not EXPECT_NEAR.
      ASSERT_EQ(e.score, a.score) << context << " set " << i << " elem " << j;
    }
  }
  ASSERT_EQ(expected.distinct_nodes, actual.distinct_nodes) << context;
  ASSERT_EQ(expected.masks, actual.masks) << context;
}

struct MatchingConfig {
  std::string name;
  match::ElementMatchingOptions options;
};

std::vector<MatchingConfig> MatchingConfigs() {
  std::vector<MatchingConfig> configs;
  for (double threshold : {0.35, 0.5, 0.8}) {
    match::ElementMatchingOptions options;
    options.threshold = threshold;
    configs.push_back({"threshold=" + std::to_string(threshold), options});
  }
  match::ElementMatchingOptions elements_only;
  elements_only.match_attributes = false;
  configs.push_back({"match_attributes=false", elements_only});
  return configs;
}

TEST(CarryElementMatchingTest, EqualsColdMatchingAlongRandomDeltaChains) {
  const std::vector<MatchingConfig> configs = MatchingConfigs();
  std::vector<SchemaTree> personals;
  for (const char* spec : {"name(address,email)",
                           "order(item(price),customer(name))", "title"}) {
    personals.push_back(*schema::ParseTreeSpec(spec));
  }

  for (uint64_t seed : {3u, 17u}) {
    DeltaChain chain(seed);
    SchemaForest forest = MakeCorpus(600, seed);
    // carried[p][c]: the running carried result; each step carries the
    // previous step's carry, never a fresh match.
    std::vector<std::vector<match::ElementMatchingResult>> carried(
        personals.size());
    for (size_t p = 0; p < personals.size(); ++p) {
      for (const MatchingConfig& config : configs) {
        auto cold = match::MatchElements(personals[p], forest, config.options);
        ASSERT_TRUE(cold.ok());
        carried[p].push_back(std::move(*cold));
      }
    }
    std::vector<Step> steps = ChainSteps(6);
    steps.push_back(Step::kReplaceAllButOne);
    steps.push_back(Step::kReplaceAll);
    for (size_t s = 0; s < steps.size(); ++s) {
      live::RepositoryDelta delta = chain.Next(forest, steps[s]);
      auto applied = live::ApplyDeltaToForest(forest, delta);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      for (size_t p = 0; p < personals.size(); ++p) {
        for (size_t c = 0; c < configs.size(); ++c) {
          const std::string context =
              "seed " + std::to_string(seed) + " step " + std::to_string(s) +
              " personal " + personals[p].name(0) + " " + configs[c].name;
          auto cold = match::MatchElements(personals[p], applied->forest,
                                           configs[c].options);
          ASSERT_TRUE(cold.ok()) << context;
          auto carry = match::CarryElementMatching(
              carried[p][c], applied->reuse_map, applied->forest,
              personals[p], configs[c].options);
          ASSERT_TRUE(carry.ok()) << context << ": "
                                  << carry.status().ToString();
          ExpectIdentical(*cold, *carry, context);
          carried[p][c] = std::move(*carry);
        }
      }
      forest = std::move(applied->forest);
    }
  }
}

TEST(CarryElementMatchingTest, RejectsMismatchedInputs) {
  SchemaForest forest = MakeCorpus(200, 5);
  SchemaTree personal = *schema::ParseTreeSpec("name(address,email)");
  match::ElementMatchingOptions options;
  auto prev = match::MatchElements(personal, forest, options);
  ASSERT_TRUE(prev.ok());

  std::vector<TreeId> short_map(forest.num_trees() - 1, 0);
  auto bad_map = match::CarryElementMatching(*prev, short_map, forest,
                                             personal, options);
  ASSERT_FALSE(bad_map.ok());
  EXPECT_EQ(bad_map.status().code(), StatusCode::kInvalidArgument);

  std::vector<TreeId> identity(forest.num_trees());
  for (size_t t = 0; t < identity.size(); ++t) {
    identity[t] = static_cast<TreeId>(t);
  }
  SchemaTree other = *schema::ParseTreeSpec("title");
  auto bad_personal =
      match::CarryElementMatching(*prev, identity, forest, other, options);
  ASSERT_FALSE(bad_personal.ok());
  EXPECT_EQ(bad_personal.status().code(), StatusCode::kInvalidArgument);
}

// --- The service: carried misses answer exactly like a fresh boot. --------

/// NDJSON events of one query with every wall-clock "ms" field zeroed.
std::vector<std::string> Events(ServeSession* session, const std::string& line,
                                core::MatchResult* result) {
  static const std::regex kMs("\"ms\":[0-9.]+");
  auto query = session->ParseQuery(line, 0);
  EXPECT_TRUE(query.ok()) << line;
  std::vector<std::string> events;
  auto run = session->RunQuery(*query, [&](const std::string& event) {
    events.push_back(std::regex_replace(event, kMs, "\"ms\":0"));
  });
  EXPECT_TRUE(run.ok()) << line;
  if (run.ok()) *result = std::move(*run);
  return events;
}

void ExpectSameRanking(const core::MatchResult& expected,
                       const core::MatchResult& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.mappings.size(), actual.mappings.size()) << context;
  for (size_t i = 0; i < expected.mappings.size(); ++i) {
    const generate::SchemaMapping& e = expected.mappings[i];
    const generate::SchemaMapping& a = actual.mappings[i];
    EXPECT_EQ(e.tree, a.tree) << context << " rank " << i;
    EXPECT_EQ(e.images, a.images) << context << " rank " << i;
    EXPECT_EQ(e.delta, a.delta) << context << " rank " << i;
  }
  EXPECT_EQ(expected.stats.total_mapping_elements,
            actual.stats.total_mapping_elements)
      << context;
  EXPECT_EQ(expected.stats.num_clusters, actual.stats.num_clusters)
      << context;
  EXPECT_EQ(expected.stats.num_mappings, actual.stats.num_mappings)
      << context;
}

const char* const kQueries[] = {
    "name(address,email) id=a delta=0.5 top=10",
    "order(item(price),customer(name)) id=b delta=0.6 top=5 threshold=0.35",
    "person(name,email) id=c delta=0.5 threshold=0.8",
    "title id=d top=3 cluster=tree",
};

/// Runs every query on `service` and on a fresh service booted on its
/// current forest, asserting equal ranked lists and equal events.
void ExpectAnswersEqualFreshBoot(MatchService* service,
                                 const std::string& context) {
  ServeSession session(service, ServeSessionOptions());
  SchemaForest copy = service->CurrentSnapshot()->forest();
  auto fresh = MatchService::Create(std::move(copy));
  ASSERT_TRUE(fresh.ok());
  ServeSession fresh_session(fresh->get(), ServeSessionOptions());
  for (const char* line : kQueries) {
    core::MatchResult got, want;
    const std::vector<std::string> events = Events(&session, line, &got);
    const std::vector<std::string> expected =
        Events(&fresh_session, line, &want);
    ASSERT_FALSE(expected.empty()) << context << " " << line;
    EXPECT_EQ(events, expected) << context << " " << line;
    ExpectSameRanking(want, got, context + " " + line);
  }
}

uint64_t Reused(MatchService& service) {
  return service.metrics().CounterValue("xsm_element_matching_reused_total");
}

TEST(CarriedMatchingServiceTest, PostDeltaMissesEqualAFreshBoot) {
  // Large enough that every scripted delta rebuilds at most one eighth of
  // the nodes, so each post-delta miss carries.
  DeltaChain chain(11);
  auto service = MatchService::Create(MakeCorpus(3000, 11));
  ASSERT_TRUE(service.ok());
  MatchService& svc = **service;
  ExpectAnswersEqualFreshBoot(&svc, "generation 0");
  ASSERT_EQ(Reused(svc), 0u);

  const std::vector<Step> steps = ChainSteps(4);
  for (size_t s = 0; s < steps.size(); ++s) {
    const ServiceStats before = svc.stats();
    const uint64_t reused_before = Reused(svc);
    live::RepositoryDelta delta =
        chain.Next(svc.CurrentSnapshot()->forest(), steps[s]);
    ASSERT_TRUE(svc.ApplyDelta(delta).ok());
    const std::string context = "step " + std::to_string(s);
    ExpectAnswersEqualFreshBoot(&svc, context);

    const ServiceStats after = svc.stats();
    const uint64_t misses = after.cache.misses - before.cache.misses;
    if (steps[s] == Step::kRestore) {
      // The restored content's namespace is still retained: all hits.
      EXPECT_EQ(misses, 0u) << context;
      EXPECT_EQ(Reused(svc), reused_before) << context;
    } else {
      // One miss per distinct state key, each carried from the previous
      // generation's ready state; a carried build still counts as a miss.
      EXPECT_EQ(misses, std::size(kQueries)) << context;
      EXPECT_EQ(Reused(svc) - reused_before, misses) << context;
    }
  }
}

TEST(CarriedMatchingServiceTest, HeavyRebuildsAndNoCacheTakeTheColdPath) {
  // Past one eighth of the nodes rebuilt, a cold build is the faster one;
  // the answers stay those of a fresh boot either way.
  for (Step step : {Step::kReplaceAll, Step::kReplaceAllButOne}) {
    DeltaChain chain(23);
    auto service = MatchService::Create(MakeCorpus(400, 23));
    ASSERT_TRUE(service.ok());
    MatchService& svc = **service;
    ExpectAnswersEqualFreshBoot(&svc, "generation 0");
    ASSERT_TRUE(
        svc.ApplyDelta(chain.Next(svc.CurrentSnapshot()->forest(), step))
            .ok());
    ExpectAnswersEqualFreshBoot(&svc, "after the heavy delta");
    EXPECT_EQ(Reused(svc), 0u);
  }

  MatchServiceOptions options;
  options.cluster_cache_capacity = 0;
  DeltaChain chain(29);
  auto service = MatchService::Create(MakeCorpus(400, 29), options);
  ASSERT_TRUE(service.ok());
  MatchService& svc = **service;
  ExpectAnswersEqualFreshBoot(&svc, "generation 0");
  for (Step step : {Step::kReplaceOne, Step::kMultiTree}) {
    ASSERT_TRUE(
        svc.ApplyDelta(chain.Next(svc.CurrentSnapshot()->forest(), step))
            .ok());
    ExpectAnswersEqualFreshBoot(&svc, "capacity 0");
  }
  EXPECT_EQ(Reused(svc), 0u);
}

TEST(CarriedMatchingServiceTest, SnapshotsKnowTheirPredecessor) {
  auto service = MatchService::Create(MakeCorpus(300, 31));
  ASSERT_TRUE(service.ok());
  auto first = (*service)->CurrentSnapshot();
  EXPECT_FALSE(first->has_predecessor());
  EXPECT_TRUE(first->reuse_map().empty());

  DeltaChain chain(31);
  ASSERT_TRUE(
      (*service)->ApplyDelta(chain.Next(first->forest(), Step::kRemoveTwo))
          .ok());
  auto second = (*service)->CurrentSnapshot();
  ASSERT_TRUE(second->has_predecessor());
  EXPECT_EQ(second->predecessor_fingerprint(), first->fingerprint());
  ASSERT_EQ(second->reuse_map().size(), second->num_trees());
  // Removing trees 1 and n/2 renumbers every tree after them.
  EXPECT_EQ(second->reuse_map()[0], 0);
  EXPECT_EQ(second->reuse_map()[1], 2);
}

}  // namespace
}  // namespace xsm::service
