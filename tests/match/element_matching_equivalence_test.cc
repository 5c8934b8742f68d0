// Randomized-corpus equivalence suite for the two-stage element-matching
// engine: MatchElements (dictionary engine, optionally sharded over a
// thread pool) must reproduce MatchElementsReference (the retained seed
// sweep) bit-for-bit — sets, scores, masks, distinct_nodes — across
// thresholds, cold and warm dictionaries, shard counts and thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "match/element_matching.h"
#include "match/name_dictionary.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "util/thread_pool.h"

namespace xsm::match {
namespace {

using schema::SchemaForest;
using schema::SchemaTree;

SchemaForest MakeCorpus(size_t elements, uint64_t seed) {
  repo::SyntheticRepoOptions options;
  options.target_elements = elements;
  options.seed = seed;
  auto forest = repo::GenerateSyntheticRepository(options);
  EXPECT_TRUE(forest.ok());
  return std::move(*forest);
}

std::vector<SchemaTree> PersonalSchemas() {
  std::vector<SchemaTree> personals;
  for (const char* spec :
       {"name(address,email)", "order(item(price),customer(name))",
        "article(title,publisher,author(firstName,lastName))", "title"}) {
    personals.push_back(*schema::ParseTreeSpec(spec));
  }
  return personals;
}

/// Asserts exact equality, element by element, score bit by score bit.
void ExpectIdentical(const ElementMatchingResult& expected,
                     const ElementMatchingResult& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.sets.size(), actual.sets.size()) << context;
  for (size_t i = 0; i < expected.sets.size(); ++i) {
    ASSERT_EQ(expected.sets[i].personal_node, actual.sets[i].personal_node)
        << context;
    ASSERT_EQ(expected.sets[i].size(), actual.sets[i].size())
        << context << " set " << i;
    for (size_t j = 0; j < expected.sets[i].elements.size(); ++j) {
      const MappingElement& e = expected.sets[i].elements[j];
      const MappingElement& a = actual.sets[i].elements[j];
      ASSERT_EQ(e.node, a.node) << context << " set " << i << " elem " << j;
      // Bit-identical scores: EXPECT_EQ, not EXPECT_NEAR.
      ASSERT_EQ(e.score, a.score) << context << " set " << i << " elem " << j;
    }
  }
  ASSERT_EQ(expected.distinct_nodes, actual.distinct_nodes) << context;
  ASSERT_EQ(expected.masks, actual.masks) << context;
}

TEST(ElementMatchingEquivalenceTest, AllMatchersThresholdsSerial) {
  SchemaForest repo = MakeCorpus(800, 7);
  NameDictionary dict = NameDictionary::Build(repo);
  const double thresholds[] = {0.0, 0.35, 0.5, 0.75, 0.95};
  for (const SchemaTree& personal : PersonalSchemas()) {
    for (double threshold : thresholds) {
      ElementMatchingOptions options;
      options.threshold = threshold;
      auto reference = MatchElementsReference(personal, repo, options);
      ASSERT_TRUE(reference.ok());

      // Transient dictionary (built inside the call).
      auto cold = MatchElements(personal, repo, options);
      ASSERT_TRUE(cold.ok());
      std::string context = "@" + std::to_string(threshold) +
                            " personal=" + personal.name(0);
      ExpectIdentical(*reference, *cold, context + " [cold]");

      // Warm (precomputed, snapshot-style) dictionary.
      options.dictionary = &dict;
      auto warm = MatchElements(personal, repo, options);
      ASSERT_TRUE(warm.ok());
      ExpectIdentical(*reference, *warm, context + " [warm]");
    }
  }
}

TEST(ElementMatchingEquivalenceTest, ParallelShardsAcrossThreadCounts) {
  SchemaForest repo = MakeCorpus(1500, 11);
  NameDictionary dict = NameDictionary::Build(repo);
  const double thresholds[] = {0.3, 0.5, 0.8};
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    for (const SchemaTree& personal : PersonalSchemas()) {
      for (double threshold : thresholds) {
        ElementMatchingOptions serial_options;
        serial_options.threshold = threshold;
        auto reference =
            MatchElementsReference(personal, repo, serial_options);
        ASSERT_TRUE(reference.ok());
        for (size_t shards : {0u, 1u, 7u, 64u}) {
          ElementMatchingOptions options;
          options.threshold = threshold;
          options.dictionary = &dict;
          options.pool = &pool;
          options.num_shards = shards;
          auto parallel = MatchElements(personal, repo, options);
          ASSERT_TRUE(parallel.ok());
          ExpectIdentical(*reference, *parallel,
                          "threads=" + std::to_string(threads) + " shards=" +
                              std::to_string(shards) + " @" +
                              std::to_string(threshold));
        }
      }
    }
  }
}

TEST(ElementMatchingEquivalenceTest, AttributeFilteringEquivalence) {
  SchemaForest repo = MakeCorpus(1000, 23);
  NameDictionary dict = NameDictionary::Build(repo);
  ThreadPool pool(3);
  for (bool match_attributes : {true, false}) {
    ElementMatchingOptions options;
    options.threshold = 0.5;
    options.match_attributes = match_attributes;
    auto reference = MatchElementsReference(
        *schema::ParseTreeSpec("name(address,email)"), repo, options);
    ASSERT_TRUE(reference.ok());

    options.dictionary = &dict;
    options.pool = &pool;
    auto engine = MatchElements(*schema::ParseTreeSpec("name(address,email)"),
                                repo, options);
    ASSERT_TRUE(engine.ok());
    ExpectIdentical(*reference, *engine,
                    match_attributes ? "attrs=on" : "attrs=off");
  }
}

TEST(ElementMatchingEquivalenceTest, RejectsForeignDictionary) {
  SchemaForest repo_a = MakeCorpus(400, 1);
  SchemaForest repo_b = MakeCorpus(400, 2);
  NameDictionary dict_b = NameDictionary::Build(repo_b);
  ElementMatchingOptions options;
  options.dictionary = &dict_b;
  auto r = MatchElements(*schema::ParseTreeSpec("name(address,email)"),
                         repo_a, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ElementMatchingEquivalenceTest, CancellationStopsScoring) {
  SchemaForest repo = MakeCorpus(1000, 5);
  SchemaTree personal = *schema::ParseTreeSpec("name(address,email)");

  core::ExecutionControl cancelled;
  cancelled.cancel.Cancel();
  ElementMatchingOptions options;
  options.control = &cancelled;
  auto r = MatchElements(personal, repo, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  // Same under a pool: every shard observes the stop.
  ThreadPool pool(2);
  options.pool = &pool;
  r = MatchElements(personal, repo, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  core::ExecutionControl expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(10);
  ElementMatchingOptions deadline_options;
  deadline_options.control = &expired;
  r = MatchElements(personal, repo, deadline_options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  // A null-control run is oblivious.
  auto ok = MatchElements(personal, repo, ElementMatchingOptions{});
  ASSERT_TRUE(ok.ok());
}

TEST(ElementMatchingEquivalenceTest, EmptyRepositoryAndNoMatches) {
  SchemaForest empty;
  auto r = MatchElements(*schema::ParseTreeSpec("name"), empty,
                         ElementMatchingOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->distinct_nodes.empty());
  EXPECT_EQ(r->total_mapping_elements(), 0u);

  // Nothing clears threshold 1.0 against an unrelated vocabulary.
  SchemaForest repo;
  repo.AddTree(*schema::ParseTreeSpec("engine(piston,crankshaft)"));
  ElementMatchingOptions strict;
  strict.threshold = 1.0;
  auto none = MatchElements(*schema::ParseTreeSpec("zzz"), repo, strict);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->total_mapping_elements(), 0u);
  auto reference = MatchElementsReference(*schema::ParseTreeSpec("zzz"),
                                          repo, strict);
  ASSERT_TRUE(reference.ok());
  ExpectIdentical(*reference, *none, "strict-threshold");
}

}  // namespace
}  // namespace xsm::match
