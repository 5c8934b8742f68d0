#include "generate/mapping_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "label/tree_index.h"
#include "objective/objective.h"
#include "schema/schema_tree.h"
#include "util/random.h"

namespace xsm::generate {
namespace {

using match::MappingElement;
using schema::NodeId;
using schema::NodeRef;
using schema::SchemaTree;

// Canonical form of a result set for comparisons.
std::set<std::pair<schema::TreeId, std::vector<NodeId>>> Canon(
    const std::vector<SchemaMapping>& mappings) {
  std::set<std::pair<schema::TreeId, std::vector<NodeId>>> out;
  for (const auto& m : mappings) out.insert({m.tree, m.images});
  return out;
}

struct Scenario {
  SchemaTree personal;
  SchemaTree repo_tree;
  label::TreeIndex index;
  ClusterCandidates cands;
};

// Personal: name(address,email). Repository tree:
// person(name,contact(address,email),nick)
Scenario MakeSimpleScenario() {
  Scenario s;
  s.personal = *schema::ParseTreeSpec("name(address,email)");
  s.repo_tree =
      *schema::ParseTreeSpec("person(name,contact(address,email),nick)");
  s.index = label::TreeIndex::Build(s.repo_tree);
  s.cands.tree = 0;
  s.cands.candidates.resize(3);
  // name → {name(1): 1.0, nick(5): 0.5}
  s.cands.candidates[0] = {{NodeRef{0, 1}, 1.0}, {NodeRef{0, 5}, 0.5}};
  // address → {address(3): 1.0}
  s.cands.candidates[1] = {{NodeRef{0, 3}, 1.0}};
  // email → {email(4): 1.0}
  s.cands.candidates[2] = {{NodeRef{0, 4}, 1.0}};
  return s;
}

TEST(ClusterCandidatesTest, UsefulAndSearchSpace) {
  Scenario s = MakeSimpleScenario();
  EXPECT_TRUE(s.cands.useful());
  EXPECT_DOUBLE_EQ(s.cands.SearchSpaceSize(), 2.0);
  s.cands.candidates[1].clear();
  EXPECT_FALSE(s.cands.useful());
  ClusterCandidates empty;
  EXPECT_FALSE(empty.useful());
  EXPECT_DOUBLE_EQ(empty.SearchSpaceSize(), 0.0);
}

TEST(MappingGeneratorTest, FindsExpectedMappingsAndScores) {
  Scenario s = MakeSimpleScenario();
  objective::BellflowerObjective obj(0.5, /*k=*/3, 3, 2);
  GeneratorOptions opts;
  opts.algorithm = Algorithm::kExhaustive;
  opts.delta = 0.0;
  MappingGenerator gen(s.personal, obj, opts);
  std::vector<SchemaMapping> out;
  GeneratorCounters counters;
  ASSERT_TRUE(gen.Generate(s.cands, s.index, &out, &counters).ok());

  // 2 complete assignments (name→name or name→nick).
  ASSERT_EQ(out.size(), 2u);
  std::sort(out.begin(), out.end(), MappingOrder());

  // Best: name→name(1), address→address(3), email→email(4).
  const SchemaMapping& best = out[0];
  EXPECT_EQ(best.images, (std::vector<NodeId>{1, 3, 4}));
  EXPECT_DOUBLE_EQ(best.delta_sim, 1.0);
  // Edge name→address: dist(1,3)=3; edge name→email: dist(1,4)=3. |Et|=6,
  // |Es|=2, K=3 → Δpath = 1 - 4/6 = 1/3.
  EXPECT_EQ(best.total_path_length, 6);
  EXPECT_NEAR(best.delta_path, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(best.delta, 0.5 * 1.0 + 0.5 / 3.0, 1e-12);
}

TEST(MappingGeneratorTest, DeltaThresholdFilters) {
  Scenario s = MakeSimpleScenario();
  objective::BellflowerObjective obj(0.5, 3, 3, 2);
  GeneratorOptions opts;
  opts.algorithm = Algorithm::kBranchAndBound;
  opts.delta = 0.6;
  MappingGenerator gen(s.personal, obj, opts);
  std::vector<SchemaMapping> out;
  GeneratorCounters counters;
  ASSERT_TRUE(gen.Generate(s.cands, s.index, &out, &counters).ok());
  EXPECT_EQ(out.size(), 1u);  // only the name→name mapping survives
  for (const auto& m : out) EXPECT_GE(m.delta, 0.6);
}

TEST(MappingGeneratorTest, InjectivityEnforced) {
  // Personal a(b); both personal nodes match the same single repo node.
  Scenario s;
  s.personal = *schema::ParseTreeSpec("a(b)");
  s.repo_tree = *schema::ParseTreeSpec("x(y)");
  s.index = label::TreeIndex::Build(s.repo_tree);
  s.cands.tree = 0;
  s.cands.candidates.resize(2);
  s.cands.candidates[0] = {{NodeRef{0, 1}, 1.0}};
  s.cands.candidates[1] = {{NodeRef{0, 1}, 1.0}};
  objective::BellflowerObjective obj(0.5, 2, 2, 1);
  GeneratorOptions opts;
  opts.algorithm = Algorithm::kExhaustive;
  opts.delta = 0.0;
  MappingGenerator gen(s.personal, obj, opts);
  std::vector<SchemaMapping> out;
  GeneratorCounters counters;
  ASSERT_TRUE(gen.Generate(s.cands, s.index, &out, &counters).ok());
  EXPECT_TRUE(out.empty());  // the only assignment collides
}

TEST(MappingGeneratorTest, NonUsefulClusterYieldsNothing) {
  Scenario s = MakeSimpleScenario();
  s.cands.candidates[2].clear();
  objective::BellflowerObjective obj(0.5, 3, 3, 2);
  MappingGenerator gen(s.personal, obj, {});
  std::vector<SchemaMapping> out;
  GeneratorCounters counters;
  ASSERT_TRUE(gen.Generate(s.cands, s.index, &out, &counters).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(counters.partial_mappings, 0u);
}

TEST(MappingGeneratorTest, RejectsMismatchedCandidates) {
  Scenario s = MakeSimpleScenario();
  s.cands.candidates.pop_back();
  objective::BellflowerObjective obj(0.5, 3, 3, 2);
  MappingGenerator gen(s.personal, obj, {});
  std::vector<SchemaMapping> out;
  GeneratorCounters counters;
  EXPECT_FALSE(gen.Generate(s.cands, s.index, &out, &counters).ok());
}

TEST(MappingGeneratorTest, PartialMappingBudgetTruncates) {
  Scenario s = MakeSimpleScenario();
  objective::BellflowerObjective obj(0.5, 3, 3, 2);
  GeneratorOptions opts;
  opts.algorithm = Algorithm::kExhaustive;
  opts.delta = 0.0;
  opts.max_partial_mappings = 2;
  MappingGenerator gen(s.personal, obj, opts);
  std::vector<SchemaMapping> out;
  GeneratorCounters counters;
  ASSERT_TRUE(gen.Generate(s.cands, s.index, &out, &counters).ok());
  EXPECT_TRUE(counters.truncated);
  EXPECT_LE(counters.partial_mappings, 3u);
}

TEST(MappingGeneratorTest, CountersAccumulateAcrossCalls) {
  Scenario s = MakeSimpleScenario();
  objective::BellflowerObjective obj(0.5, 3, 3, 2);
  GeneratorOptions opts;
  opts.algorithm = Algorithm::kExhaustive;
  opts.delta = 0.0;
  MappingGenerator gen(s.personal, obj, opts);
  std::vector<SchemaMapping> out;
  GeneratorCounters counters;
  ASSERT_TRUE(gen.Generate(s.cands, s.index, &out, &counters).ok());
  uint64_t first = counters.partial_mappings;
  ASSERT_GT(first, 0u);
  ASSERT_TRUE(gen.Generate(s.cands, s.index, &out, &counters).ok());
  EXPECT_EQ(counters.partial_mappings, 2 * first);
  EXPECT_EQ(out.size(), 4u);
}

// ---------------------------------------------------------------------------
// Property suite: on random scenarios, B&B returns exactly the exhaustive
// result set and never does more work than exhaustive. (The test name
// still names the A* generator it once also checked; renaming it would
// rename every parametrized instance.)
// ---------------------------------------------------------------------------

SchemaTree RandomTree(size_t n, xsm::Rng* rng) {
  SchemaTree t;
  t.AddNode(schema::kInvalidNode, {.name = "n0"});
  for (size_t i = 1; i < n; ++i) {
    t.AddNode(static_cast<NodeId>(rng->Uniform(i)),
              {.name = "n" + std::to_string(i)});
  }
  return t;
}

class GeneratorEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(GeneratorEquivalenceTest, BnBAndAStarMatchExhaustive) {
  auto [personal_size, delta, seed] = GetParam();
  xsm::Rng rng(seed);

  for (int trial = 0; trial < 10; ++trial) {
    SchemaTree personal = RandomTree(static_cast<size_t>(personal_size),
                                     &rng);
    SchemaTree repo = RandomTree(12 + rng.Uniform(20), &rng);
    label::TreeIndex index = label::TreeIndex::Build(repo);

    ClusterCandidates cands;
    cands.tree = 0;
    cands.candidates.resize(personal.size());
    for (auto& list : cands.candidates) {
      size_t count = 1 + rng.Uniform(4);
      std::set<NodeId> chosen;
      while (chosen.size() < count) {
        chosen.insert(static_cast<NodeId>(rng.Uniform(repo.size())));
      }
      for (NodeId n : chosen) {
        list.push_back({NodeRef{0, n}, 0.3 + 0.7 * rng.NextDouble()});
      }
    }

    objective::BellflowerObjective obj(
        0.25 + 0.5 * rng.NextDouble(),
        std::max(1, index.diameter() - 1),
        static_cast<int>(personal.size()),
        static_cast<int>(personal.num_edges()));

    auto run = [&](Algorithm alg) {
      GeneratorOptions opts;
      opts.algorithm = alg;
      opts.delta = delta;
      MappingGenerator gen(personal, obj, opts);
      std::vector<SchemaMapping> out;
      GeneratorCounters counters;
      EXPECT_TRUE(gen.Generate(cands, index, &out, &counters).ok());
      return std::make_pair(out, counters);
    };

    auto [exhaustive, ex_counters] = run(Algorithm::kExhaustive);
    auto [bnb, bnb_counters] = run(Algorithm::kBranchAndBound);

    EXPECT_EQ(Canon(bnb), Canon(exhaustive)) << "seed=" << seed;
    // Pruning never increases work.
    EXPECT_LE(bnb_counters.partial_mappings, ex_counters.partial_mappings);
    // Every emitted mapping respects the threshold and injectivity.
    for (const auto& m : bnb) {
      EXPECT_GE(m.delta, delta);
      std::set<NodeId> uniq(m.images.begin(), m.images.end());
      EXPECT_EQ(uniq.size(), m.images.size());
    }
    // Scores agree between algorithms for identical assignments.
    for (const auto& m : bnb) {
      for (const auto& e : exhaustive) {
        if (e.SameAssignment(m)) {
          EXPECT_DOUBLE_EQ(e.delta, m.delta);
          EXPECT_EQ(e.total_path_length, m.total_path_length);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomScenarios, GeneratorEquivalenceTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(0.5, 0.75, 0.9),
                       ::testing::Values(11u, 29u)));

}  // namespace
}  // namespace xsm::generate
