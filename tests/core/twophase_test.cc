// Tests for the §2.3 non-generic ("two-phase") clustered matching: a
// structural matcher group applied after clustering, within clusters only.
#include <gtest/gtest.h>

#include <string>

#include "core/bellflower.h"
#include "match/structural_matcher.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"

namespace xsm::core {
namespace {

using schema::SchemaForest;
using schema::SchemaTree;

struct Fixture {
  SchemaForest repo;
  SchemaTree personal = *schema::ParseTreeSpec("name(address,email)");

  Fixture() {
    repo.AddTree(*schema::ParseTreeSpec(
        "person(name,contact(address,email),phone)"));
    repo.AddTree(*schema::ParseTreeSpec(
        "customer(fullName,addr,mail,account(email))"));
    repo.AddTree(*schema::ParseTreeSpec("engine(piston,valve)"));
  }
};

MatchOptions Base() {
  MatchOptions o;
  o.element.threshold = 0.55;
  // Personal roots carry no ancestor context, so structural rescoring can
  // halve their scores; keep δ low enough that rescored mappings survive.
  o.delta = 0.25;
  o.clustering = ClusteringMode::kTreeClusters;
  return o;
}

TEST(TwoPhaseTest, DisabledByDefault) {
  Fixture f;
  Bellflower system(&f.repo);
  auto r = system.Match(f.personal, Base());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.structural_evaluations, 0u);
}

TEST(TwoPhaseTest, WithinClustersEvaluatesFewerPairs) {
  Fixture f;
  Bellflower system(&f.repo);

  MatchOptions within = Base();
  within.structural_matcher = &match::CompositeStructuralMatcher::Default();
  within.structural_within_clusters_only = true;
  auto rw = system.Match(f.personal, within);
  ASSERT_TRUE(rw.ok()) << rw.status().ToString();

  MatchOptions global = within;
  global.structural_within_clusters_only = false;
  auto rg = system.Match(f.personal, global);
  ASSERT_TRUE(rg.ok());

  // The §2.3 efficiency claim: the second matcher group sees only the
  // elements inside useful clusters — never more than the global count.
  EXPECT_GT(rw->stats.structural_evaluations, 0u);
  EXPECT_GT(rg->stats.structural_evaluations, 0u);
  EXPECT_LE(rw->stats.structural_evaluations,
            rg->stats.structural_evaluations);
  EXPECT_EQ(rg->stats.structural_evaluations,
            rg->stats.total_mapping_elements);
}

TEST(TwoPhaseTest, StructuralScoresChangeRanking) {
  Fixture f;
  Bellflower system(&f.repo);
  auto plain = system.Match(f.personal, Base());
  ASSERT_TRUE(plain.ok());

  MatchOptions two_phase = Base();
  two_phase.structural_matcher =
      &match::CompositeStructuralMatcher::Default();
  two_phase.structural_weight = 0.5;
  auto structured = system.Match(f.personal, two_phase);
  ASSERT_TRUE(structured.ok());

  // Deltas differ for at least one shared assignment (context evidence
  // moved the scores).
  bool any_change = false;
  for (const auto& a : plain->mappings) {
    for (const auto& b : structured->mappings) {
      if (a.SameAssignment(b) && std::abs(a.delta - b.delta) > 1e-9) {
        any_change = true;
      }
    }
  }
  EXPECT_TRUE(any_change);
}

TEST(TwoPhaseTest, WeightZeroIsNoOpOnScores) {
  Fixture f;
  Bellflower system(&f.repo);
  auto plain = system.Match(f.personal, Base());
  ASSERT_TRUE(plain.ok());

  MatchOptions zero = Base();
  zero.structural_matcher = &match::CompositeStructuralMatcher::Default();
  zero.structural_weight = 0.0;
  auto r = system.Match(f.personal, zero);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->mappings.size(), plain->mappings.size());
  for (size_t i = 0; i < r->mappings.size(); ++i) {
    EXPECT_TRUE(r->mappings[i].SameAssignment(plain->mappings[i]));
    EXPECT_DOUBLE_EQ(r->mappings[i].delta, plain->mappings[i].delta);
  }
  // Evaluations still counted (the matcher ran, its weight was zero).
  EXPECT_GT(r->stats.structural_evaluations, 0u);
}

TEST(TwoPhaseTest, ContextBoostsStructurallyConsistentMapping) {
  // Two repository trees with identical local names; only structure
  // disambiguates: in tree 0 the email sits with name/address under one
  // record, in tree 1 it dangles elsewhere.
  SchemaForest repo;
  repo.AddTree(*schema::ParseTreeSpec(
      "contacts(entry(name,address,email))"));
  repo.AddTree(*schema::ParseTreeSpec(
      "mixed(entry(name,address),junk(stuff(email)))"));
  Bellflower system(&repo);
  SchemaTree personal = *schema::ParseTreeSpec("name(address,email)");

  MatchOptions o;
  o.element.threshold = 0.55;
  o.delta = 0.3;
  o.clustering = ClusteringMode::kTreeClusters;
  o.structural_matcher = &match::CompositeStructuralMatcher::Default();
  o.structural_weight = 0.6;
  auto r = system.Match(personal, o);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r->mappings.size(), 2u);
  // The coherent record (tree 0) must outrank the scattered one.
  EXPECT_EQ(r->mappings.front().tree, 0);
}

TEST(TwoPhaseTest, WorksWithKMeansClustering) {
  repo::SyntheticRepoOptions ro;
  ro.target_elements = 2500;
  ro.seed = 31;
  auto repo = repo::GenerateSyntheticRepository(ro);
  ASSERT_TRUE(repo.ok());
  Bellflower system(&*repo);
  MatchOptions o;
  o.element.threshold = 0.5;
  o.delta = 0.75;
  o.clustering = ClusteringMode::kKMeans;
  o.kmeans.join_distance = 3;
  o.structural_matcher = &match::CompositeStructuralMatcher::Default();
  for (size_t top : {size_t{0}, size_t{5}}) {
    SCOPED_TRACE("top=" + std::to_string(top));
    o.top_n = top;
    auto r = system.Match(*schema::ParseTreeSpec("name(address,email)"), o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->stats.structural_evaluations, 0u);
    EXPECT_GT(r->stats.time_structural_seconds, 0.0);
    // Work bounded by the number of mapping elements.
    EXPECT_LE(r->stats.structural_evaluations,
              r->stats.total_mapping_elements);
    // Exactly the mapping elements of the useful clusters are rescored.
    uint64_t useful_elements = 0;
    for (const ClusterSummary& summary : r->stats.cluster_summaries) {
      if (summary.useful) useful_elements += summary.num_mapping_elements;
    }
    EXPECT_EQ(r->stats.structural_evaluations, useful_elements);
  }
}

}  // namespace
}  // namespace xsm::core
