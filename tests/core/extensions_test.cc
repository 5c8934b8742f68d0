// Tests for the extensions wired into the core pipeline: partial mappings
// (§2.3) and adaptive top-N pruning.
#include <gtest/gtest.h>

#include "core/bellflower.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"

namespace xsm::core {
namespace {

using schema::SchemaForest;
using schema::SchemaTree;

SchemaForest MakeRepo() {
  SchemaForest f;
  // Tree 0: complete region (useful).
  f.AddTree(*schema::ParseTreeSpec(
      "person(name,contact(address,email),phone)"));
  // Tree 1: partial region (no email anywhere -> never useful).
  f.AddTree(*schema::ParseTreeSpec("card(name,address(city,zip))"));
  // Tree 2: noise.
  f.AddTree(*schema::ParseTreeSpec("engine(piston,valve)"));
  return f;
}

SchemaTree Personal() { return *schema::ParseTreeSpec("name(address,email)"); }

MatchOptions BaseOptions() {
  MatchOptions o;
  o.element.threshold = 0.55;
  o.delta = 0.5;
  o.clustering = ClusteringMode::kTreeClusters;
  return o;
}

TEST(PartialMappingsTest, DisabledByDefault) {
  SchemaForest repo = MakeRepo();
  Bellflower system(&repo);
  auto r = system.Match(Personal(), BaseOptions());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->partial_mappings.empty());
  EXPECT_EQ(r->stats.num_partial_mappings, 0u);
}

TEST(PartialMappingsTest, RecoveredFromNonUsefulClusters) {
  SchemaForest repo = MakeRepo();
  Bellflower system(&repo);
  MatchOptions o = BaseOptions();
  o.include_partial_mappings = true;
  o.partial.delta = 0.3;
  o.partial.min_assigned = 2;
  auto r = system.Match(Personal(), o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->partial_mappings.size(), 0u);
  EXPECT_EQ(r->stats.num_partial_mappings, r->partial_mappings.size());
  for (const auto& pm : r->partial_mappings) {
    EXPECT_EQ(pm.tree, 1);  // only the card tree is partial-capable
    EXPECT_GE(pm.assigned_count, 2);
    EXPECT_LT(pm.Coverage(), 1.0);
    EXPECT_GE(pm.delta, 0.3);
    // Ranked descending.
  }
  for (size_t i = 1; i < r->partial_mappings.size(); ++i) {
    EXPECT_GE(r->partial_mappings[i - 1].delta,
              r->partial_mappings[i].delta);
  }
  // Complete mappings are unaffected by the extension.
  auto base = system.Match(Personal(), BaseOptions());
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->mappings.size(), r->mappings.size());
}

TEST(AdaptiveTopNTest, SameTopNWithLessWork) {
  repo::SyntheticRepoOptions ro;
  ro.target_elements = 4000;
  ro.seed = 41;
  auto repo = repo::GenerateSyntheticRepository(ro);
  ASSERT_TRUE(repo.ok());
  Bellflower system(&*repo);
  SchemaTree personal = *schema::ParseTreeSpec("name(address,email)");

  MatchOptions full;
  full.element.threshold = 0.5;
  full.delta = 0.75;
  full.clustering = ClusteringMode::kTreeClusters;

  MatchOptions adaptive = full;
  adaptive.top_n = 10;
  adaptive.adaptive_top_n = true;

  MatchOptions truncate_only = full;
  truncate_only.top_n = 10;
  truncate_only.adaptive_top_n = false;

  auto rf = system.Match(personal, full);
  auto ra = system.Match(personal, adaptive);
  auto rt = system.Match(personal, truncate_only);
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rt.ok());
  ASSERT_GE(rf->mappings.size(), 10u);

  // The adaptive run returns exactly the same top N as plain truncation.
  ASSERT_EQ(ra->mappings.size(), 10u);
  ASSERT_EQ(rt->mappings.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(ra->mappings[i].SameAssignment(rt->mappings[i])) << i;
    EXPECT_DOUBLE_EQ(ra->mappings[i].delta, rt->mappings[i].delta);
  }
  // And it does no more work (strictly less on multi-cluster corpora).
  EXPECT_LE(ra->stats.generator.partial_mappings,
            rt->stats.generator.partial_mappings);
}

}  // namespace
}  // namespace xsm::core
