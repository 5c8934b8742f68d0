#include "match/element_matching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "sim/string_similarity.h"

namespace xsm::match {
namespace {

using schema::NodeRef;
using schema::SchemaForest;
using schema::SchemaTree;

SchemaForest MakeRepo() {
  SchemaForest f;
  // Tree 0: library domain with name-ish and address-ish nodes.
  f.AddTree(*schema::ParseTreeSpec(
      "lib(book(title,authorName),address(city))"));
  // Tree 1: person domain.
  f.AddTree(*schema::ParseTreeSpec("person(name,email,addr)"));
  // Tree 2: unrelated vocabulary.
  f.AddTree(*schema::ParseTreeSpec("engine(piston,crankshaft)"));
  return f;
}

SchemaTree Personal() {
  // The experiment's personal schema shape: name(address,email).
  return *schema::ParseTreeSpec("name(address,email)");
}

TEST(ElementMatchingTest, ProducesExpectedSets) {
  SchemaForest repo = MakeRepo();
  SchemaTree personal = Personal();
  ElementMatchingOptions opts;
  // sim("address","addr") = 4/7 ≈ 0.571 must clear the threshold.
  opts.threshold = 0.55;
  auto r = MatchElements(personal, repo, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Personal node 0 = "name": matches person/name exactly.
  const auto& name_set = r->sets[0];
  ASSERT_FALSE(name_set.elements.empty());
  bool has_exact = false;
  for (const auto& e : name_set.elements) {
    if (repo.name(e.node) == "name") {
      has_exact = true;
      EXPECT_DOUBLE_EQ(e.score, 1.0);
    }
    EXPECT_GE(e.score, 0.55);
  }
  EXPECT_TRUE(has_exact);

  // Personal node 1 = "address": matches lib/address (1.0) and person/addr.
  const auto& addr_set = r->sets[1];
  std::vector<std::string> names;
  for (const auto& e : addr_set.elements) {
    names.push_back(repo.name(e.node));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "address"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "addr"), names.end());

  // Nothing in tree 2 should match anything.
  for (const auto& set : r->sets) {
    for (const auto& e : set.elements) {
      EXPECT_NE(e.node.tree, 2);
    }
  }
}

TEST(ElementMatchingTest, SetsSortedByNodeRef) {
  SchemaForest repo = MakeRepo();
  auto r = MatchElements(Personal(), repo, {.threshold = 0.3});
  ASSERT_TRUE(r.ok());
  for (const auto& set : r->sets) {
    EXPECT_TRUE(std::is_sorted(
        set.elements.begin(), set.elements.end(),
        [](const MappingElement& a, const MappingElement& b) {
          return a.node < b.node;
        }));
  }
  EXPECT_TRUE(std::is_sorted(r->distinct_nodes.begin(),
                             r->distinct_nodes.end()));
}

TEST(ElementMatchingTest, MasksMatchSets) {
  SchemaForest repo = MakeRepo();
  auto r = MatchElements(Personal(), repo, {.threshold = 0.5});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->distinct_nodes.size(), r->masks.size());
  // Rebuild sets from masks and compare sizes.
  size_t rebuilt = 0;
  for (uint32_t mask : r->masks) {
    rebuilt += static_cast<size_t>(__builtin_popcount(mask));
    EXPECT_NE(mask, 0u);
    EXPECT_EQ(mask & ~r->FullMask(), 0u);
  }
  EXPECT_EQ(rebuilt, r->total_mapping_elements());
  // Every mask bit corresponds to set membership.
  for (size_t i = 0; i < r->distinct_nodes.size(); ++i) {
    for (size_t b = 0; b < r->sets.size(); ++b) {
      bool in_set = false;
      for (const auto& e : r->sets[b].elements) {
        if (e.node == r->distinct_nodes[i]) {
          in_set = true;
          break;
        }
      }
      EXPECT_EQ(in_set, (r->masks[i] >> b) & 1u)
          << "node " << i << " bit " << b;
    }
  }
}

TEST(ElementMatchingTest, ThresholdMonotonicity) {
  SchemaForest repo = MakeRepo();
  auto low = MatchElements(Personal(), repo, {.threshold = 0.3});
  auto high = MatchElements(Personal(), repo, {.threshold = 0.8});
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_GE(low->total_mapping_elements(), high->total_mapping_elements());
  for (size_t i = 0; i < low->sets.size(); ++i) {
    EXPECT_GE(low->sets[i].size(), high->sets[i].size());
  }
}

TEST(ElementMatchingTest, SmallestSetNode) {
  SchemaForest repo = MakeRepo();
  auto r = MatchElements(Personal(), repo, {.threshold = 0.5});
  ASSERT_TRUE(r.ok());
  schema::NodeId smallest = r->SmallestSetNode();
  ASSERT_NE(smallest, schema::kInvalidNode);
  size_t min_size = r->sets[static_cast<size_t>(smallest)].size();
  for (const auto& s : r->sets) {
    if (s.size() > 0) {
      EXPECT_LE(min_size, s.size());
    }
  }
}

TEST(ElementMatchingTest, AttributeFiltering) {
  SchemaForest repo;
  repo.AddTree(*schema::ParseTreeSpec("book(@title,title)"));
  SchemaTree personal = *schema::ParseTreeSpec("title");
  auto with_attrs =
      MatchElements(personal, repo, {.threshold = 0.9});
  auto without_attrs = MatchElements(
      personal, repo, {.threshold = 0.9, .match_attributes = false});
  ASSERT_TRUE(with_attrs.ok());
  ASSERT_TRUE(without_attrs.ok());
  EXPECT_EQ(with_attrs->sets[0].size(), 2u);
  EXPECT_EQ(without_attrs->sets[0].size(), 1u);
}

TEST(ElementMatchingTest, RejectsBadInputs) {
  SchemaForest repo = MakeRepo();
  SchemaTree empty;
  EXPECT_FALSE(MatchElements(empty, repo, {}).ok());

  SchemaTree too_big;
  schema::NodeId root = too_big.AddNode(schema::kInvalidNode, {.name = "r"});
  for (int i = 0; i < 40; ++i) {
    too_big.AddNode(root, {.name = "c" + std::to_string(i)});
  }
  EXPECT_FALSE(MatchElements(too_big, repo, {}).ok());

  EXPECT_FALSE(MatchElements(Personal(), repo, {.threshold = -0.1}).ok());
  EXPECT_FALSE(MatchElements(Personal(), repo, {.threshold = 1.5}).ok());
}

// The stage's fuzzy name matcher, seen through MatchElements: the score a
// one-node personal schema gets against a one-node repository (0 when the
// pair is not a mapping element).
double NameScore(std::string_view personal_name, std::string_view repo_name) {
  SchemaForest repo;
  repo.AddTree(*schema::ParseTreeSpec(std::string(repo_name)));
  auto r = MatchElements(*schema::ParseTreeSpec(std::string(personal_name)),
                         repo, {.threshold = 0.0});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r->sets[0].elements.empty()) return 0.0;
  return r->sets[0].elements[0].score;
}

TEST(FuzzyNameMatcherTest, ScoresNames) {
  EXPECT_DOUBLE_EQ(NameScore("name", "name"), 1.0);
  EXPECT_DOUBLE_EQ(NameScore("Name", "name"), 1.0);  // case-fold
  EXPECT_GT(NameScore("address", "addr"), 0.5);
  EXPECT_LT(NameScore("email", "shelf"), 0.5);
}

TEST(FuzzyNameMatcherTest, CaseSensitiveVariant) {
  // The engine folds case; the case-sensitive kernel does not.
  EXPECT_LT(sim::FuzzyStringSimilarity("NAME", "name"), 1.0);
  EXPECT_DOUBLE_EQ(NameScore("NAME", "name"), 1.0);
  EXPECT_DOUBLE_EQ(NameScore("NAME", "name"),
                   sim::FuzzyStringSimilarityIgnoreCase("NAME", "name"));
}

TEST(ElementMatchingTest, EmptyRepository) {
  schema::SchemaForest repo;
  auto r = MatchElements(Personal(), repo, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_mapping_elements(), 0u);
  EXPECT_TRUE(r->distinct_nodes.empty());
  EXPECT_EQ(r->SmallestSetNode(), schema::kInvalidNode);
}

}  // namespace
}  // namespace xsm::match
