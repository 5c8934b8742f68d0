// Pins the paper's Table 1 as bench_table1 reproduces it: the §5 setting
// (seeded ~9.8k-element repository, seed 2006, personal schema
// name(address,email), δ = 0.75) under the four clustering variants. The
// k-means variants must keep clustering the search space down to a few
// percent of the tree baseline with the same generator work; any change to
// these counts is a behaviour change of the paper's pipeline.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "experiment_common.h"

namespace xsm::bench {
namespace {

struct Table1Row {
  Variant variant;
  size_t useful_clusters;
  double search_space;
  uint64_t partial_mappings;
  size_t mappings;  ///< Δ ≥ 0.75
};

constexpr Table1Row kTable1[] = {
    {Variant::kSmall, 279, 12763, 15079, 6187},
    {Variant::kMedium, 260, 16527, 18955, 7683},
    {Variant::kLarge, 184, 65606, 58799, 18279},
    {Variant::kTree, 128, 266258, 173538, 34468},
};

TEST(Table1Test, VariantsReproduceBenchTable1) {
  auto setup = MakeCanonicalSetup();
  for (const Table1Row& row : kTable1) {
    SCOPED_TRACE(VariantName(row.variant));
    auto result =
        setup->system->Match(setup->personal, VariantOptions(row.variant));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.num_useful_clusters, row.useful_clusters);
    EXPECT_EQ(result->stats.search_space, row.search_space);
    EXPECT_EQ(result->stats.generator.partial_mappings, row.partial_mappings);
    EXPECT_EQ(result->stats.num_mappings, row.mappings);
  }
}

}  // namespace
}  // namespace xsm::bench
