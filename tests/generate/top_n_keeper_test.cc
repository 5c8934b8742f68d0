#include "generate/top_n_keeper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

namespace xsm::generate {
namespace {

// The definition the keeper's floor replaces: δ raised to the N-th largest
// of all values so far, once there are N of them.
double Reference(std::vector<double> values, size_t n, double delta) {
  if (values.size() < n) return delta;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(n) - 1,
                   values.end(), std::greater<double>());
  return std::max(delta, values[n - 1]);
}

// A mapping with Δ `delta`; distinct `id`s give distinct assignments.
SchemaMapping Mapping(double delta, int id) {
  SchemaMapping mapping;
  mapping.tree = id % 3;
  mapping.images = {id, id + 1};
  mapping.delta = delta;
  return mapping;
}

// The definition the keeper's list and ranks replace: every mapping so far,
// sorted by MappingOrder.
std::vector<SchemaMapping> Sorted(std::vector<SchemaMapping> all) {
  std::sort(all.begin(), all.end(), MappingOrder());
  return all;
}

TEST(TopNKeeperTest, MatchesNthElementOnRandomSequencesWithTies) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = std::uniform_int_distribution<size_t>(1, 12)(rng);
    const size_t length = std::uniform_int_distribution<size_t>(0, 60)(rng);
    // Few distinct levels force many ties at the N-th position.
    const int levels = std::uniform_int_distribution<int>(1, 8)(rng);
    const double delta = 0.5;
    for (bool ranked : {false, true}) {
      TopNKeeper keeper(n, ranked);
      std::mt19937 values(static_cast<uint32_t>(trial));
      std::vector<double> seen;
      for (size_t i = 0; i < length; ++i) {
        const double value =
            0.5 + 0.5 * std::uniform_int_distribution<int>(0, levels)(values) /
                      levels;
        keeper.Offer(Mapping(value, static_cast<int>(i)));
        seen.push_back(value);
        ASSERT_EQ(keeper.full(), seen.size() >= n) << trial << " @" << i;
        ASSERT_EQ(keeper.Floor(delta), Reference(seen, n, delta))
            << trial << " @" << i;
        ASSERT_EQ(keeper.kept(), std::min(n, seen.size()));
        ASSERT_EQ(keeper.offered(), seen.size());
      }
    }
  }
}

TEST(TopNKeeperTest, NOfOneTracksTheMaximum) {
  TopNKeeper keeper(1, /*track_ranks=*/false);
  EXPECT_FALSE(keeper.full());
  EXPECT_EQ(keeper.Floor(0.75), 0.75);
  keeper.Offer(Mapping(0.8, 0));
  EXPECT_TRUE(keeper.full());
  EXPECT_EQ(keeper.Floor(0.75), 0.8);
  keeper.Offer(Mapping(0.79, 1));
  EXPECT_EQ(keeper.Floor(0.75), 0.8);
  keeper.Offer(Mapping(0.9, 2));
  EXPECT_EQ(keeper.Floor(0.75), 0.9);
  const std::vector<SchemaMapping> kept = keeper.Take();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].delta, 0.9);
}

TEST(TopNKeeperTest, FewerThanNValuesKeepDelta) {
  TopNKeeper keeper(5, /*track_ranks=*/true);
  int id = 0;
  for (double v : {0.99, 0.98, 0.97, 0.96}) keeper.Offer(Mapping(v, id++));
  EXPECT_FALSE(keeper.full());
  EXPECT_EQ(keeper.Floor(0.6), 0.6);
  keeper.Offer(Mapping(0.95, id++));
  EXPECT_TRUE(keeper.full());
  EXPECT_EQ(keeper.Floor(0.6), 0.95);
  // The floor never drops below δ itself.
  EXPECT_EQ(keeper.Floor(0.97), 0.97);
}

// Ranks and the final list against the definition: a kept mapping's rank is
// its position among all mappings so far, and a mapping is kept exactly
// when that position is within N.
TEST(TopNKeeperTest, RanksAndListMatchASortOfEverythingOffered) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = std::uniform_int_distribution<size_t>(0, 8)(rng);
    const size_t length = std::uniform_int_distribution<size_t>(0, 50)(rng);
    const int levels = std::uniform_int_distribution<int>(1, 6)(rng);
    TopNKeeper ranked(n, /*track_ranks=*/true);
    TopNKeeper unranked(n, /*track_ranks=*/false);
    std::vector<SchemaMapping> all;
    for (size_t i = 0; i < length; ++i) {
      const SchemaMapping mapping = Mapping(
          std::uniform_int_distribution<int>(0, levels)(rng) * 0.1,
          std::uniform_int_distribution<int>(0, 1000)(rng) * 2);
      // Draws may repeat an assignment; a run never offers one twice.
      if (std::any_of(all.begin(), all.end(), [&](const SchemaMapping& m) {
            return m.SameAssignment(mapping);
          })) {
        continue;
      }
      all.push_back(mapping);
      const std::vector<SchemaMapping> sorted = Sorted(all);
      const size_t position = static_cast<size_t>(
          std::find_if(sorted.begin(), sorted.end(),
                       [&](const SchemaMapping& m) {
                         return m.SameAssignment(mapping);
                       }) -
          sorted.begin());
      const size_t want = n == 0 || position < n ? position + 1 : 0;
      const size_t rank = ranked.Offer(mapping);
      ASSERT_EQ(rank, want) << trial << " @" << i;
      if (rank > 0) {
        EXPECT_TRUE(ranked.AtRank(rank).SameAssignment(mapping));
      }
      EXPECT_EQ(unranked.Offer(mapping), 0u);
    }
    std::vector<SchemaMapping> want = Sorted(all);
    if (n > 0 && want.size() > n) want.resize(n);
    for (TopNKeeper* keeper : {&ranked, &unranked}) {
      EXPECT_EQ(keeper->offered(), all.size());
      const std::vector<SchemaMapping> got = keeper->Take();
      ASSERT_EQ(got.size(), want.size()) << trial;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(got[i].SameAssignment(want[i])) << trial << " #" << i;
        EXPECT_EQ(got[i].delta, want[i].delta);
      }
      EXPECT_EQ(keeper->kept(), 0u);
    }
  }
}

}  // namespace
}  // namespace xsm::generate
