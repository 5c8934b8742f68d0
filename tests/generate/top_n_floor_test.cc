#include "generate/top_n_floor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

namespace xsm::generate {
namespace {

// The definition the heap replaces: δ raised to the N-th largest of all
// values so far, once there are N of them.
double Reference(std::vector<double> values, size_t n, double delta) {
  if (values.size() < n) return delta;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(n) - 1,
                   values.end(), std::greater<double>());
  return std::max(delta, values[n - 1]);
}

TEST(TopNFloorTest, MatchesNthElementOnRandomSequencesWithTies) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = std::uniform_int_distribution<size_t>(1, 12)(rng);
    const size_t length = std::uniform_int_distribution<size_t>(0, 60)(rng);
    // Few distinct levels force many ties at the N-th position.
    const int levels = std::uniform_int_distribution<int>(1, 8)(rng);
    const double delta = 0.5;
    TopNFloor floor(n);
    std::vector<double> seen;
    for (size_t i = 0; i < length; ++i) {
      const double value =
          0.5 + 0.5 * std::uniform_int_distribution<int>(0, levels)(rng) /
                    levels;
      floor.Add(value);
      seen.push_back(value);
      ASSERT_EQ(floor.full(), seen.size() >= n) << trial << " @" << i;
      ASSERT_EQ(floor.Floor(delta), Reference(seen, n, delta))
          << trial << " @" << i;
    }
  }
}

TEST(TopNFloorTest, NOfOneTracksTheMaximum) {
  TopNFloor floor(1);
  EXPECT_FALSE(floor.full());
  EXPECT_EQ(floor.Floor(0.75), 0.75);
  floor.Add(0.8);
  EXPECT_TRUE(floor.full());
  EXPECT_EQ(floor.Floor(0.75), 0.8);
  floor.Add(0.79);
  EXPECT_EQ(floor.Floor(0.75), 0.8);
  floor.Add(0.9);
  EXPECT_EQ(floor.Floor(0.75), 0.9);
}

TEST(TopNFloorTest, FewerThanNValuesKeepDelta) {
  TopNFloor floor(5);
  for (double v : {0.99, 0.98, 0.97, 0.96}) floor.Add(v);
  EXPECT_FALSE(floor.full());
  EXPECT_EQ(floor.Floor(0.6), 0.6);
  floor.Add(0.95);
  EXPECT_TRUE(floor.full());
  EXPECT_EQ(floor.Floor(0.6), 0.95);
  // The floor never drops below δ itself.
  EXPECT_EQ(floor.Floor(0.97), 0.97);
}

}  // namespace
}  // namespace xsm::generate
