// A top-N run holds N mappings, not every one above δ. The 9-node query
// below has one rich useful cluster on the 3000:11 repository: its adaptive
// floor rises only between clusters, so generation emits millions of
// mappings with Δ ≥ δ. Each is counted and all but the best 10 dropped, so
// the run's peak memory stays flat however long it goes on.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"

namespace xsm::core {
namespace {

// AddressSanitizer's quarantine holds freed blocks back from reuse, so under
// it peak RSS follows the allocation churn, not the memory the run holds.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRssFollowsLiveMemory = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kRssFollowsLiveMemory = false;
#else
constexpr bool kRssFollowsLiveMemory = true;
#endif
#else
constexpr bool kRssFollowsLiveMemory = true;
#endif

// Peak resident set size of this process (VmHWM), in KiB; -1 if unknown.
long PeakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(TopNMemoryTest, TopTenRunOverMillionsOfMappingsKeepsTen) {
  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = 3000;
  repo_options.seed = 11;
  auto forest = repo::GenerateSyntheticRepository(repo_options);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  auto personal = schema::ParseTreeSpec(
      "person(name,address(street,city,zip),phone,email,birth)");
  ASSERT_TRUE(personal.ok()) << personal.status().ToString();
  Bellflower system(&*forest);
  MatchOptions options;
  options.delta = 0.5;
  options.top_n = 10;
  auto state =
      system.BuildClusterState(*personal, ClusterStateOptions::From(options));
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  ExecutionControl control;
  control.stop_after_n_mappings = 2'000'000;
  const long before = PeakRssKiB();
  if (before < 0) GTEST_SKIP() << "no VmHWM in /proc/self/status";
  auto result = system.MatchWithState(*personal, *state, options, control);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const long growth_kib = PeakRssKiB() - before;

  EXPECT_EQ(result->execution, ExecutionStatus::kEarlyStopped);
  EXPECT_EQ(result->stats.num_mappings, 2'000'000u);
  EXPECT_EQ(result->mappings.size(), 10u);
  if (kRssFollowsLiveMemory) {
    EXPECT_LT(growth_kib, 64 * 1024) << "peak RSS grew by " << growth_kib
                                     << " KiB";
  }
}

}  // namespace
}  // namespace xsm::core
