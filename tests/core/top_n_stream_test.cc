// The top-N stream contract of MatchObserver::OnMapping: with top_n = N a
// run reports exactly the mappings whose running rank is ≤ N — the events
// of the unfiltered (top_n = 0) stream with rank ≤ N, in the same order and
// with the same ranks — and every mapping of the final list among them.
// Seeded random personal schemas over a synthetic repository, every N in
// 1…12 plus 0 and SIZE_MAX, with adaptive top-N pruning on and off.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "core/match_observer.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "util/random.h"

namespace xsm::core {
namespace {

struct Event {
  generate::SchemaMapping mapping;
  size_t rank;
};

bool SameMapping(const generate::SchemaMapping& a,
                 const generate::SchemaMapping& b) {
  return a.tree == b.tree && a.images == b.images && a.delta == b.delta &&
         a.delta_sim == b.delta_sim && a.delta_path == b.delta_path;
}

class EventRecorder : public MatchObserver {
 public:
  void OnMapping(const generate::SchemaMapping& mapping,
                 size_t running_rank) override {
    events.push_back({mapping, running_rank});
  }
  std::vector<Event> events;
};

/// A random tree spec of 2–6 nodes: a concept root over fields the
/// synthetic vocabulary knows, each node's parent drawn among the nodes
/// before it.
std::string RandomSpec(Rng& rng) {
  static const char* const kRoots[] = {"person", "customer", "contact",
                                       "book", "order"};
  static const char* const kFields[] = {
      "name",  "address", "phone", "email", "city",  "street",
      "title", "author",  "price", "date",  "item",  "company"};
  const size_t n = static_cast<size_t>(rng.UniformInt(2, 6));
  std::vector<std::vector<size_t>> children(n);
  std::vector<const char*> label(n);
  label[0] = kRoots[rng.Uniform(std::size(kRoots))];
  for (size_t i = 1; i < n; ++i) {
    label[i] = kFields[rng.Uniform(std::size(kFields))];
    children[rng.Uniform(i)].push_back(i);
  }
  std::string spec;
  auto emit = [&](auto&& self, size_t node) -> void {
    spec += label[node];
    if (children[node].empty()) return;
    spec += '(';
    for (size_t c = 0; c < children[node].size(); ++c) {
      if (c > 0) spec += ',';
      self(self, children[node][c]);
    }
    spec += ')';
  };
  emit(emit, 0);
  return spec;
}

TEST(TopNStreamTest, StreamIsTheUnfilteredStreamsEventsWithRankAtMostN) {
  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = 2000;
  repo_options.seed = 5;
  auto forest = repo::GenerateSyntheticRepository(repo_options);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  const Bellflower system(&*forest);

  std::vector<size_t> tops = {0, std::numeric_limits<size_t>::max()};
  for (size_t n = 1; n <= 12; ++n) tops.push_back(n);

  Rng rng(20250611);
  size_t queries_run = 0;
  size_t queries_with_cuts = 0;
  for (int attempt = 0; attempt < 100 && queries_run < 10; ++attempt) {
    const std::string spec = RandomSpec(rng);
    auto personal = schema::ParseTreeSpec(spec);
    ASSERT_TRUE(personal.ok()) << spec;
    MatchOptions base;
    base.delta = 0.5 + 0.05 * static_cast<double>(rng.Uniform(5));
    SCOPED_TRACE(spec + " delta=" + std::to_string(base.delta));
    auto state = system.BuildClusterState(*personal,
                                          ClusterStateOptions::From(base));
    ASSERT_TRUE(state.ok()) << state.status().ToString();

    // The unfiltered stream: top_n = 0 reports every mapping.
    EventRecorder all;
    ExecutionControl control;
    ASSERT_TRUE(
        system.MatchWithState(*personal, *state, base, control, &all).ok());

    // Queries without mappings show nothing; very large streams only
    // slow the suite down.
    if (all.events.empty() || all.events.size() > 5000) continue;
    ++queries_run;
    for (bool adaptive : {false, true}) {
      for (size_t top : tops) {
        SCOPED_TRACE("top=" + std::to_string(top) +
                     " adaptive=" + std::to_string(adaptive));
        MatchOptions options = base;
        options.top_n = top;
        options.adaptive_top_n = adaptive;
        EventRecorder filtered;
        auto streamed = system.MatchWithState(*personal, *state, options,
                                              control, &filtered);
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

        std::vector<Event> want;
        for (const Event& e : all.events) {
          if (top == 0 || e.rank <= top) want.push_back(e);
        }
        ASSERT_EQ(filtered.events.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_TRUE(SameMapping(filtered.events[i].mapping,
                                  want[i].mapping))
              << "event " << i;
          EXPECT_EQ(filtered.events[i].rank, want[i].rank) << "event " << i;
        }
        if (top != 0 && want.size() < all.events.size()) ++queries_with_cuts;

        // The final list equals the blocking run's.
        auto blocking = system.MatchWithState(*personal, *state, options);
        ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
        ASSERT_EQ(streamed->mappings.size(), blocking->mappings.size());
        for (size_t i = 0; i < blocking->mappings.size(); ++i) {
          EXPECT_TRUE(
              SameMapping(streamed->mappings[i], blocking->mappings[i]))
              << "final " << i;
        }

        // Every final mapping was streamed, and a client that keeps the
        // last N events by rank ends holding the final list.
        std::vector<generate::SchemaMapping> held;
        for (const Event& e : filtered.events) {
          ASSERT_GE(e.rank, 1u);
          ASSERT_LE(e.rank, held.size() + 1);
          held.insert(held.begin() + static_cast<std::ptrdiff_t>(e.rank - 1),
                      e.mapping);
          if (top != 0 && held.size() > top) held.pop_back();
        }
        ASSERT_EQ(held.size(), blocking->mappings.size());
        for (size_t i = 0; i < held.size(); ++i) {
          EXPECT_TRUE(SameMapping(held[i], blocking->mappings[i]))
              << "held " << i;
        }
      }
    }
  }
  // The seeded queries must exercise the filter, not only pass it through.
  EXPECT_EQ(queries_run, 10u);
  EXPECT_GT(queries_with_cuts, 0u);
}

}  // namespace
}  // namespace xsm::core
