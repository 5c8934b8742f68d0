// Stage ④ equivalence. MatchWithState builds candidate lists through a
// rank index and only for clusters generation reaches, skips a cluster
// whose B&B bound at its best scores cannot reach max(δ, adaptive floor)
// (crediting the root-loop counts the generator would have made), and
// keeps only the top N mappings. The test-local reference here is the
// plain pipeline: every cluster's lists from BuildClusterCandidates, a
// fresh MappingGenerator on every useful cluster with no skip, every
// mapping kept, and the adaptive floor and running ranks recomputed from
// all mappings found so far. Mappings, every counter, the cluster
// summaries and the observer's event sequence must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "core/match_observer.h"
#include "match/structural_matcher.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"

namespace xsm::core {
namespace {

using generate::SchemaMapping;

// One observer callback, flattened for comparison.
struct Event {
  enum Kind { kStart, kFinish, kMapping };
  Kind kind = kStart;
  size_t sequence = 0;
  size_t total = 0;
  ClusterSummary summary;
  // kFinish: the stats snapshot.
  size_t num_mappings = 0;
  generate::GeneratorCounters generator;
  // kMapping.
  SchemaMapping mapping;
  size_t rank = 0;
};

Event StartEvent(size_t sequence, size_t total, const ClusterSummary& s) {
  Event e;
  e.kind = Event::kStart;
  e.sequence = sequence;
  e.total = total;
  e.summary = s;
  return e;
}

Event FinishEvent(size_t sequence, size_t total, const ClusterSummary& s,
                  const MatchStats& stats) {
  Event e = StartEvent(sequence, total, s);
  e.kind = Event::kFinish;
  e.num_mappings = stats.num_mappings;
  e.generator = stats.generator;
  return e;
}

Event MappingEvent(const SchemaMapping& mapping, size_t rank) {
  Event e;
  e.kind = Event::kMapping;
  e.mapping = mapping;
  e.rank = rank;
  return e;
}

class Recorder : public MatchObserver {
 public:
  void OnClusterStart(size_t sequence, size_t total,
                      const ClusterSummary& summary) override {
    events.push_back(StartEvent(sequence, total, summary));
  }
  void OnClusterFinish(size_t sequence, size_t total,
                       const ClusterSummary& summary,
                       const MatchStats& stats) override {
    events.push_back(FinishEvent(sequence, total, summary, stats));
  }
  void OnMapping(const SchemaMapping& mapping, size_t rank) override {
    events.push_back(MappingEvent(mapping, rank));
  }
  std::vector<Event> events;
};

struct Outcome {
  std::vector<SchemaMapping> mappings;
  MatchStats stats;
  std::vector<Event> events;
  /// Useful clusters whose cluster-level bound is below their effective δ.
  size_t skippable = 0;
  /// Per useful cluster in generation order: partial mappings counted
  /// before it, |C_root|, and whether the bound is below its δ.
  struct Visit {
    uint64_t partial_before = 0;
    size_t root_count = 0;
    bool skippable = false;
  };
  std::vector<Visit> visits;
};

// The plain stage ④ (see the file comment).
Outcome Reference(const Bellflower& system, const schema::SchemaTree& personal,
                  const ClusterState& state, const MatchOptions& options,
                  const std::vector<size_t>* subset) {
  Outcome out;
  MatchStats& stats = out.stats;
  const size_t m = personal.size();
  const objective::BellflowerObjective objective(
      options.objective.alpha, system.ResolveK(options.objective),
      static_cast<int>(m), static_cast<int>(personal.num_edges()));
  const auto& clusters = state.clustering.clusters;
  std::vector<size_t> considered(clusters.size());
  std::iota(considered.begin(), considered.end(), size_t{0});
  if (subset != nullptr) considered = *subset;
  const bool structural = options.structural_matcher != nullptr;

  std::vector<generate::ClusterCandidates> cands(clusters.size());
  std::vector<size_t> useful;
  std::vector<size_t> summary_at(clusters.size());
  for (size_t ci : considered) {
    const cluster::Cluster& c = clusters[ci];
    cands[ci] = BuildClusterCandidates(state.matching, state.points, c);
    ClusterSummary s;
    s.tree = c.tree;
    s.num_points = c.members.size();
    for (int32_t p : c.members) {
      s.num_mapping_elements += static_cast<size_t>(
          std::popcount(state.points[static_cast<size_t>(p)].personal_mask));
    }
    s.useful = c.useful(state.matching.FullMask()) && cands[ci].useful();
    if (s.useful) {
      if (structural) {
        const double w = options.structural_weight;
        for (size_t n = 0; n < m; ++n) {
          for (auto& e : cands[ci].candidates[n]) {
            e.score = (1.0 - w) * e.score +
                      w * options.structural_matcher->Score(
                              personal, static_cast<schema::NodeId>(n),
                              system.repository().tree(c.tree), e.node.node);
          }
        }
      }
      s.search_space = cands[ci].SearchSpaceSize();
      useful.push_back(ci);
    }
    summary_at[ci] = stats.cluster_summaries.size();
    stats.cluster_summaries.push_back(s);
  }

  const std::vector<schema::NodeId> order = personal.PreOrder();
  const bool bnb =
      options.generator.algorithm == generate::Algorithm::kBranchAndBound;
  const bool adaptive = options.adaptive_top_n && options.top_n > 0 && bnb;
  std::vector<SchemaMapping> all;     // emission order
  std::vector<SchemaMapping> ranked;  // MappingOrder
  for (size_t seq = 0; seq < useful.size(); ++seq) {
    const size_t ci = useful[seq];
    const ClusterSummary& summary = stats.cluster_summaries[summary_at[ci]];
    out.events.push_back(StartEvent(seq, useful.size(), summary));
    generate::GeneratorOptions g = options.generator;
    g.delta = options.delta;
    if (adaptive && all.size() >= options.top_n) {
      std::vector<double> deltas;
      for (const SchemaMapping& mp : all) deltas.push_back(mp.delta);
      std::nth_element(deltas.begin(),
                       deltas.begin() + static_cast<long>(options.top_n) - 1,
                       deltas.end(), std::greater<double>());
      g.delta = std::max(g.delta, deltas[options.top_n - 1]);
    }

    Outcome::Visit visit;
    visit.partial_before = stats.generator.partial_mappings;
    const auto& root_list = cands[ci].candidates[static_cast<size_t>(order[0])];
    visit.root_count = root_list.size();
    if (bnb && !structural && m >= 2) {
      std::vector<double> best(m, 0.0);
      for (size_t n = 0; n < m; ++n) {
        for (const auto& e : cands[ci].candidates[n]) {
          best[n] = std::max(best[n], e.score);
        }
      }
      double tail = 0.0;
      for (size_t p = m; --p > 0;) tail += best[static_cast<size_t>(order[p])];
      visit.skippable =
          objective.UpperBound(best[static_cast<size_t>(order[0])], tail,
                               static_cast<int64_t>(m) - 1,
                               static_cast<int>(m) - 1) < g.delta;
    }
    out.skippable += visit.skippable ? 1 : 0;
    out.visits.push_back(visit);

    ExecutionMonitor monitor;
    monitor.on_emit = [&]() {
      const SchemaMapping& mp = all.back();
      auto at =
          std::upper_bound(ranked.begin(), ranked.end(), mp,
                           generate::MappingOrder());
      const size_t rank = static_cast<size_t>(at - ranked.begin()) + 1;
      ranked.insert(at, mp);
      if (options.top_n == 0 || rank <= options.top_n) {
        out.events.push_back(MappingEvent(mp, rank));
      }
      // Positions past N never matter again.
      if (options.top_n > 0 && ranked.size() > options.top_n) {
        ranked.pop_back();
      }
    };
    generate::MappingGenerator generator(personal, objective, g);
    EXPECT_TRUE(generator
                    .Generate(cands[ci], system.index().tree(cands[ci].tree),
                              &all, &stats.generator, &monitor)
                    .ok());
    stats.num_mappings = all.size();
    out.events.push_back(FinishEvent(seq, useful.size(), summary, stats));
  }
  stats.num_mappings = all.size();
  std::sort(all.begin(), all.end(), generate::MappingOrder());
  if (options.top_n > 0 && all.size() > options.top_n) {
    all.resize(options.top_n);
  }
  out.mappings = std::move(all);
  return out;
}

void ExpectSameMapping(const SchemaMapping& want, const SchemaMapping& got,
                       const std::string& context) {
  EXPECT_EQ(got.tree, want.tree) << context;
  EXPECT_EQ(got.images, want.images) << context;
  EXPECT_EQ(got.delta, want.delta) << context;
  EXPECT_EQ(got.delta_sim, want.delta_sim) << context;
  EXPECT_EQ(got.delta_path, want.delta_path) << context;
  EXPECT_EQ(got.total_path_length, want.total_path_length) << context;
}

void ExpectSameCounters(const generate::GeneratorCounters& want,
                        const generate::GeneratorCounters& got,
                        const std::string& context) {
  EXPECT_EQ(got.partial_mappings, want.partial_mappings) << context;
  EXPECT_EQ(got.complete_mappings, want.complete_mappings) << context;
  EXPECT_EQ(got.pruned_by_bound, want.pruned_by_bound) << context;
  EXPECT_EQ(got.emitted, want.emitted) << context;
  EXPECT_EQ(got.truncated, want.truncated) << context;
}

void ExpectSameSummary(const ClusterSummary& want, const ClusterSummary& got,
                       const std::string& context) {
  EXPECT_EQ(got.tree, want.tree) << context;
  EXPECT_EQ(got.num_points, want.num_points) << context;
  EXPECT_EQ(got.num_mapping_elements, want.num_mapping_elements) << context;
  EXPECT_EQ(got.useful, want.useful) << context;
  EXPECT_EQ(got.search_space, want.search_space) << context;
}

void ExpectSameResult(const Outcome& want, const MatchResult& got,
                      const std::string& context) {
  ASSERT_EQ(got.execution, ExecutionStatus::kCompleted) << context;
  ASSERT_EQ(got.mappings.size(), want.mappings.size()) << context;
  for (size_t i = 0; i < want.mappings.size(); ++i) {
    ExpectSameMapping(want.mappings[i], got.mappings[i],
                      context + " mapping #" + std::to_string(i));
  }
  ExpectSameCounters(want.stats.generator, got.stats.generator, context);
  EXPECT_EQ(got.stats.num_mappings, want.stats.num_mappings) << context;
  ASSERT_EQ(got.stats.cluster_summaries.size(),
            want.stats.cluster_summaries.size())
      << context;
  for (size_t i = 0; i < want.stats.cluster_summaries.size(); ++i) {
    ExpectSameSummary(want.stats.cluster_summaries[i],
                      got.stats.cluster_summaries[i],
                      context + " summary #" + std::to_string(i));
  }
}

void ExpectSameEvents(const std::vector<Event>& want,
                      const std::vector<Event>& got,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    const std::string at = context + " event #" + std::to_string(i);
    ASSERT_EQ(got[i].kind, want[i].kind) << at;
    switch (want[i].kind) {
      case Event::kMapping:
        EXPECT_EQ(got[i].rank, want[i].rank) << at;
        ExpectSameMapping(want[i].mapping, got[i].mapping, at);
        break;
      case Event::kFinish:
        EXPECT_EQ(got[i].num_mappings, want[i].num_mappings) << at;
        ExpectSameCounters(want[i].generator, got[i].generator, at);
        [[fallthrough]];
      case Event::kStart:
        EXPECT_EQ(got[i].sequence, want[i].sequence) << at;
        EXPECT_EQ(got[i].total, want[i].total) << at;
        ExpectSameSummary(want[i].summary, got[i].summary, at);
        break;
    }
  }
}

// Runs MatchWithState with and without an observer and holds both to the
// reference. Returns the reference outcome.
Outcome ExpectMatchesReference(const Bellflower& system,
                               const schema::SchemaTree& personal,
                               const ClusterState& state,
                               const MatchOptions& options,
                               const std::string& context,
                               const std::vector<size_t>* subset = nullptr) {
  Outcome want = Reference(system, personal, state, options, subset);
  const ExecutionControl control;
  auto plain = system.MatchWithState(personal, state, options, control,
                                     /*observer=*/nullptr, subset);
  EXPECT_TRUE(plain.ok()) << context;
  if (plain.ok()) ExpectSameResult(want, *plain, context + " unobserved");
  Recorder recorder;
  auto observed =
      system.MatchWithState(personal, state, options, control, &recorder,
                            subset);
  EXPECT_TRUE(observed.ok()) << context;
  if (observed.ok()) {
    ExpectSameResult(want, *observed, context + " observed");
    ExpectSameEvents(want.events, recorder.events, context + " observed");
  }
  return want;
}

// A random tree spec of 1–6 nodes over names the synthetic repository uses.
std::string RandomSpec(std::mt19937& rng) {
  static const char* const kWords[] = {
      "person", "name",  "address", "email", "phone", "city",
      "street", "zip",   "title",   "book",  "order", "item",
      "price",  "date",  "customer", "author", "company", "contact"};
  std::uniform_int_distribution<size_t> word(0, std::size(kWords) - 1);
  const int nodes = std::uniform_int_distribution<int>(1, 6)(rng);
  std::vector<std::vector<int>> children(static_cast<size_t>(nodes));
  for (int i = 1; i < nodes; ++i) {
    children[static_cast<size_t>(
                 std::uniform_int_distribution<int>(0, i - 1)(rng))]
        .push_back(i);
  }
  std::vector<std::string> labels;
  for (int i = 0; i < nodes; ++i) labels.push_back(kWords[word(rng)]);
  auto render = [&](auto&& self, int n) -> std::string {
    std::string out = labels[static_cast<size_t>(n)];
    const auto& kids = children[static_cast<size_t>(n)];
    if (kids.empty()) return out;
    out += "(";
    for (size_t k = 0; k < kids.size(); ++k) {
      if (k > 0) out += ",";
      out += self(self, kids[k]);
    }
    return out + ")";
  };
  return render(render, 0);
}

// Σ over clusters of Π_n |ME_n ∩ cluster|: the size of an unpruned search.
double SearchSpace(const ClusterState& state) {
  double total = 0;
  for (const cluster::Cluster& c : state.clustering.clusters) {
    total += BuildClusterCandidates(state.matching, state.points, c)
                 .SearchSpaceSize();
  }
  return total;
}

struct Query {
  std::string context;
  schema::SchemaTree personal;
  ClusterState state;
};

// Seeded repositories × random 1–6-node schemas × k-means and tree
// clusters.
class ClusterBoundTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    forests_ = new std::vector<schema::SchemaForest>();
    systems_ = new std::vector<std::unique_ptr<Bellflower>>();
    queries_ = new std::vector<std::pair<size_t, Query>>();
    const std::vector<uint64_t> seeds = {3, 11, 2006};
    forests_->reserve(seeds.size());
    for (uint64_t seed : seeds) {
      repo::SyntheticRepoOptions repo_options;
      repo_options.target_elements = 1500;
      repo_options.seed = seed;
      auto forest = repo::GenerateSyntheticRepository(repo_options);
      ASSERT_TRUE(forest.ok()) << forest.status().ToString();
      forests_->push_back(std::move(*forest));
    }
    for (size_t r = 0; r < seeds.size(); ++r) {
      systems_->push_back(std::make_unique<Bellflower>(&(*forests_)[r]));
      std::mt19937 rng(static_cast<uint32_t>(seeds[r]));
      for (int q = 0; q < 6; ++q) {
        const std::string spec = RandomSpec(rng);
        auto personal = schema::ParseTreeSpec(spec);
        ASSERT_TRUE(personal.ok()) << spec;
        for (ClusteringMode mode :
             {ClusteringMode::kKMeans, ClusteringMode::kTreeClusters}) {
          ClusterStateOptions options;
          options.clustering = mode;
          auto state = (*systems_)[r]->BuildClusterState(*personal, options);
          ASSERT_TRUE(state.ok()) << state.status().ToString();
          Query query;
          query.context = "seed " + std::to_string(seeds[r]) + " " + spec +
                          (mode == ClusteringMode::kKMeans ? " kmeans"
                                                           : " tree");
          query.personal = *personal;
          query.state = std::move(*state);
          queries_->emplace_back(r, std::move(query));
        }
      }
    }
  }
  static void TearDownTestSuite() {
    delete queries_;
    delete systems_;
    delete forests_;
  }

  static std::vector<schema::SchemaForest>* forests_;
  static std::vector<std::unique_ptr<Bellflower>>* systems_;
  static std::vector<std::pair<size_t, Query>>* queries_;
};

std::vector<schema::SchemaForest>* ClusterBoundTest::forests_ = nullptr;
std::vector<std::unique_ptr<Bellflower>>* ClusterBoundTest::systems_ =
    nullptr;
std::vector<std::pair<size_t, Query>>* ClusterBoundTest::queries_ = nullptr;

constexpr size_t kAll = std::numeric_limits<size_t>::max();

TEST_F(ClusterBoundTest, DeltaTopNAndAdaptiveSweepMatchesReference) {
  size_t skippable = 0;
  for (const auto& [r, query] : *queries_) {
    const Bellflower& system = *(*systems_)[r];
    // δ = 0 keeps every complete mapping, and ranking every mapping costs
    // O(mappings) each: only small searches.
    const bool small = SearchSpace(query.state) <= 20000;
    for (double delta : {0.0, 0.5, 0.75, 0.9}) {
      if (delta == 0.0 && !small) continue;
      for (size_t top : {size_t{0}, size_t{1}, size_t{3}, size_t{10}, kAll}) {
        if ((top == 0 || top == kAll) && delta <= 0.5 && !small) continue;
        for (bool adaptive : {true, false}) {
          MatchOptions options;
          options.delta = delta;
          options.top_n = top;
          options.adaptive_top_n = adaptive;
          const std::string context =
              query.context + " δ=" + std::to_string(delta) +
              " top=" + std::to_string(top) +
              (adaptive ? " adaptive" : " fixed");
          skippable += ExpectMatchesReference(system, query.personal,
                                              query.state, options, context)
                           .skippable;
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // The sweep must reach the skip.
  EXPECT_GT(skippable, 0u);
}

// Structural scoring inside clusters: each useful cluster's lists are
// rescored before its generator runs, and no cluster is skipped.
TEST_F(ClusterBoundTest, EagerListsMatchReference) {
  match::PathContextMatcher structural;
  for (const auto& [r, query] : *queries_) {
    const Bellflower& system = *(*systems_)[r];
    for (size_t top : {size_t{0}, size_t{3}}) {
      if (top == 0 && SearchSpace(query.state) > 20000) continue;
      MatchOptions options;
      options.delta = 0.6;
      options.top_n = top;
      options.structural_matcher = &structural;
      ExpectMatchesReference(system, query.personal, query.state, options,
                             query.context + " structural top=" +
                                 std::to_string(top));
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(ClusterBoundTest, ClusterSubsetMatchesReference) {
  std::mt19937 rng(5);
  for (const auto& [r, query] : *queries_) {
    const size_t clusters = query.state.clustering.clusters.size();
    std::vector<size_t> subset(clusters);
    std::iota(subset.begin(), subset.end(), size_t{0});
    std::shuffle(subset.begin(), subset.end(), rng);
    subset.resize(std::min(clusters, clusters / 2 + 1));
    for (size_t top : {size_t{0}, size_t{1}, size_t{10}}) {
      if (top == 0 && SearchSpace(query.state) > 20000) continue;
      MatchOptions options;
      options.delta = 0.5;
      options.top_n = top;
      ExpectMatchesReference(*(*systems_)[r], query.personal, query.state,
                             options,
                             query.context + " subset top=" +
                                 std::to_string(top),
                             &subset);
      if (HasFatalFailure()) return;
    }
  }
}

// A partial-mapping budget that runs out inside the root loop of a cluster
// the bound would skip: the run must fall through to the generator, so the
// count stops at the budget and `truncated` is set where it always was.
TEST_F(ClusterBoundTest, BudgetInsideASkippedRootLoopMatchesReference) {
  size_t exercised = 0;
  for (const auto& [r, query] : *queries_) {
    const Bellflower& system = *(*systems_)[r];
    for (size_t top : {size_t{0}, size_t{1}}) {
      MatchOptions options;
      options.delta = 0.75;
      options.top_n = top;
      const Outcome unbudgeted =
          Reference(system, query.personal, query.state, options, nullptr);
      for (const Outcome::Visit& visit : unbudgeted.visits) {
        if (!visit.skippable || visit.root_count < 2) continue;
        for (uint64_t into : {uint64_t{0}, uint64_t{1},
                              uint64_t{visit.root_count - 1},
                              uint64_t{visit.root_count}}) {
          MatchOptions budgeted = options;
          budgeted.generator.max_partial_mappings =
              visit.partial_before + into;
          if (budgeted.generator.max_partial_mappings == 0) continue;
          ExpectMatchesReference(system, query.personal, query.state,
                                 budgeted,
                                 query.context + " budget " +
                                     std::to_string(visit.partial_before) +
                                     "+" + std::to_string(into) +
                                     " top=" + std::to_string(top));
          if (HasFatalFailure()) return;
          ++exercised;
        }
        break;  // one skippable cluster per query is enough
      }
    }
  }
  EXPECT_GT(exercised, 0u);
}

}  // namespace
}  // namespace xsm::core
