#include "core/bellflower.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <optional>

#include "core/match_observer.h"
#include "generate/top_n_keeper.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace xsm::core {

using generate::SchemaMapping;
using schema::NodeRef;

generate::ClusterCandidates BuildClusterCandidates(
    const match::ElementMatchingResult& matching,
    const std::vector<cluster::ClusterPoint>& points,
    const cluster::Cluster& cluster) {
  generate::ClusterCandidates cands;
  cands.tree = cluster.tree;
  cands.candidates.resize(matching.sets.size());
  // Members in NodeRef order (already point order for states built here)
  // make every list come out sorted, exactly as ME_n orders it.
  std::vector<int32_t> members = cluster.members;
  auto node_of = [&points](int32_t m) {
    return points[static_cast<size_t>(m)].node;
  };
  std::sort(members.begin(), members.end(), [&](int32_t a, int32_t b) {
    return node_of(a) < node_of(b);
  });
  // Per personal node, the ME_n position after the last hit: later members
  // have larger NodeRefs, so each search resumes there.
  std::array<size_t, match::kMaxPersonalNodes> resume{};
  for (int32_t m : members) {
    const cluster::ClusterPoint& point = points[static_cast<size_t>(m)];
    for (uint32_t bits = point.personal_mask; bits != 0; bits &= bits - 1) {
      const size_t n = static_cast<size_t>(std::countr_zero(bits));
      const std::vector<match::MappingElement>& me =
          matching.sets[n].elements;
      auto it = std::lower_bound(
          me.begin() + static_cast<std::ptrdiff_t>(resume[n]), me.end(),
          point.node, [](const match::MappingElement& e, const NodeRef& node) {
            return e.node < node;
          });
      // Bit n of a point's mask is set exactly when its node is in ME_n, so
      // the search always hits.
      assert(it != me.end() && it->node == point.node);
      cands.candidates[n].push_back(*it);
      resume[n] = static_cast<size_t>(it - me.begin()) + 1;
    }
  }
  return cands;
}

namespace {

// Where each mapping element of a run sits in its ME_n: the j-th set bit n
// of point i's mask is ME_n[rank[begin[i] + j]]. Points and every ME_n
// share NodeRef order (MatchElements emits both from one sorted sweep), so
// that index is the number of earlier points carrying bit n, and one pass
// over the masks finds them all.
struct RankIndex {
  std::vector<uint32_t> begin;  ///< per point, plus an end sentinel
  std::vector<uint32_t> rank;

  RankIndex(const std::vector<cluster::ClusterPoint>& points,
            size_t total_elements) {
    begin.reserve(points.size() + 1);
    rank.reserve(total_elements);
    std::array<uint32_t, match::kMaxPersonalNodes> seen{};
    for (const cluster::ClusterPoint& point : points) {
      begin.push_back(static_cast<uint32_t>(rank.size()));
      for (uint32_t bits = point.personal_mask; bits != 0; bits &= bits - 1) {
        rank.push_back(seen[static_cast<size_t>(std::countr_zero(bits))]++);
      }
    }
    begin.push_back(static_cast<uint32_t>(rank.size()));
  }

  /// Calls `visit(n, element)` for each mapping element of point `i`.
  template <typename Visit>
  void ForEachElement(const match::ElementMatchingResult& matching,
                      const std::vector<cluster::ClusterPoint>& points,
                      size_t i, Visit&& visit) const {
    const uint32_t* r = rank.data() + begin[i];
    for (uint32_t bits = points[i].personal_mask; bits != 0;
         bits &= bits - 1, ++r) {
      const size_t n = static_cast<size_t>(std::countr_zero(bits));
      const match::MappingElement& element = matching.sets[n].elements[*r];
      assert(element.node == points[i].node);
      visit(n, element);
    }
  }
};

// BuildClusterCandidates through the rank index, into `cands`' reused
// buffers. The clusterers list members in point order, so every list comes
// out in NodeRef order without a sort.
void FillClusterCandidates(const match::ElementMatchingResult& matching,
                           const std::vector<cluster::ClusterPoint>& points,
                           const RankIndex& ranks,
                           const cluster::Cluster& cluster,
                           generate::ClusterCandidates* cands) {
  cands->tree = cluster.tree;
  cands->candidates.resize(matching.sets.size());
  for (auto& list : cands->candidates) list.clear();
  assert(std::is_sorted(cluster.members.begin(), cluster.members.end()));
  for (int32_t m : cluster.members) {
    ranks.ForEachElement(matching, points, static_cast<size_t>(m),
                         [cands](size_t n, const match::MappingElement& e) {
                           cands->candidates[n].push_back(e);
                         });
  }
}

}  // namespace

Bellflower::Bellflower(const schema::SchemaForest* repository)
    : repository_(repository) {
  index_ = label::ForestIndex::Build(*repository);
}

Bellflower::Bellflower(const schema::SchemaForest* repository,
                       label::ForestIndex index)
    : repository_(repository), index_(std::move(index)) {
  assert(index_.num_trees() == repository_->num_trees());
}

double Bellflower::ResolveK(const objective::ObjectiveParams& params) const {
  if (params.k_norm > 0) return params.k_norm;
  return std::max(1, index_.max_diameter() - 1);
}

Result<MatchResult> Bellflower::Match(const schema::SchemaTree& personal,
                                      const MatchOptions& options) const {
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  XSM_ASSIGN_OR_RETURN(
      ClusterState state,
      BuildClusterState(personal, ClusterStateOptions::From(options)));
  return MatchWithStateImpl(personal, state, options, nullptr, nullptr);
}

Result<MatchResult> Bellflower::Match(const schema::SchemaTree& personal,
                                      const MatchOptions& options,
                                      const ExecutionControl& control,
                                      MatchObserver* observer) const {
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  // Already cancelled / past deadline: don't pay for preprocessing.
  ExecutionMonitor pre(control);
  if (pre.ShouldStop()) {
    MatchResult result;
    result.stats.repository_nodes = repository_->total_nodes();
    result.stats.repository_trees = repository_->num_trees();
    result.execution = pre.status();
    if (observer != nullptr) observer->OnFinish(result);
    return result;
  }
  // The element-matching stage polls `control` too; a build it stops comes
  // back as kCancelled / kDeadlineExceeded and is folded into the same
  // partial-result contract as a stop during generation.
  Result<ClusterState> built =
      BuildClusterState(personal, ClusterStateOptions::From(options),
                        &control);
  if (!built.ok()) {
    const StatusCode code = built.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      MatchResult result;
      result.stats.repository_nodes = repository_->total_nodes();
      result.stats.repository_trees = repository_->num_trees();
      result.execution = code == StatusCode::kCancelled
                             ? ExecutionStatus::kCancelled
                             : ExecutionStatus::kDeadlineExceeded;
      if (observer != nullptr) observer->OnFinish(result);
      return result;
    }
    return built.status();
  }
  return MatchWithStateImpl(personal, built.value(), options, &control,
                            observer);
}

Result<ClusterState> Bellflower::BuildClusterState(
    const schema::SchemaTree& personal, const ClusterStateOptions& options,
    const ExecutionControl* control) const {
  return BuildClusterState(
      personal, options, control,
      [&](const match::ElementMatchingOptions& element) {
        return match::MatchElements(personal, *repository_, element);
      },
      /*note=*/{});
}

Result<ClusterState> Bellflower::BuildClusterState(
    const schema::SchemaTree& personal, const ClusterStateOptions& options,
    const ExecutionControl* control, const ElementMatchFn& match_elements,
    std::string note) const {
  if (personal.empty()) {
    return Status::InvalidArgument("personal schema is empty");
  }
  XSM_RETURN_NOT_OK(personal.Validate());

  ClusterState state;

  // --- Stage ②③: element matching. ---------------------------------------
  Timer timer;
  match::ElementMatchingOptions element = options.element;
  if (element.control == nullptr) element.control = control;
  obs::TraceContext* trace =
      element.control != nullptr ? element.control->trace : nullptr;
  {
    obs::ScopedSpan span(trace, "element_match");
    XSM_ASSIGN_OR_RETURN(state.matching, match_elements(element));
    if (!note.empty()) span.set_note(std::move(note));
  }
  return ClusterFromMatching(personal, std::move(state.matching),
                             timer.ElapsedSeconds(), options, control);
}

Result<ClusterState> Bellflower::ClusterFromMatching(
    const schema::SchemaTree& personal, match::ElementMatchingResult matching,
    double matching_seconds, const ClusterStateOptions& options,
    const ExecutionControl* control) const {
  ClusterState state;
  state.matching = std::move(matching);
  state.time_matching_seconds = matching_seconds;
  obs::TraceContext* trace = control != nullptr ? control->trace : nullptr;
  if (trace == nullptr && options.element.control != nullptr) {
    trace = options.element.control->trace;
  }

  if (state.matching.distinct_nodes.empty()) {
    return state;  // No mapping elements anywhere: nothing to cluster.
  }

  // Cluster points = distinct matched repository nodes. Element scores are
  // deliberately not part of a point: clustering depends only on node
  // positions and masks, which is what makes the state reusable across
  // generation-phase option changes (δ, top-N, structural matchers, ...).
  state.points.reserve(state.matching.distinct_nodes.size());
  for (size_t i = 0; i < state.matching.distinct_nodes.size(); ++i) {
    state.points.push_back(
        {state.matching.distinct_nodes[i], state.matching.masks[i]});
  }

  // --- Stage ⓒ: clustering. ----------------------------------------------
  Timer timer;
  obs::ScopedSpan cluster_span(trace, "clustering");
  if (options.clustering == ClusteringMode::kTreeClusters) {
    state.clustering = cluster::TreeClusters(state.points);
  } else {
    std::vector<size_t> set_sizes(personal.size());
    for (size_t i = 0; i < personal.size(); ++i) {
      set_sizes[i] = state.matching.sets[i].size();
    }
    cluster::KMeansClusterer clusterer(repository_, &index_);
    XSM_ASSIGN_OR_RETURN(
        state.clustering,
        clusterer.Cluster(state.points, set_sizes, options.kmeans));
  }
  state.time_clustering_seconds = timer.ElapsedSeconds();
  return state;
}

Result<MatchResult> Bellflower::MatchWithState(
    const schema::SchemaTree& personal, const ClusterState& state,
    const MatchOptions& options) const {
  return MatchWithStateImpl(personal, state, options, nullptr, nullptr);
}

Result<MatchResult> Bellflower::MatchWithState(
    const schema::SchemaTree& personal, const ClusterState& state,
    const MatchOptions& options, const ExecutionControl& control,
    MatchObserver* observer,
    const std::vector<size_t>* cluster_subset) const {
  return MatchWithStateImpl(personal, state, options, &control, observer,
                            cluster_subset);
}

Result<MatchResult> Bellflower::MatchWithStateImpl(
    const schema::SchemaTree& personal, const ClusterState& state,
    const MatchOptions& options, const ExecutionControl* control,
    MatchObserver* observer,
    const std::vector<size_t>* cluster_subset) const {
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  if (personal.empty()) {
    return Status::InvalidArgument("personal schema is empty");
  }
  if (state.matching.sets.size() != personal.size()) {
    return Status::InvalidArgument(
        "cluster state was built for a different personal schema");
  }

  MatchResult result;
  MatchStats& stats = result.stats;
  stats.repository_nodes = repository_->total_nodes();
  stats.repository_trees = repository_->num_trees();
  stats.time_matching_seconds = state.time_matching_seconds;
  stats.total_mapping_elements = state.matching.total_mapping_elements();
  stats.distinct_mapping_nodes = state.matching.distinct_nodes.size();

  if (state.matching.distinct_nodes.empty()) {
    // No mapping elements anywhere: empty solution list.
    if (observer != nullptr) observer->OnFinish(result);
    return result;
  }

  // Cooperative execution: one monitor is shared by every generator call of
  // this run, so the cancel/deadline/early-exit verdict is checked at node-
  // expansion granularity and the emitted-mapping budget is global across
  // clusters. A null `control` never stops.
  ExecutionMonitor monitor;
  if (control != nullptr) monitor = ExecutionMonitor(*control);
  // The run's mappings: the best top_n in MappingOrder (every one with
  // top_n == 0), each counted and ranked the moment it is emitted. The
  // generators append to `found` and then fire on_emit, which moves the
  // mapping into the keeper, so `found` never holds more than one. A
  // mapping that lands past the running top N cannot be in the final top N
  // and is not streamed.
  generate::TopNKeeper keeper(options.top_n,
                              /*track_ranks=*/observer != nullptr);
  std::vector<SchemaMapping> found;
  monitor.on_emit = [&keeper, &found, observer]() {
    const size_t rank = keeper.Offer(std::move(found.back()));
    found.pop_back();
    if (observer != nullptr && rank > 0) {
      observer->OnMapping(keeper.AtRank(rank), rank);
    }
  };
  if (observer != nullptr) {
    monitor.on_partial_emit = [&result, observer]() {
      observer->OnPartialMapping(result.partial_mappings.back());
    };
  }

  // Two-phase baseline: structural matchers applied to *every* mapping
  // element (structural_within_clusters_only == false). Scores never
  // influence clustering, so rescoring a local copy here — after the
  // clustering stage — produces the same mappings as the historical
  // rescore-before-clustering order while keeping `state` immutable.
  const match::ElementMatchingResult* matching = &state.matching;
  match::ElementMatchingResult rescored;
  if (options.structural_matcher != nullptr &&
      !options.structural_within_clusters_only) {
    rescored = state.matching;
    Timer structural_timer;
    const double w = options.structural_weight;
    for (auto& set : rescored.sets) {
      if (monitor.ShouldStop()) break;
      for (auto& element : set.elements) {
        double structural = options.structural_matcher->Score(
            personal, set.personal_node, repository_->tree(element.node.tree),
            element.node.node);
        element.score = (1.0 - w) * element.score + w * structural;
        ++stats.structural_evaluations;
      }
    }
    stats.time_structural_seconds = structural_timer.ElapsedSeconds();
    matching = &rescored;
  }

  const std::vector<cluster::ClusterPoint>& points = state.points;
  const cluster::ClusteringResult& clustering = state.clustering;
  stats.time_clustering_seconds = state.time_clustering_seconds;
  stats.kmeans = clustering.stats;
  // With a cluster subset, run-level stats describe the subset's share of
  // the work so per-shard stats sum to (roughly) the global run.
  const size_t num_considered = cluster_subset != nullptr
                                    ? cluster_subset->size()
                                    : clustering.clusters.size();
  stats.num_clusters = num_considered;
  if (cluster_subset != nullptr) {
    for (size_t ci : *cluster_subset) {
      if (ci >= clustering.clusters.size()) {
        return Status::InvalidArgument("cluster_subset index out of range");
      }
    }
  }

  // --- Stage ④: per-cluster mapping generation. --------------------------
  Timer timer;
  obs::TraceContext* trace = control != nullptr ? control->trace : nullptr;
  std::optional<obs::ScopedSpan> generate_span;
  generate_span.emplace(trace, "generate");
  const uint32_t full_mask = matching->FullMask();
  double k_resolved = ResolveK(options.objective);
  objective::BellflowerObjective objective(
      options.objective.alpha, k_resolved,
      static_cast<int>(personal.size()),
      static_cast<int>(personal.num_edges()));
  generate::GeneratorOptions gen_options = options.generator;
  gen_options.delta = options.delta;

  const size_t m = personal.size();
  const std::vector<schema::NodeId> order = personal.PreOrder();
  const RankIndex ranks(points, stats.total_mapping_elements);
  // A cluster's lists are built only when generation reaches it, into
  // buffers reused from cluster to cluster.
  generate::ClusterCandidates cands;
  // The paper's two-phase technique: the structural matcher group only
  // sees elements inside (useful) clusters, each cluster's right before
  // its generator runs.
  const bool rescore_in_clusters = options.structural_matcher != nullptr &&
                                   options.structural_within_clusters_only;

  // First pass: per-cluster summaries, from the member masks alone.
  stats.cluster_summaries.reserve(num_considered);
  size_t useful_pairs = 0;
  std::vector<size_t> useful_order;
  std::vector<size_t> non_useful;
  // Summaries are pushed in iteration order; under a subset that order is
  // not the cluster index, so keep the ci → summary position map explicit.
  std::vector<size_t> summary_index(clustering.clusters.size(), 0);

  for (size_t pos = 0; pos < num_considered; ++pos) {
    const size_t ci = cluster_subset != nullptr ? (*cluster_subset)[pos] : pos;
    // A stop during this pass leaves later clusters out of useful_order /
    // non_useful, so the generation loops skip them too.
    if (monitor.ShouldStop()) break;
    const cluster::Cluster& c = clustering.clusters[ci];
    ClusterSummary summary;
    summary.tree = c.tree;
    summary.num_points = c.members.size();
    // per_node[n] = |ME_n ∩ cluster|, the length of candidate list n.
    std::array<size_t, match::kMaxPersonalNodes> per_node{};
    for (int32_t member : c.members) {
      const uint32_t mask = points[static_cast<size_t>(member)].personal_mask;
      summary.num_mapping_elements += static_cast<size_t>(std::popcount(mask));
      for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
        ++per_node[static_cast<size_t>(std::countr_zero(bits))];
      }
    }
    // Useful: the union mask covers every personal node and so does some
    // member (the two agree on a consistent state).
    summary.useful =
        c.useful(full_mask) &&
        std::all_of(per_node.begin(), per_node.begin() + m,
                    [](size_t count) { return count > 0; });

    if (summary.useful) {
      // Multiplied in ClusterCandidates::SearchSpaceSize's order.
      summary.search_space = 1;
      for (size_t n = 0; n < m; ++n) {
        summary.search_space *= static_cast<double>(per_node[n]);
      }
      ++stats.num_useful_clusters;
      useful_pairs += summary.num_mapping_elements;
      stats.search_space += summary.search_space;
      useful_order.push_back(ci);
    } else {
      non_useful.push_back(ci);
    }
    summary_index[ci] = stats.cluster_summaries.size();
    stats.cluster_summaries.push_back(std::move(summary));
  }

  // Second pass: generate. With adaptive top-N pruning the effective δ
  // ratchets up to the N-th best Δ kept.
  const bool adaptive =
      options.adaptive_top_n && options.top_n > 0 &&
      gen_options.algorithm == generate::Algorithm::kBranchAndBound;
  // Per-cluster bound: the B&B root loop prunes every root candidate of a
  // cluster whose bound at the best root score, with every edge at length
  // 1, is below δ. That needs B&B, a root that is not also the last node,
  // and the scores `matching` holds (no rescoring inside clusters).
  const bool bound_clusters =
      !rescore_in_clusters && m >= 2 &&
      gen_options.algorithm == generate::Algorithm::kBranchAndBound;
  const size_t root_node = static_cast<size_t>(order[0]);
  const int64_t edges = static_cast<int64_t>(m) - 1;
  const size_t total_useful = useful_order.size();
  size_t sequence = 0;
  for (size_t ci : useful_order) {
    if (monitor.ShouldStop()) break;
    if (observer != nullptr) {
      observer->OnClusterStart(sequence, total_useful,
                               stats.cluster_summaries[summary_index[ci]]);
    }
    generate::GeneratorOptions cluster_options = gen_options;
    if (adaptive) cluster_options.delta = keeper.Floor(cluster_options.delta);

    bool skip = false;
    if (bound_clusters) {
      const cluster::Cluster& c = clustering.clusters[ci];
      std::array<double, match::kMaxPersonalNodes> best{};
      size_t root_count = 0;
      for (int32_t member : c.members) {
        const size_t i = static_cast<size_t>(member);
        ranks.ForEachElement(*matching, points, i,
                             [&best](size_t n, const match::MappingElement& e) {
                               best[n] = std::max(best[n], e.score);
                             });
        root_count += (points[i].personal_mask >> root_node) & 1u;
      }
      // tail₁, added in MappingGenerator's optimistic_tail order.
      double tail = 0.0;
      for (size_t p = m; --p > 0;) {
        tail = tail + best[static_cast<size_t>(order[p])];
      }
      // Each root candidate's bound is ≤ this one (a lower score, a path
      // of at least `edges`), in floating point too: every step of
      // UpperBound is monotone. The DFS would count each candidate once
      // and prune it, unless the partial-mapping budget runs out inside
      // that loop: then the generator runs, so `truncated` is set as ever.
      const uint64_t budget = gen_options.max_partial_mappings;
      skip = objective.UpperBound(best[root_node], tail, edges,
                                  static_cast<int>(edges)) <
                 cluster_options.delta &&
             (budget == 0 ||
              stats.generator.partial_mappings + root_count <= budget);
      if (skip) {
        stats.generator.partial_mappings += root_count;
        stats.generator.pruned_by_bound += root_count;
      }
    }
    if (!skip) {
      FillClusterCandidates(*matching, points, ranks, clustering.clusters[ci],
                            &cands);
      if (rescore_in_clusters) {
        Timer structural_timer;
        const double w = options.structural_weight;
        const schema::SchemaTree& repo_tree = repository_->tree(cands.tree);
        for (size_t n = 0; n < cands.candidates.size(); ++n) {
          for (auto& element : cands.candidates[n]) {
            double structural = options.structural_matcher->Score(
                personal, static_cast<schema::NodeId>(n), repo_tree,
                element.node.node);
            element.score = (1.0 - w) * element.score + w * structural;
            ++stats.structural_evaluations;
          }
        }
        stats.time_structural_seconds += structural_timer.ElapsedSeconds();
      }
      generate::MappingGenerator generator(personal, objective,
                                           cluster_options);
      XSM_RETURN_NOT_OK(generator.Generate(cands, index_.tree(cands.tree),
                                           &found, &stats.generator,
                                           &monitor));
    }
    if (observer != nullptr) {
      stats.num_mappings = keeper.offered();  // incremental snapshot
      observer->OnClusterFinish(sequence, total_useful,
                                stats.cluster_summaries[summary_index[ci]],
                                stats);
    }
    ++sequence;
  }

  // Partial mappings from non-useful clusters (§2.3 extension).
  if (options.include_partial_mappings) {
    generate::PartialMappingGenerator partial_generator(personal, objective,
                                                        options.partial);
    for (size_t ci : non_useful) {
      if (monitor.ShouldStop()) break;
      FillClusterCandidates(*matching, points, ranks, clustering.clusters[ci],
                            &cands);
      XSM_RETURN_NOT_OK(partial_generator.Generate(
          cands, index_.tree(cands.tree), &result.partial_mappings,
          &stats.partial_generator, &monitor));
    }
    std::sort(result.partial_mappings.begin(),
              result.partial_mappings.end(),
              generate::PartialMappingOrder());
    stats.num_partial_mappings = result.partial_mappings.size();
  }

  stats.time_generation_seconds = timer.ElapsedSeconds();

  stats.avg_elements_per_useful_cluster =
      stats.num_useful_clusters == 0
          ? 0.0
          : static_cast<double>(useful_pairs) /
                static_cast<double>(stats.num_useful_clusters);

  // --- Stage ⑤: one ranked list. ------------------------------------------
  generate_span.reset();
  obs::ScopedSpan merge_span(trace, "topk_merge");
  stats.num_mappings = keeper.offered();
  result.mappings = keeper.Take();
  result.execution = monitor.status();
  if (observer != nullptr) observer->OnFinish(result);
  return result;
}

}  // namespace xsm::core
