// Bellflower: the experimental clustered schema matching system (paper §3,
// Fig. 3). Pipeline: element matching ② → clustering ⓒ → per-cluster
// mapping generation ④ → one merged, ranked mapping list ⑤.
//
// The non-clustered baseline ("tree clusters": every repository tree is one
// cluster) runs through the same pipeline with ClusteringMode::kTreeClusters.
#ifndef XSM_CORE_BELLFLOWER_H_
#define XSM_CORE_BELLFLOWER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "core/execution_control.h"
#include "generate/mapping_generator.h"
#include "generate/partial_generator.h"
#include "label/tree_index.h"
#include "match/element_matching.h"
#include "match/structural_matcher.h"
#include "objective/objective.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "util/status.h"

namespace xsm::core {

enum class ClusteringMode {
  /// Non-clustered baseline: one cluster per repository tree.
  kTreeClusters = 0,
  /// Clustered schema matching with the k-means clusterer.
  kKMeans = 1,
};

/// All knobs of one matching run (Def. 3's P = (s, R, Δ, δ) plus system
/// parameters).
struct MatchOptions {
  /// Element-matching stage (matcher + threshold).
  match::ElementMatchingOptions element;

  /// Objective function Δ parameters (α, K).
  objective::ObjectiveParams objective;

  /// Objective threshold δ: solutions are all mappings with Δ ≥ δ.
  double delta = 0.75;

  ClusteringMode clustering = ClusteringMode::kKMeans;
  cluster::KMeansOptions kmeans;

  /// Mapping generator algorithm & limits (GeneratorOptions::delta is
  /// overridden by `delta` above).
  generate::GeneratorOptions generator;

  /// Keep only the best N mappings in the result (0 = keep all).
  size_t top_n = 0;

  /// With top_n > 0 and the B&B generator: once N mappings are known, the
  /// effective δ rises to the N-th best Δ found so far, so later clusters
  /// prune everything that cannot enter the top N (Def. 3's "top-N
  /// mappings" delivery mode). The returned top N is identical to the
  /// non-adaptive run; only the work shrinks.
  bool adaptive_top_n = true;

  /// Also enumerate partial mappings in non-useful clusters (§2.3
  /// extension). Complete mappings are unaffected.
  bool include_partial_mappings = false;
  generate::PartialGeneratorOptions partial;

  /// §2.3 non-generic ("two-phase") technique: a second matcher group of
  /// structural matchers re-scores mapping elements after clustering.
  /// Element scores become
  ///   (1 − structural_weight)·localized + structural_weight·structural.
  /// nullptr disables the second phase (the paper's generic technique).
  const match::StructuralMatcher* structural_matcher = nullptr;
  double structural_weight = 0.5;
  /// true  — the paper's proposal: structural matchers run per cluster,
  ///         only on elements that survived clustering;
  /// false — comparison baseline: structural matchers run on every
  ///         mapping element before clustering.
  bool structural_within_clusters_only = true;
};

/// Per-cluster summary used by the Tab. 1a reproduction.
struct ClusterSummary {
  schema::TreeId tree = -1;
  size_t num_points = 0;            ///< distinct repository nodes
  size_t num_mapping_elements = 0;  ///< (n, n′) pairs inside the cluster
  bool useful = false;
  double search_space = 0;          ///< Π_n |ME_n ∩ cluster|
};

/// Aggregate statistics of one Match() run — everything Tab. 1 and Fig. 4–6
/// report.
struct MatchStats {
  size_t repository_nodes = 0;
  size_t repository_trees = 0;

  // Element matching stage.
  size_t total_mapping_elements = 0;  ///< Σ_n |ME_n| (paper: 4520)
  size_t distinct_mapping_nodes = 0;
  double time_matching_seconds = 0;

  // Clustering stage.
  size_t num_clusters = 0;
  size_t num_useful_clusters = 0;
  /// Mean (n, n′) pairs per useful cluster (Tab. 1a "avg. # of mapping
  /// elements").
  double avg_elements_per_useful_cluster = 0;
  /// Σ over useful clusters of Π_n |ME_n ∩ cluster| (Tab. 1a "total # of
  /// schema mappings" — the mapping generator's search space).
  double search_space = 0;
  cluster::KMeansStats kmeans;
  double time_clustering_seconds = 0;

  // Generation stage.
  generate::GeneratorCounters generator;  ///< Tab. 1b counters
  size_t num_mappings = 0;                ///< mappings with Δ ≥ δ
  double time_generation_seconds = 0;

  // Partial-mapping extension.
  size_t num_partial_mappings = 0;
  generate::GeneratorCounters partial_generator;

  // Two-phase (structural) matching extension: how many (n, n′) pairs the
  // second matcher group scored, and the time it took. The §2.3 efficiency
  // claim is that the within-cluster count is much smaller than the
  // total-elements count.
  uint64_t structural_evaluations = 0;
  double time_structural_seconds = 0;

  std::vector<ClusterSummary> cluster_summaries;
};

struct MatchResult {
  /// Ranked solution list (Δ descending; deterministic tie-break).
  std::vector<generate::SchemaMapping> mappings;
  /// Partial mappings from non-useful clusters, ranked; empty unless
  /// MatchOptions::include_partial_mappings is set.
  std::vector<generate::PartialMapping> partial_mappings;
  MatchStats stats;
  /// Why the run ended. Anything other than kCompleted means the search was
  /// cut short (ExecutionControl) and `mappings` / `partial_mappings` hold
  /// the results gathered up to that point, still ranked and top-N-trimmed.
  ExecutionStatus execution = ExecutionStatus::kCompleted;
};

/// The subset of MatchOptions that determines the expensive, reusable
/// preprocessing (element matching ②③ + clustering ⓒ). Two MatchOptions
/// with equal ClusterStateOptions can share one ClusterState; everything
/// else in MatchOptions (δ, top-N, partial mappings, structural matchers)
/// only affects the generation phase.
struct ClusterStateOptions {
  match::ElementMatchingOptions element;
  ClusteringMode clustering = ClusteringMode::kKMeans;
  cluster::KMeansOptions kmeans;

  /// Projects a full MatchOptions onto its state-determining subset.
  static ClusterStateOptions From(const MatchOptions& options) {
    ClusterStateOptions state;
    state.element = options.element;
    state.clustering = options.clustering;
    state.kmeans = options.kmeans;
    return state;
  }
};

/// Immutable output of the matching+clustering stages for one personal
/// schema. Build once with Bellflower::BuildClusterState, then run any
/// number of (concurrent) MatchWithState calls against it — the state is
/// never mutated after construction, so a `const ClusterState&` may be
/// shared freely across threads (this is what service::ClusterIndexCache
/// hands out).
struct ClusterState {
  match::ElementMatchingResult matching;
  /// One point per distinct matched repository node (aligned with
  /// matching.distinct_nodes / matching.masks).
  std::vector<cluster::ClusterPoint> points;
  cluster::ClusteringResult clustering;

  double time_matching_seconds = 0;
  double time_clustering_seconds = 0;
};

/// Stage ④ set-up for one cluster: candidates[n] = ME_n ∩ cluster, each
/// list in NodeRef order with its ME_n score — what a merge of ME_n with the
/// sorted members would produce. Relies on the element-matching invariant
/// that bit n of a point's personal_mask is set exactly when the point's
/// node is in ME_n (`points` and `matching` must come from one state), so
/// it costs O(Σ_members popcount(mask) · log |ME_n|): proportional to the
/// cluster's own mapping elements, not to Σ_n |ME_n|. This is the
/// stand-alone definition; MatchWithState builds the same lists without
/// the searches, from the rank invariant: points and every ME_n share
/// NodeRef order, so a point's index in ME_n is the number of earlier
/// points carrying bit n.
generate::ClusterCandidates BuildClusterCandidates(
    const match::ElementMatchingResult& matching,
    const std::vector<cluster::ClusterPoint>& points,
    const cluster::Cluster& cluster);

class MatchObserver;  // core/match_observer.h

/// The matching system. Owns the structural index over the repository; the
/// repository itself must outlive the Bellflower instance.
class Bellflower {
 public:
  explicit Bellflower(const schema::SchemaForest* repository);

  /// Adopts a prebuilt index over `repository` instead of building one —
  /// the copy-on-write path: service::RepositorySnapshot::CreateSuccessor
  /// labels only the trees a delta touched (ForestIndex::BuildIncremental)
  /// and hands the result here. `index` must describe exactly `repository`.
  Bellflower(const schema::SchemaForest* repository,
             label::ForestIndex index);

  const schema::SchemaForest& repository() const { return *repository_; }
  const label::ForestIndex& index() const { return index_; }

  /// Resolves the Δpath normalization constant K for these options:
  /// user-supplied positive value, else max(1, repository diameter − 1).
  double ResolveK(const objective::ObjectiveParams& params) const;

  /// Solves the schema matching problem P = (personal, R, Δ, δ).
  /// Equivalent to BuildClusterState + MatchWithState.
  Result<MatchResult> Match(const schema::SchemaTree& personal,
                            const MatchOptions& options) const;

  /// Anytime variant: `control` bounds the run (cooperative cancellation,
  /// wall-clock deadline, early exit after N mappings) and `observer` (may
  /// be null) streams cluster progress and every emitted mapping as it is
  /// found. A run that no limit interrupts produces a result byte-identical
  /// to the blocking overload; an interrupted run returns the mappings
  /// gathered so far with MatchResult::execution naming the reason — a cut
  /// run is still Status-OK, not an error. Control is honored before
  /// preprocessing, during its element-matching stage (per dictionary
  /// entry), and throughout generation at cluster and node-expansion
  /// granularity. (service::MatchService builds its *cached* states without
  /// control on purpose, so cancellation never poisons the cache.)
  Result<MatchResult> Match(const schema::SchemaTree& personal,
                            const MatchOptions& options,
                            const ExecutionControl& control,
                            MatchObserver* observer = nullptr) const;

  /// Runs the expensive preprocessing stages (element matching +
  /// clustering) and returns their reusable result. Thread-safe: only
  /// reads the repository and index. `control` (may be null) bounds the
  /// element-matching stage: a stopped build returns Status kCancelled /
  /// kDeadlineExceeded — never a half-built state. It supplements any
  /// control already present in options.element.
  Result<ClusterState> BuildClusterState(
      const schema::SchemaTree& personal, const ClusterStateOptions& options,
      const ExecutionControl* control = nullptr) const;

  /// Stage ②③ as BuildClusterState runs it: takes the effective element
  /// options (the build's control folded in) and returns the element
  /// matching of the personal schema against this repository.
  using ElementMatchFn = std::function<Result<match::ElementMatchingResult>(
      const match::ElementMatchingOptions&)>;

  /// BuildClusterState with stage ②③ done by `match_elements` instead of
  /// match::MatchElements over the whole repository (after a delta,
  /// service::MatchService passes a bound match::CarryElementMatching).
  /// Validation, the element_match span, timing and clustering are the
  /// same; `note` (may be empty) annotates the span.
  Result<ClusterState> BuildClusterState(
      const schema::SchemaTree& personal, const ClusterStateOptions& options,
      const ExecutionControl* control, const ElementMatchFn& match_elements,
      std::string note) const;

  /// Clustering-only half of BuildClusterState: takes a completed
  /// element-matching result (whose NodeRefs must be in *this* repository's
  /// tree-id space) and runs point extraction + clustering on it. This is
  /// the seam the sharded backend uses — it scatters MatchElements across
  /// shard repositories, merges the per-shard results into the global
  /// tree-id space, and clusters the merged result here so the clustering
  /// stage sees exactly what the unsharded pipeline would have seen.
  /// `matching_seconds` seeds ClusterState::time_matching_seconds.
  Result<ClusterState> ClusterFromMatching(
      const schema::SchemaTree& personal,
      match::ElementMatchingResult matching, double matching_seconds,
      const ClusterStateOptions& options,
      const ExecutionControl* control = nullptr) const;

  /// Runs the generation stages (④⑤ plus the §2.3 extensions) against a
  /// previously built state. `state` must have been built for the same
  /// personal schema (and this repository); it is not mutated, so many
  /// MatchWithState calls may run concurrently against one state.
  /// `options`' state-determining fields are ignored — the state wins.
  ///
  /// Stage ④ cost. One pass over the points' masks finds each mapping
  /// element's index in its ME_n (the rank invariant: points and every ME_n
  /// share NodeRef order, and points[i].personal_mask bit n is set ⇔
  /// points[i].node ∈ ME_n; see ElementMatchingResult::masks and
  /// BuildClusterCandidates). Each cluster's summary comes from its member
  /// masks alone. When generation reaches a cluster, one pass over its
  /// member bits gives each personal node's best score and |C_root|; if
  /// the B&B bound at those scores, with every edge at length 1, is below
  /// max(δ, adaptive floor), the cluster is skipped with the root-loop
  /// counts the generator would have made (every root candidate counted
  /// and pruned). Only the other clusters get candidate lists, built into
  /// buffers reused from cluster to cluster. Structural scoring inside
  /// clusters rescores a useful cluster's lists right after they are
  /// built, before its generator runs, and skips no cluster: the bound
  /// reads the unrescored scores. Mappings go through a TopNKeeper: with
  /// top_n = N > 0 a run holds at most N mappings, at O(log N) per mapping
  /// (plus O(N) index moves for a ranked, observed run); every mapping is
  /// still counted in MatchStats::num_mappings.
  Result<MatchResult> MatchWithState(const schema::SchemaTree& personal,
                                     const ClusterState& state,
                                     const MatchOptions& options) const;

  /// Anytime variant of MatchWithState; see the streaming Match overload
  /// for `control` / `observer` semantics. `cluster_subset` (may be null =
  /// all clusters) restricts generation to the given indexes into
  /// state.clustering.clusters — the sharded backend partitions the global
  /// cluster list by owning shard and runs one restricted call per shard
  /// against the *shared* state. The union of disjoint subset runs emits
  /// exactly the mappings of one unrestricted run (each cluster's generator
  /// call sees identical candidates either way); only run-level stats and
  /// the adaptive-δ work savings differ.
  Result<MatchResult> MatchWithState(
      const schema::SchemaTree& personal, const ClusterState& state,
      const MatchOptions& options, const ExecutionControl& control,
      MatchObserver* observer = nullptr,
      const std::vector<size_t>* cluster_subset = nullptr) const;

 private:
  /// Shared generation path; `control` == nullptr means unlimited (the
  /// monitor never stops) with zero per-expansion overhead beyond two
  /// branches.
  Result<MatchResult> MatchWithStateImpl(
      const schema::SchemaTree& personal, const ClusterState& state,
      const MatchOptions& options, const ExecutionControl* control,
      MatchObserver* observer,
      const std::vector<size_t>* cluster_subset = nullptr) const;

  const schema::SchemaForest* repository_;
  label::ForestIndex index_;
};

}  // namespace xsm::core

#endif  // XSM_CORE_BELLFLOWER_H_
