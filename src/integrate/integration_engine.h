// Holistic N-way schema integration (the SchemaMerger workload): instead of
// matching ONE personal schema against the repository, fold the repository's
// N schemas into one *mediated schema*.
//
// Pipeline:
//   1. All-pairs matching. Every repository tree is chunked into personal-
//      schema slices of at most match::kMaxPersonalNodes nodes (element
//      matching scores each personal node by its name, independently of tree
//      structure, so slicing changes nothing — and lifts the 32-node
//      personal-schema limit for arbitrarily large sources). Each slice is
//      one MatchRequest whose cluster state is built through
//      Matcher::ClusterStateFor — i.e. through the backend's
//      fingerprint-namespaced ClusterIndexCache and matching pool — so a
//      second integration of the same content is cache-warm, and slices
//      shared between trees (identical content) share one state. Slices run
//      as tasks on the service pool; correspondences keep only the
//      canonical direction source.tree < target.tree, so every unordered
//      schema pair is scored exactly once.
//   2. Correspondence clustering. Cross-schema correspondences (edges
//      scoring >= IntegrationOptions::threshold) are folded — sequentially,
//      in (tree, slice) order, so the result is independent of thread count
//      — into connected components via util::UnionFind. Each component of
//      two or more nodes becomes a CorrespondenceCluster with linkage
//      count, mean edge confidence and a severity grade (strong / probable
//      / weak — the De Meo et al. severity-level scheme), plus provenance
//      back-edges to every member (source schema, node).
//   3. Mediated schema. Clusters are ranked (schema coverage desc, linkage
//      desc, confidence desc, name asc) and those passing the min_linkage /
//      min_severity filters emit one MediatedElement each, named after the
//      cluster's medoid representative (the member with the highest summed
//      incident edge score).
//
// Determinism: for a fixed snapshot fingerprint, options and seed the whole
// IntegrationResult — cluster membership, representatives, ranking, events —
// is byte-identical across thread counts and runs (integration_io's
// serialization excludes wall-clock timings so this is directly testable).
//
// Execution control: options.control is honored between slices (cancel /
// deadline). A stopped run returns a *typed partial* result — the clusters
// of the slice prefix folded so far, with IntegrationResult::execution
// naming the reason — and never an error. Cluster-state builds that have
// started always complete, so a cancelled integration can never poison the
// service's cluster cache (the same contract interactive queries have).
//
// Call Integrate from outside the service pool (it blocks on its own pool
// tasks, like RunBatch). Note cache sizing: an integration creates one
// cache entry per slice (~total_nodes / 32); services dedicated to offline
// integration want cluster_cache_capacity sized accordingly, otherwise the
// run still completes but evicts instead of warming.
#ifndef XSM_INTEGRATE_INTEGRATION_ENGINE_H_
#define XSM_INTEGRATE_INTEGRATION_ENGINE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/execution_control.h"
#include "schema/schema_forest.h"
#include "service/matcher.h"
#include "util/status.h"

namespace xsm::integrate {

/// Severity grade of a correspondence cluster, per the De Meo et al.
/// severity-level scheme: how safely the cluster can be merged into one
/// mediated element without a human in the loop.
enum class Severity : uint8_t {
  kWeak = 0,      ///< below probable_confidence — needs review
  kProbable = 1,  ///< confident, minor variants (typos, abbreviations)
  kStrong = 2,    ///< near-exact agreement across schemas
};

/// Stable lowercase name: "weak" / "probable" / "strong".
std::string_view SeverityName(Severity severity);

/// Parses a SeverityName back; InvalidArgument on anything else.
Result<Severity> ParseSeverity(std::string_view name);

struct IntegrationOptions {
  /// Element-matching threshold for a cross-schema pair to become a
  /// correspondence edge. Higher than the interactive default on purpose:
  /// integration folds edges transitively, so low-confidence edges chain
  /// unrelated elements into one cluster.
  double threshold = 0.75;

  /// Whether attribute nodes participate (elements always do).
  bool match_attributes = true;

  /// Mediated-schema filters: a cluster contributes an element only when it
  /// has at least this many correspondence edges...
  size_t min_linkage = 1;
  /// ...and at least this severity grade.
  Severity min_severity = Severity::kWeak;

  /// Severity thresholds on mean edge confidence: >= strong_confidence is
  /// kStrong, >= probable_confidence is kProbable, below is kWeak.
  double strong_confidence = 0.92;
  double probable_confidence = 0.80;

  /// Recorded in the result (and its serialization) as part of the
  /// determinism contract's identity: fixed snapshot fingerprint + seed =>
  /// byte-identical mediated schema. The current pipeline is seed-free
  /// (tree-cluster states are deterministic), so the seed labels rather
  /// than perturbs the run.
  uint64_t seed = 42;

  /// Cancellation / deadline, polled between slices. No default deadline is
  /// injected (integrations are offline work); serving layers bound them
  /// through admission control exactly like queries.
  core::ExecutionControl control;
};

/// One cluster of elements the engine believes denote the same concept
/// across source schemas, with provenance back to every source node.
struct CorrespondenceCluster {
  /// The representative's name — the mediated element's name.
  std::string name;
  /// Medoid member: highest summed incident edge score (smallest NodeRef on
  /// ties).
  schema::NodeRef representative;
  /// Every member node, sorted by NodeRef — the provenance back-edges.
  std::vector<schema::NodeRef> members;
  /// Correspondence edges folded into this cluster (>= members - 1).
  size_t links = 0;
  /// Distinct source schemas covered.
  size_t schemas = 0;
  /// Mean edge score in [0,1].
  double confidence = 0;
  Severity severity = Severity::kWeak;
};

/// One element of the mediated schema, in rank order.
struct MediatedElement {
  std::string name;
  schema::NodeRef representative;
  /// Index into IntegrationResult::clusters.
  size_t cluster = 0;
};

struct MediatedSchema {
  std::vector<MediatedElement> elements;
};

struct IntegrationStats {
  size_t trees = 0;
  size_t slices = 0;
  /// All unordered schema pairs, n(n-1)/2.
  size_t pairs_total = 0;
  /// Pairs connected by at least one correspondence edge.
  size_t pairs_linked = 0;
  /// Cross-schema correspondence edges at or above the threshold.
  size_t correspondences = 0;
  /// Distinct nodes appearing in at least one correspondence.
  size_t nodes_linked = 0;
  // Wall-clock accounting; excluded from serialization (timings are not
  // part of the deterministic result).
  double time_matching_seconds = 0;
  double time_fold_seconds = 0;
};

/// The full integration output. Everything except the two stats timings is
/// a pure function of (snapshot fingerprint, options, seed).
struct IntegrationResult {
  /// Provenance: which snapshot served the run.
  uint64_t generation = 0;
  uint64_t fingerprint = 0;
  uint64_t seed = 0;
  /// kCompleted, or the typed reason a partial result was cut short.
  core::ExecutionStatus execution = core::ExecutionStatus::kCompleted;
  /// Per-TreeId content fingerprints of the integrated snapshot. Content-
  /// based (stable when removals renumber TreeIds), so integrations of two
  /// xsm::live generations can be diffed by member identity — see
  /// integrate::DiffIntegrations.
  std::vector<uint64_t> tree_fingerprints;
  /// All correspondence clusters (>= 2 members), ranked.
  std::vector<CorrespondenceCluster> clusters;
  /// The ranked mediated schema: clusters passing the filters.
  MediatedSchema mediated;
  IntegrationStats stats;
};

/// Progress of the pair grid: one source schema's links to one target.
struct PairProgress {
  schema::TreeId a = -1;  ///< source (a < b)
  schema::TreeId b = -1;
  size_t links = 0;       ///< correspondence edges between a and b
  double best_score = 0;  ///< best edge score between a and b
  size_t sources_done = 0;
  size_t sources_total = 0;
};

/// Streaming hooks; callbacks fire on the thread running Integrate, in
/// deterministic order. Default implementations ignore everything.
class IntegrationObserver {
 public:
  virtual ~IntegrationObserver() = default;
  /// After a source tree's slices are folded: one call per linked pair
  /// (a, b), b ascending.
  virtual void OnPair(const PairProgress& progress) { (void)progress; }
  /// One call per mediated element, in rank order (rank is 1-based).
  virtual void OnMediatedElement(size_t rank, const MediatedElement& element,
                                 const CorrespondenceCluster& cluster) {
    (void)rank;
    (void)element;
    (void)cluster;
  }
  /// Once, with the finished (possibly partial) result.
  virtual void OnFinish(const IntegrationResult& result) { (void)result; }
};

class IntegrationEngine {
 public:
  /// `service` must outlive the engine; its pool, cluster cache and
  /// matching pool do the heavy lifting. Any Matcher backend works —
  /// sharded backends integrate through the same scattered cluster-state
  /// path queries use.
  explicit IntegrationEngine(service::Matcher* service)
      : service_(service) {}

  /// Integrates the backend's current repository generation.
  Result<IntegrationResult> Integrate(const IntegrationOptions& options,
                                      IntegrationObserver* observer = nullptr);

  /// Integrates an explicit pin from this backend's chain.
  Result<IntegrationResult> IntegrateOn(
      service::RepositoryPinPtr pin, const IntegrationOptions& options,
      IntegrationObserver* observer = nullptr);

 private:
  service::Matcher* service_;
};

}  // namespace xsm::integrate

#endif  // XSM_INTEGRATE_INTEGRATION_ENGINE_H_
