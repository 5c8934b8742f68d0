// The element matching stage (Fig. 2 ①→③): compares every personal-schema
// node with every repository node and produces the mapping-element sets
// ME_n. Bellflower's one element matcher scores a pair by the normalized
// Damerau–Levenshtein similarity of the case-folded node names (the
// paper's CompareStringFuzzy, sim::FuzzyStringSimilarityIgnoreCase); pairs
// scoring at or above the threshold become mapping elements.
//
// The stage runs as a two-stage engine: stage 1 scores the m × D matrix of
// (personal node, distinct repository name) pairs with the threshold-aware
// sim::FuzzyStringSimilarityWithThreshold against a NameDictionary —
// optionally sharded across a ThreadPool — and stage 2 broadcasts the
// qualifying scores to nodes through the dictionary's posting lists. The
// engine is bit-identical to the retained reference sweep
// (MatchElementsReference) for any fixed inputs; dictionary, pool, shard
// count and cancellation only change how fast the answer arrives.
#ifndef XSM_MATCH_ELEMENT_MATCHING_H_
#define XSM_MATCH_ELEMENT_MATCHING_H_

#include <cstdint>
#include <vector>

#include "core/execution_control.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "util/status.h"

namespace xsm {
class ThreadPool;  // util/thread_pool.h
}  // namespace xsm

namespace xsm::match {

class NameDictionary;  // match/name_dictionary.h

/// One mapping element n ↦ n′: a repository node with its similarity to the
/// personal node owning the set.
struct MappingElement {
  schema::NodeRef node;
  double score = 0;
};

/// ME_n for one personal node: all repository nodes it may map to, sorted
/// by NodeRef (tree-major) so per-cluster intersection is a linear merge.
struct MappingElementSet {
  schema::NodeId personal_node = schema::kInvalidNode;
  std::vector<MappingElement> elements;

  size_t size() const { return elements.size(); }
};

/// The personal schema may have at most this many nodes: matched personal
/// nodes are tracked in 32-bit masks. The paper's personal schemas are
/// "small" by design (personal-schema querying), so this is not limiting.
inline constexpr size_t kMaxPersonalNodes = 32;

struct ElementMatchingOptions {
  /// Minimum name similarity for a pair to become a mapping element. The
  /// paper keeps "non-zero" pairs; with a fuzzy matcher almost every pair
  /// is non-zero, so real systems cut at a threshold.
  double threshold = 0.5;
  /// Whether attribute nodes are candidates (the paper's repository counts
  /// "element (attribute) nodes").
  bool match_attributes = true;

  // --- Execution plumbing. The fields below never change the result, only
  // --- how fast (or whether) it is computed; the cluster-state cache key
  // --- deliberately excludes them.

  /// Precomputed name dictionary, which must have been built over the same
  /// forest instance being matched (service::RepositorySnapshot keeps one).
  /// nullptr: a transient dictionary is built for the call.
  const NameDictionary* dictionary = nullptr;
  /// Scores dictionary shards on this pool; nullptr runs them serially on
  /// the calling thread. Use a pool whose workers never wait on element
  /// matching themselves (service::MatchService keeps a dedicated one).
  ThreadPool* pool = nullptr;
  /// Number of dictionary shards scored independently; 0 = four per pool
  /// thread (clamped to the dictionary size). More shards smooth load
  /// imbalance between cheap and expensive names.
  size_t num_shards = 0;
  /// Cooperative cancellation/deadline for the scoring stage, polled per
  /// dictionary entry. A stopped run returns Status kCancelled /
  /// kDeadlineExceeded instead of a result. Only the dictionary engine
  /// polls it; the reference sweep ignores it.
  const core::ExecutionControl* control = nullptr;
};

/// Output of the stage.
struct ElementMatchingResult {
  /// Indexed by personal NodeId.
  std::vector<MappingElementSet> sets;

  /// Distinct repository nodes that matched at least one personal node,
  /// sorted by NodeRef; aligned with `masks`.
  std::vector<schema::NodeRef> distinct_nodes;
  /// masks[i] bit b set ⇔ distinct_nodes[i] ∈ ME_b.
  std::vector<uint32_t> masks;

  /// Σ_n |ME_n| — the paper's "mapping elements" count (4520 in §5).
  size_t total_mapping_elements() const;

  /// Personal node with the smallest non-empty ME set (the paper's MEmin,
  /// used to seed k-means centroids). kInvalidNode if every set is empty.
  schema::NodeId SmallestSetNode() const;

  /// Bit mask with one bit per personal node (bits [0, |Ns|)).
  uint32_t FullMask() const {
    return sets.size() >= 32
               ? 0xFFFFFFFFu
               : ((uint32_t{1} << sets.size()) - 1);
  }
};

/// Runs the stage on the dictionary engine. Errors: empty personal schema,
/// more than kMaxPersonalNodes nodes, threshold outside [0,1], or a
/// dictionary built over a different forest are rejected with
/// InvalidArgument; a run stopped by `options.control` returns kCancelled /
/// kDeadlineExceeded.
Result<ElementMatchingResult> MatchElements(
    const schema::SchemaTree& personal, const schema::SchemaForest& repo,
    const ElementMatchingOptions& options);

/// MatchElements on `forest` for a successor of the forest `prev` was
/// matched on. `reuse_map[t]` names the predecessor tree that tree `t` of
/// `forest` is (-1: added or replaced), as live::ApplyDeltaToForest
/// reports it. Every reused tree's slice of each ME_n, `distinct_nodes` and
/// `masks` is copied under its new tree id; the rebuilt trees are matched
/// together by one MatchElements call on a forest that holds only them,
/// with a transient dictionary (`options.dictionary` is ignored, since it
/// describes the whole of `forest`). A score depends on one personal node
/// and one repository node only, so the result is bit-identical to
/// MatchElements(personal, forest, options) provided `prev` was computed
/// with the same personal schema and state-determining options. Errors:
/// those of MatchElements, a reuse map that does not name every tree of
/// `forest`, and a `prev` with a different number of sets.
Result<ElementMatchingResult> CarryElementMatching(
    const ElementMatchingResult& prev,
    const std::vector<schema::TreeId>& reuse_map,
    const schema::SchemaForest& forest, const schema::SchemaTree& personal,
    const ElementMatchingOptions& options);

/// The retained seed implementation: a serial all-pairs sweep that scores
/// each distinct (personal node, repository name) pair once with the
/// unpruned sim::FuzzyStringSimilarityIgnoreCase. This is the ground truth
/// the dictionary engine must reproduce bit-for-bit (the equivalence suite
/// enforces it across thresholds, shard counts and thread counts). Ignores
/// the execution-plumbing fields of `options`.
Result<ElementMatchingResult> MatchElementsReference(
    const schema::SchemaTree& personal, const schema::SchemaForest& repo,
    const ElementMatchingOptions& options);

}  // namespace xsm::match

#endif  // XSM_MATCH_ELEMENT_MATCHING_H_
