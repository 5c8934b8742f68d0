// Schema mapping generator (Fig. 2 ④): enumerates assignments of personal
// nodes to candidate repository nodes within one cluster and keeps those
// with Δ(s,t) ≥ δ.
//
// Algorithms:
//  * kBranchAndBound — the paper's generator (adaptation of B&B, Kreher &
//    Stinson): depth-first over personal nodes in pre-order, pruning any
//    partial mapping whose admissible upper bound falls below δ. The bound
//    uses forward checking: an unclosed edge whose parent image is already
//    fixed is lower-bounded by the minimum tree distance from that image to
//    any candidate of the child, every other unclosed edge by length 1.
//    The bound is admissible: it never prunes a qualifying mapping. Counts
//    the partial mappings generated — the paper's machine-independent
//    performance indicator (Tab. 1b).
//  * kExhaustive — same enumeration without the bound: generates every
//    syntactically valid (partial) mapping. Baseline for Tab. 1b and the
//    correctness oracle for tests.
#ifndef XSM_GENERATE_MAPPING_GENERATOR_H_
#define XSM_GENERATE_MAPPING_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "core/execution_control.h"
#include "generate/schema_mapping.h"
#include "label/tree_index.h"
#include "match/element_matching.h"
#include "objective/objective.h"
#include "schema/schema_tree.h"
#include "util/status.h"

namespace xsm::generate {

enum class Algorithm {
  kBranchAndBound = 0,
  kExhaustive = 1,
};

struct GeneratorOptions {
  Algorithm algorithm = Algorithm::kBranchAndBound;
  /// Objective-function threshold δ: only mappings with Δ ≥ δ are produced.
  double delta = 0.75;
  /// Safety valve: stop after this many partial mappings (0 = unlimited).
  /// Exhaustive runs on huge clusters can otherwise run very long.
  uint64_t max_partial_mappings = 0;
};

/// Work counters. `partial_mappings` reproduces the paper's B&B counter:
/// every extension of a prefix assignment by one candidate counts once
/// (complete assignments included).
struct GeneratorCounters {
  uint64_t partial_mappings = 0;
  uint64_t complete_mappings = 0;
  uint64_t pruned_by_bound = 0;
  uint64_t emitted = 0;
  /// True if max_partial_mappings stopped the search early.
  bool truncated = false;

  GeneratorCounters& operator+=(const GeneratorCounters& other);
};

/// Per-cluster candidate sets: for each personal node (by NodeId), the
/// cluster members it may map to. All candidates live in tree `tree`.
struct ClusterCandidates {
  schema::TreeId tree = -1;
  /// candidates[i] — sorted by NodeId; empty ⇒ the cluster is not useful.
  std::vector<std::vector<match::MappingElement>> candidates;

  /// "Useful cluster": at least one candidate per personal node (§2.3).
  bool useful() const;

  /// Π_n |candidates[n]| — the cluster's share of the search space
  /// (Tab. 1a "total # of schema mappings"). Returned as double because the
  /// non-clustered space overflows int64 on large repositories.
  double SearchSpaceSize() const;
};

/// Generator for a fixed personal schema and objective. Thread-compatible:
/// Generate() is const and reentrant.
class MappingGenerator {
 public:
  /// `personal` must stay alive for the generator's lifetime.
  MappingGenerator(const schema::SchemaTree& personal,
                   const objective::BellflowerObjective& objective,
                   const GeneratorOptions& options);

  /// Enumerates mappings within one cluster. Appends results to `out`
  /// (unsorted) and accumulates counters. `tree_index` must belong to
  /// `cands.tree`.
  ///
  /// `monitor` (optional) is polled at node-expansion granularity: when it
  /// reports a stop (cancellation, deadline, early-exit budget) the search
  /// returns immediately with the mappings emitted so far; each emitted
  /// mapping is recorded through it right after being appended to `out`.
  Status Generate(const ClusterCandidates& cands,
                  const label::TreeIndex& tree_index,
                  std::vector<SchemaMapping>* out,
                  GeneratorCounters* counters,
                  core::ExecutionMonitor* monitor = nullptr) const;

  const GeneratorOptions& options() const { return options_; }

 private:
  struct SearchContext;

  void Dfs(SearchContext* ctx, size_t position, int64_t pending_sum) const;

  const schema::SchemaTree& personal_;
  objective::BellflowerObjective objective_;
  GeneratorOptions options_;

  /// Personal nodes in pre-order; position 0 is the root, every later
  /// position's parent occurs earlier, so each assignment closes exactly
  /// one personal edge.
  std::vector<schema::NodeId> order_;
  /// parent_position_[p] = position of order_[p]'s parent (undefined for 0).
  std::vector<size_t> parent_position_;
  /// children_positions_[p] = positions whose parent position is p.
  std::vector<std::vector<size_t>> children_positions_;
};

}  // namespace xsm::generate

#endif  // XSM_GENERATE_MAPPING_GENERATOR_H_
