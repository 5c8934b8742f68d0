// MatchObserver: streaming callbacks of one matching run. Where the
// blocking API returns one MatchResult at the end, an observer sees every
// mapping the moment the generator emits it, so the caller can act on the
// first good mapping while generation goes on (the paper's §7
// time-to-first-good-mapping item, from the delivery side).
//
// All callbacks run synchronously on the thread executing the match, in
// generation order, between the corresponding OnClusterStart/OnClusterFinish
// pair. References passed to callbacks are only valid during the call —
// copy what you keep. Implementations must not call back into the run.
// Default implementations are no-ops, so observers override only what they
// need.
#ifndef XSM_CORE_MATCH_OBSERVER_H_
#define XSM_CORE_MATCH_OBSERVER_H_

#include <cstddef>

#include "core/bellflower.h"
#include "generate/partial_generator.h"
#include "generate/schema_mapping.h"

namespace xsm::core {

class MatchObserver {
 public:
  virtual ~MatchObserver() = default;

  /// Generation is starting on a useful cluster: the `sequence`-th of
  /// `total` useful clusters in generation order (0-based).
  virtual void OnClusterStart(size_t sequence, size_t total,
                              const ClusterSummary& summary) {
    (void)sequence;
    (void)total;
    (void)summary;
  }

  /// Generation finished on that cluster. `stats_so_far` is a live snapshot
  /// of the run's cumulative statistics (generator counters, num_mappings
  /// found so far) — the incremental view of what the blocking API only
  /// reports at the end.
  virtual void OnClusterFinish(size_t sequence, size_t total,
                               const ClusterSummary& summary,
                               const MatchStats& stats_so_far) {
    (void)sequence;
    (void)total;
    (void)summary;
    (void)stats_so_far;
  }

  /// A mapping with Δ ≥ δ was emitted. `running_rank` is its 1-based rank
  /// under generate::MappingOrder among all mappings found so far in this
  /// run (rank 1 = best so far; ties rank in emission order); the final
  /// ranked list may still reorder or truncate. With MatchOptions::top_n = N
  /// > 0 only a mapping that enters the running top N (running_rank ≤ N) is
  /// reported: the others can never reach the final list. Every mapping of
  /// the final top N is reported (its running rank can only fall as the run
  /// goes on), so keeping the last N mappings by rank — a new rank r pushes
  /// the held ones at r.. down one and drops the one past N — ends with the
  /// final list. With top_n = 0 every mapping is reported.
  virtual void OnMapping(const generate::SchemaMapping& mapping,
                         size_t running_rank) {
    (void)mapping;
    (void)running_rank;
  }

  /// A partial mapping was emitted (only with
  /// MatchOptions::include_partial_mappings).
  virtual void OnPartialMapping(const generate::PartialMapping& partial) {
    (void)partial;
  }

  /// The run is over: `result` is the final ranked (and top-N-trimmed)
  /// MatchResult the caller is about to receive, terminal status included.
  /// Fired exactly once per Status-OK run, on the run's thread, after the
  /// last OnMapping/OnClusterFinish; not fired when the run fails with an
  /// error Status.
  virtual void OnFinish(const MatchResult& result) { (void)result; }
};

}  // namespace xsm::core

#endif  // XSM_CORE_MATCH_OBSERVER_H_
