// TopNKeeper: the best ≤ N mappings of one run in MappingOrder — Def. 3's
// "top-N mappings" delivery mode. One structure serves as the run's result
// list, its adaptive δ floor and its running rank:
//  * Offer() counts every mapping but keeps it only while it ranks within
//    N, so a run holds at most N mappings however many it finds;
//  * Floor() is the N-th best Δ kept once N are kept: no mapping below it
//    can enter the final top N, so a generator may raise its δ to it;
//  * with ranks tracked, a kept mapping's insertion position is its running
//    rank.
// Kept mappings live in at most N slots, reused on eviction. The slot
// order is a sorted vector when ranks are tracked (O(log N) compares plus
// O(N) index moves per kept mapping) and a heap otherwise (O(log N)).
// Neither grows beyond the mappings offered, so N may be arbitrarily large
// (a request's SIZE_MAX).
#ifndef XSM_GENERATE_TOP_N_KEEPER_H_
#define XSM_GENERATE_TOP_N_KEEPER_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "generate/schema_mapping.h"

namespace xsm::generate {

class TopNKeeper {
 public:
  /// Keeps the best `n` mappings; `n` = 0 keeps every one. `track_ranks`
  /// makes Offer() return running ranks.
  TopNKeeper(size_t n, bool track_ranks);

  /// Counts `mapping` and keeps it if it ranks within N, evicting the N-th
  /// best when full. Returns its running rank — 1 + the number of kept
  /// mappings before it in MappingOrder — when ranks are tracked and it was
  /// kept; 0 otherwise.
  size_t Offer(SchemaMapping mapping);

  /// The kept mapping at running rank `rank` (1-based); ranks tracked only.
  const SchemaMapping& AtRank(size_t rank) const {
    return slots_[order_[rank - 1]];
  }

  /// Mappings offered so far, kept or not.
  size_t offered() const { return offered_; }
  size_t kept() const { return order_.size(); }
  /// True once N mappings are kept (never with N = 0).
  bool full() const { return order_.size() == limit_; }

  /// `delta` raised to the N-th best Δ offered so far (ties count
  /// separately); `delta` itself while fewer than N are known.
  double Floor(double delta) const {
    return full() ? std::max(delta, slots_[worst()].delta) : delta;
  }

  /// The kept mappings in MappingOrder; leaves the keeper empty.
  std::vector<SchemaMapping> Take();

 private:
  bool Before(size_t a, size_t b) const {
    return MappingOrder()(slots_[a], slots_[b]);
  }
  /// Slot of the N-th best kept mapping: last when sorted, the heap's top
  /// otherwise.
  size_t worst() const { return track_ranks_ ? order_.back() : order_.front(); }

  size_t limit_;
  bool track_ranks_;
  size_t offered_ = 0;
  std::vector<SchemaMapping> slots_;
  /// Slot indexes: sorted best first (ranks tracked), else a heap whose
  /// top is the worst kept mapping.
  std::vector<size_t> order_;
};

}  // namespace xsm::generate

#endif  // XSM_GENERATE_TOP_N_KEEPER_H_
