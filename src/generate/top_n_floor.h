// TopNFloor: the adaptive top-N δ floor (Def. 3's "top-N mappings"
// delivery mode). Once N mappings are known, no mapping below the N-th best
// Δ seen so far can enter the final top N, so a generator may raise its δ to
// that value. The floor is kept in a min-heap of at most N values, fed once
// per mapping: O(log N) per Add, O(1) per read. The heap grows only with the
// values added, so N may be arbitrarily large (a request's SIZE_MAX).
#ifndef XSM_GENERATE_TOP_N_FLOOR_H_
#define XSM_GENERATE_TOP_N_FLOOR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace xsm::generate {

class TopNFloor {
 public:
  /// `n` must be positive.
  explicit TopNFloor(size_t n);

  /// Records one mapping's Δ.
  void Add(double delta);

  /// True once at least N values were added.
  bool full() const { return heap_.size() == n_; }

  /// `delta` raised to the N-th best Δ added so far (ties count
  /// separately); `delta` itself while fewer than N values are known.
  double Floor(double delta) const {
    return full() ? std::max(delta, heap_.front()) : delta;
  }

 private:
  size_t n_;
  /// The N best values, as a min-heap: front() is the N-th best.
  std::vector<double> heap_;
};

}  // namespace xsm::generate

#endif  // XSM_GENERATE_TOP_N_FLOOR_H_
