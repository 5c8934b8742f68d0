#include "generate/top_n_keeper.h"

#include <limits>
#include <utility>

namespace xsm::generate {

TopNKeeper::TopNKeeper(size_t n, bool track_ranks)
    : limit_(n == 0 ? std::numeric_limits<size_t>::max() : n),
      track_ranks_(track_ranks) {}

size_t TopNKeeper::Offer(SchemaMapping mapping) {
  ++offered_;
  auto before = [this](size_t a, size_t b) { return Before(a, b); };
  size_t slot;
  if (full()) {
    // A mapping that does not beat the N-th best lands past N: it cannot be
    // in the final top N.
    slot = worst();
    if (!MappingOrder()(mapping, slots_[slot])) return 0;
    if (track_ranks_) {
      order_.pop_back();
    } else {
      std::pop_heap(order_.begin(), order_.end(), before);
      order_.pop_back();
    }
    slots_[slot] = std::move(mapping);
  } else {
    slot = slots_.size();
    slots_.push_back(std::move(mapping));
  }
  if (!track_ranks_) {
    order_.push_back(slot);
    std::push_heap(order_.begin(), order_.end(), before);
    return 0;
  }
  auto at = std::upper_bound(order_.begin(), order_.end(), slot, before);
  const size_t rank = static_cast<size_t>(at - order_.begin()) + 1;
  order_.insert(at, slot);
  return rank;
}

std::vector<SchemaMapping> TopNKeeper::Take() {
  if (!track_ranks_) {
    std::sort_heap(order_.begin(), order_.end(),
                   [this](size_t a, size_t b) { return Before(a, b); });
  }
  std::vector<SchemaMapping> out;
  out.reserve(order_.size());
  for (size_t slot : order_) out.push_back(std::move(slots_[slot]));
  slots_.clear();
  order_.clear();
  return out;
}

}  // namespace xsm::generate
