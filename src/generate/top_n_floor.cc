#include "generate/top_n_floor.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace xsm::generate {

TopNFloor::TopNFloor(size_t n) : n_(n) { assert(n > 0); }

void TopNFloor::Add(double delta) {
  if (heap_.size() < n_) {
    heap_.push_back(delta);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
  } else if (delta > heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<double>());
    heap_.back() = delta;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
  }
}

}  // namespace xsm::generate
