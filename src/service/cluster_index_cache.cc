#include "service/cluster_index_cache.h"

#include <utility>

namespace xsm::service {

Result<ClusterStatePtr> ClusterIndexCache::GetOrCompute(
    const std::string& key, const Factory& factory, Fetch* fetch) {
  if (capacity_ == 0) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++stats_.misses;
    }
    if (fetch != nullptr) *fetch = Fetch::kMiss;
    XSM_ASSIGN_OR_RETURN(core::ClusterState state, factory());
    return std::make_shared<const core::ClusterState>(std::move(state));
  }

  std::promise<Outcome> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      Slot& slot = it->second;
      std::shared_future<Outcome> future = slot.future;
      if (slot.ready) {
        ++stats_.hits;
        if (fetch != nullptr) *fetch = Fetch::kHit;
        lru_.splice(lru_.begin(), lru_, slot.lru_it);  // mark recently used
      } else {
        ++stats_.shared;
        if (fetch != nullptr) *fetch = Fetch::kShared;
      }
      lock.unlock();
      Outcome outcome = future.get();
      if (!outcome.status.ok()) return outcome.status;
      return outcome.state;
    }
    ++stats_.misses;
    if (fetch != nullptr) *fetch = Fetch::kMiss;
    Slot slot;
    slot.future = promise.get_future().share();
    slots_.emplace(key, std::move(slot));
  }

  // Build outside the lock: other keys proceed, same-key callers wait on
  // the shared future.
  Outcome outcome;
  {
    Result<core::ClusterState> built = factory();
    if (built.ok()) {
      outcome.state = std::make_shared<const core::ClusterState>(
          std::move(built).value());
    } else {
      outcome.status = built.status();
    }
  }
  promise.set_value(outcome);

  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (!outcome.status.ok()) {
    // Leave no failed entry behind; the next request retries.
    if (it != slots_.end() && !it->second.ready) slots_.erase(it);
    return outcome.status;
  }
  if (it != slots_.end() && !it->second.ready) {
    lru_.push_front(key);
    it->second.ready = true;
    it->second.lru_it = lru_.begin();
    while (lru_.size() > capacity_) {
      slots_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
  }
  return outcome.state;
}

ClusterStatePtr ClusterIndexCache::PeekReady(const std::string& key) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end() || !it->second.ready) return nullptr;
  // Ready slots hold a successful, already-set outcome: get() does not wait.
  return it->second.future.get().state;
}

ClusterIndexCache::Stats ClusterIndexCache::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

void ClusterIndexCache::Clear() {
  std::unique_lock<std::mutex> lock(mu_);
  for (const std::string& key : lru_) {
    slots_.erase(key);
  }
  lru_.clear();
}

std::shared_ptr<ClusterIndexCache> ClusterCacheSet::Lookup(uint64_t fingerprint,
                                                           bool publish) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<ClusterIndexCache> cache;
  for (size_t i = 0; i < namespaces_.size(); ++i) {
    if (namespaces_[i].fingerprint != fingerprint) continue;
    cache = namespaces_[i].cache;
    if (publish && i + 1 != namespaces_.size()) {
      // Re-published (e.g. a delta restored this content): move to back.
      Namespace ns = std::move(namespaces_[i]);
      namespaces_.erase(namespaces_.begin() + static_cast<ptrdiff_t>(i));
      namespaces_.push_back(std::move(ns));
    }
    break;
  }
  if (cache == nullptr) {
    cache = std::make_shared<ClusterIndexCache>(capacity_);
    // Query-path creation (a query pinned to an already-retired
    // generation) goes to the least-retained position, first to be trimmed.
    namespaces_.insert(publish ? namespaces_.end() : namespaces_.begin(),
                       {fingerprint, cache});
  }
  if (publish) {
    while (namespaces_.size() > 1 + kRetained) {
      // The namespace just published sits at the back, so it is never the
      // one retired.
      ClusterIndexCache::Stats dropped = namespaces_.front().cache->stats();
      retired_.hits += dropped.hits;
      retired_.shared += dropped.shared;
      retired_.misses += dropped.misses;
      retired_.evictions += dropped.evictions + dropped.entries;
      namespaces_.erase(namespaces_.begin());
    }
  }
  return cache;
}

ClusterStatePtr ClusterCacheSet::PeekReady(uint64_t fingerprint,
                                           const std::string& key) const {
  std::shared_ptr<ClusterIndexCache> cache;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Namespace& ns : namespaces_) {
      if (ns.fingerprint != fingerprint) continue;
      cache = ns.cache;
      break;
    }
  }
  return cache != nullptr ? cache->PeekReady(key) : nullptr;
}

void ClusterCacheSet::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Namespace& ns : namespaces_) ns.cache->Clear();
}

ClusterIndexCache::Stats ClusterCacheSet::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ClusterIndexCache::Stats total = retired_;
  for (const Namespace& ns : namespaces_) {
    ClusterIndexCache::Stats live = ns.cache->stats();
    total.hits += live.hits;
    total.shared += live.shared;
    total.misses += live.misses;
    total.evictions += live.evictions;
    total.entries += live.entries;
  }
  return total;
}

size_t ClusterCacheSet::namespaces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return namespaces_.size();
}

}  // namespace xsm::service
