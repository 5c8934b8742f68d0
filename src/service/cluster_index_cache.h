// ClusterIndexCache: a thread-safe LRU cache of immutable ClusterState
// (element matching + clustering output) keyed by a fingerprint of the
// personal schema and the clustering options. This is what amortizes the
// paper's preprocessing across queries: reclustering with the same
// (personal, k-means parameters) key is computed at most once — concurrent
// requests for a missing key share a single in-flight computation — and the
// resulting state is handed out as shared_ptr<const ...> for lock-free
// concurrent generation.
#ifndef XSM_SERVICE_CLUSTER_INDEX_CACHE_H_
#define XSM_SERVICE_CLUSTER_INDEX_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bellflower.h"
#include "util/status.h"

namespace xsm::service {

/// Shareable handle to one immutable cluster state.
using ClusterStatePtr = std::shared_ptr<const core::ClusterState>;

class ClusterIndexCache {
 public:
  struct Stats {
    uint64_t hits = 0;       ///< served from a ready entry
    uint64_t shared = 0;     ///< waited on another thread's in-flight build
    uint64_t misses = 0;     ///< ran the factory
    uint64_t evictions = 0;  ///< ready entries dropped by the LRU policy
    size_t entries = 0;      ///< ready entries currently resident
  };

  using Factory = std::function<Result<core::ClusterState>()>;

  /// How one GetOrCompute was served (trace-span note material).
  enum class Fetch {
    kHit,     ///< ready entry
    kShared,  ///< waited on another thread's in-flight build
    kMiss,    ///< ran the factory
  };

  /// `capacity` is the maximum number of ready entries; 0 disables caching
  /// entirely (every GetOrCompute runs the factory).
  explicit ClusterIndexCache(size_t capacity) : capacity_(capacity) {}

  ClusterIndexCache(const ClusterIndexCache&) = delete;
  ClusterIndexCache& operator=(const ClusterIndexCache&) = delete;

  /// Returns the state cached under `key`, or runs `factory` to build it.
  /// Concurrent calls with the same missing key run the factory exactly
  /// once; the others block until it finishes. A failed factory propagates
  /// its Status to every waiter and leaves no entry behind (the next call
  /// retries). `fetch` (optional) reports how this call was served.
  Result<ClusterStatePtr> GetOrCompute(const std::string& key,
                                       const Factory& factory,
                                       Fetch* fetch = nullptr);

  /// The ready state under `key`, or null when there is none (absent, or
  /// still being built). A pure look: creates no entry, moves no counter
  /// and leaves the LRU order alone.
  ClusterStatePtr PeekReady(const std::string& key) const;

  Stats stats() const;
  size_t capacity() const { return capacity_; }

  /// Drops all ready entries (in-flight builds are unaffected; states
  /// already handed out stay alive through their shared_ptr).
  void Clear();

 private:
  struct Outcome {
    Status status;
    ClusterStatePtr state;  // non-null iff status.ok()
  };
  struct Slot {
    std::shared_future<Outcome> future;
    bool ready = false;
    std::list<std::string>::iterator lru_it;  // valid iff ready
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> slots_;
  /// Ready keys, most recently used first.
  std::list<std::string> lru_;
  Stats stats_;
};

/// Cluster caches namespaced by repository content fingerprint, so a state
/// built for one content can only ever serve that content, whatever
/// generations come and go while a query runs. Namespaces are kept in
/// publication order (most recently published last); besides the current
/// one, kRetained non-current namespaces survive, so queries pinned to the
/// previous generation stay warm across a small delta and a delta restoring
/// that content (equal fingerprint) gets its warm cache back.
/// Thread-safe.
class ClusterCacheSet {
 public:
  /// Non-current namespaces kept beside the current one.
  static constexpr size_t kRetained = 1;

  /// `capacity`: entries per namespace (0 disables caching).
  explicit ClusterCacheSet(size_t capacity) : capacity_(capacity) {}

  /// The query path's namespace for `fingerprint`, created if absent. Never
  /// reorders: a long-queued query pinned to an already-retired generation
  /// can neither evict a recent generation's warm cache nor promote its own
  /// stray namespace above one — strays sit at the least-retained position
  /// and are swept up by the next publication.
  std::shared_ptr<ClusterIndexCache> Get(uint64_t fingerprint) {
    return Lookup(fingerprint, /*publish=*/false);
  }

  /// Publication site (construction, a delta): moves the namespace for
  /// `fingerprint` (created if absent) to the most-recently-published
  /// position and retires the oldest beyond the retention limit.
  void Publish(uint64_t fingerprint) { Lookup(fingerprint, /*publish=*/true); }

  /// ClusterIndexCache::PeekReady in the namespace for `fingerprint`; null
  /// when no retained namespace has that fingerprint. Creates no namespace.
  ClusterStatePtr PeekReady(uint64_t fingerprint,
                            const std::string& key) const;

  /// Drops every cached state in every retained namespace.
  void Clear();

  /// Counters over every namespace this set ever held: retired namespaces'
  /// counters are folded in, and their resident entries at retirement
  /// count as evictions. `entries` counts resident states only.
  ClusterIndexCache::Stats stats() const;

  /// Retained namespaces (the current one included).
  size_t namespaces() const;

 private:
  struct Namespace {
    uint64_t fingerprint = 0;
    std::shared_ptr<ClusterIndexCache> cache;
  };

  std::shared_ptr<ClusterIndexCache> Lookup(uint64_t fingerprint,
                                            bool publish);

  const size_t capacity_;
  mutable std::mutex mu_;
  /// Most recently *published* last (query touches never reorder).
  std::vector<Namespace> namespaces_;
  ClusterIndexCache::Stats retired_;
};

}  // namespace xsm::service

#endif  // XSM_SERVICE_CLUSTER_INDEX_CACHE_H_
