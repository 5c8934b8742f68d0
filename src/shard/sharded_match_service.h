// ShardedMatchService: the scatter-gather Matcher backend. The repository
// forest is partitioned into K self-contained shards (each its own
// RepositorySnapshot chain: forest + structural index + name dictionary +
// generation/WAL machinery), and every query fans out across them — yet the
// results are *exact*: byte-identical mappings, ranks and scores to the
// single-snapshot MatchService on the same content.
//
// Why exactness holds:
//   - The shard plan is a contiguous cut of the TreeId space (shard/
//     shard_plan.h), so concatenating per-shard element-matching results in
//     shard order — with each shard's tree ids offset by its first global
//     tree — reproduces the global NodeRef-sorted mapping-element sets
//     bit-for-bit (element matching is per-(personal node, repository node)
//     and clusters never span trees).
//   - Clustering runs ONCE, globally, over the merged element-matching
//     result (core::Bellflower::ClusterFromMatching against a federated
//     global-view forest + index), because k-means has irreducible global
//     couplings (MEmin seeding, the convergence predicate, the RNG). The
//     global view shares every tree payload and TreeIndex with the shards,
//     so materializing it costs O(num_trees) pointer copies per publish.
//   - Mapping generation scatters per owning shard through MatchWithState's
//     cluster_subset parameter against the *shared* global state: disjoint
//     subsets emit exactly the mappings of one unrestricted run, and the
//     final sort(MappingOrder) + top-N truncation is the same deterministic
//     reduction the unsharded engine performs.
//
// Streaming runs (observer != nullptr) and configurations whose per-run
// adaptive state couples clusters across shards (adaptive top-N together
// with partial-mapping enumeration, or the pre-clustering structural
// baseline) execute generation unscattered on the global view — still
// exact, just not fanned out.
//
// Persistence: SaveSnapshot writes one manifest at `path` plus K per-shard
// snapshot files at `path + ".shard<i>"`; AttachWal journals per shard
// under `wal_path + ".shard<i>"`. WarmStart / Recover reverse both; the
// recomputed global fingerprint must match the manifest. ApplyDelta routes
// ops to owning shards (adds go to the last shard) and rebalances the plan
// when node imbalance exceeds ShardedOptions::rebalance_threshold.
#ifndef XSM_SHARD_SHARDED_MATCH_SERVICE_H_
#define XSM_SHARD_SHARDED_MATCH_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "core/match_observer.h"
#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "obs/metrics.h"
#include "schema/schema_forest.h"
#include "service/matcher.h"
#include "service/repository_snapshot.h"
#include "shard/shard_plan.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xsm::shard {

struct ShardedOptions {
  /// Number of shards K (fixed for the service's life; rebalancing moves
  /// trees between shards, never changes K). Must be >= 1.
  size_t num_shards = 2;
  /// ApplyDelta rebalances when the node imbalance (max shard nodes over
  /// the per-shard mean) exceeds this factor and a better balanced plan
  /// exists. <= 0 disables rebalancing.
  double rebalance_threshold = 1.5;
};

/// Thread-safe scatter-gather Matcher backend over K repository shards.
class ShardedMatchService : public service::Matcher {
 public:
  /// Partitions `repository` into shard_options.num_shards node-balanced
  /// shards (snapshots built in parallel) and serves it.
  static Result<std::unique_ptr<ShardedMatchService>> Create(
      schema::SchemaForest repository,
      const service::MatchServiceOptions& options =
          service::MatchServiceOptions(),
      const ShardedOptions& shard_options = ShardedOptions());

  /// Boots from a manifest + per-shard snapshots written by SaveSnapshot.
  /// The shard count comes from the manifest; `shard_options` supplies the
  /// runtime knobs (rebalance threshold). The recomputed global fingerprint
  /// must match the manifest's or the load fails with Corruption.
  static Result<std::unique_ptr<ShardedMatchService>> WarmStart(
      const std::string& path,
      const service::MatchServiceOptions& options =
          service::MatchServiceOptions(),
      const ShardedOptions& shard_options = ShardedOptions(),
      util::io::Env* env = nullptr);

  /// Crash-safe boot: per-shard snapshot load + WAL suffix replay (see
  /// live::RepositoryManager::Recover), journaling continuing into the same
  /// per-shard WALs. `report` (may be null) receives the aggregated replay
  /// accounting; the recovered global generation is the manifest generation
  /// plus the deepest per-shard replay (a delta touches >= 1 shard, so this
  /// is a lower bound on the pre-crash counter — content and fingerprints
  /// are exact regardless).
  static Result<std::unique_ptr<ShardedMatchService>> Recover(
      util::io::Env* env, const std::string& snapshot_path,
      const std::string& wal_path,
      const service::MatchServiceOptions& options =
          service::MatchServiceOptions(),
      const ShardedOptions& shard_options = ShardedOptions(),
      live::RecoveryReport* report = nullptr);

  ShardedMatchService(const ShardedMatchService&) = delete;
  ShardedMatchService& operator=(const ShardedMatchService&) = delete;

  ~ShardedMatchService() override;

  // --- Repository surface. -----------------------------------------------

  service::RepositoryPinPtr Pin() const override;
  uint64_t CurrentGeneration() const override;

  Result<live::ApplyReport> ApplyDelta(
      const live::RepositoryDelta& delta,
      obs::TraceContext* trace = nullptr) override;

  Result<store::SnapshotFileInfo> SaveSnapshot(
      const std::string& path,
      obs::TraceContext* trace = nullptr) const override;

  Status AttachWal(util::io::Env* env, const std::string& wal_path) override;
  bool wal_attached() const override;

  std::vector<service::ShardDescriptor> Shards() const override;

  // --- Sharded extras. ----------------------------------------------------

  const ShardedOptions& shard_options() const { return shard_options_; }

  /// Per-shard snapshot file written by SaveSnapshot / read by WarmStart:
  /// `prefix + ".shard" + i`. Exposed for tools and tests.
  static std::string ShardFilePath(const std::string& prefix, size_t shard);

  /// The federated RepositoryPin (defined in the .cc; opaque to callers,
  /// but nameable so pins can round-trip through RepositoryPinPtr).
  class ShardedPin;

 protected:
  bool OwnsPin(const service::RepositoryPin& pin) const override;
  /// No global dictionary exists (each shard owns one, and the element
  /// matching scatter injects them per shard): nothing to add.
  void AddPlumbing(const service::RepositoryPin& pin,
                   core::MatchOptions* effective) const override;
  /// Scatters element matching per shard (each shard's results cached in
  /// its own fingerprint-namespaced cache set), merges into global tree-id
  /// space, and clusters once globally.
  Result<core::ClusterState> BuildClusterState(
      const service::RepositoryPin& pin, const schema::SchemaTree& personal,
      const core::ClusterStateOptions& options,
      obs::TraceContext* trace) override;
  /// Scatters generation per owning shard against the shared global state
  /// and merges, or runs it once on the global view (see the file comment).
  Result<core::MatchResult> Generate(
      const service::RepositoryPin& pin, const schema::SchemaTree& personal,
      const core::ClusterState& state, const core::MatchOptions& effective,
      const core::ExecutionControl& control,
      core::MatchObserver* observer) override;

 private:
  ShardedMatchService(
      std::vector<std::unique_ptr<live::RepositoryManager>> managers,
      std::shared_ptr<const ShardedPin> pin,
      const service::MatchServiceOptions& options,
      const ShardedOptions& shard_options);

  std::shared_ptr<const ShardedPin> CurrentPin() const;

  /// Rebalances shards whose ranges changed under the freshly balanced
  /// plan (copy-on-write successors; WAL re-attach; re-checkpoint when a
  /// snapshot prefix is known). Called under apply_mu_ with the post-apply
  /// shard snapshots; updates `shards` in place.
  Status MaybeRebalance(
      std::vector<std::shared_ptr<const service::RepositorySnapshot>>* shards,
      obs::TraceContext* trace);

  /// Saves every shard + the manifest; caller holds apply_mu_.
  Result<store::SnapshotFileInfo> SaveLocked(const std::string& path,
                                             obs::TraceContext* trace) const;

  /// Publishes `pin`'s fingerprints in the global (0) and per-shard (1 + s)
  /// cache sets.
  void PublishCaches(const ShardedPin& pin);

  ShardedOptions shard_options_;

  /// Serializes ApplyDelta / SaveSnapshot / AttachWal end to end so a save
  /// can never interleave shard states from two generations. Mutable:
  /// SaveSnapshot is logically const.
  mutable std::mutex apply_mu_;
  std::vector<std::unique_ptr<live::RepositoryManager>> managers_;
  /// Global publication counter: +1 per successful ApplyDelta, whatever
  /// subset of shards the delta touched.
  uint64_t generation_ = 0;

  mutable std::mutex pin_mu_;
  std::shared_ptr<const ShardedPin> pin_;

  /// Scatter pool: per-query fan-out tasks run here, never on pool(), so a
  /// query executing on pool() (Submit / RunBatch) can't deadlock waiting
  /// for its own shard tasks.
  std::unique_ptr<ThreadPool> fanout_pool_;

  /// WAL / checkpoint bookkeeping for the rebalance path.
  util::io::Env* wal_env_ = nullptr;
  std::string wal_prefix_;
  mutable std::string snap_prefix_;

  obs::Counter* fanouts_ = nullptr;
  obs::Counter* rebalances_ = nullptr;
};

}  // namespace xsm::shard

#endif  // XSM_SHARD_SHARDED_MATCH_SERVICE_H_
