// ShardedMatchService: the scatter-gather Matcher backend. The repository
// forest is partitioned into K self-contained shards (each its own
// RepositorySnapshot: forest + structural index + name dictionary), and
// every query fans out across them — yet the results are *exact*:
// byte-identical mappings, ranks and scores to the single-snapshot
// MatchService on the same content.
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
//     couplings (MEmin seeding, the convergence predicate). The
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
// Deltas and persistence run through service::Matcher's one write path, so
// a delta touching many shards is journaled once and published as one pin.
// A checkpoint is K shard files at `path + ".shard<i>"` plus a manifest at
// `path`; Recover replays the one journal onto it, to the exact
// acknowledged generation. CreateMatcher / OpenMatcher (end of this file)
// pick the backend by shard count, or by the checkpoint's own format.
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
#include "util/io.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xsm::shard {

struct ShardedOptions {
  /// Number of shards K (fixed for the service's life; rebalancing moves
  /// trees between shards, never changes K). Must be in [1, kMaxShards].
  size_t num_shards = 2;
};

/// The most shards a service may have; a manifest naming more is refused
/// as corrupt rather than trusted with an allocation.
inline constexpr size_t kMaxShards = 4096;

/// Thread-safe scatter-gather Matcher backend over K repository shards.
class ShardedMatchService : public service::Matcher {
 public:
  /// Partitions `repository` into shard_options.num_shards node-balanced
  /// shards (snapshots built in parallel) and serves it; every read and
  /// durable write goes through `env` (null: the real filesystem).
  static Result<std::unique_ptr<ShardedMatchService>> Create(
      schema::SchemaForest repository,
      const service::MatchServiceOptions& options =
          service::MatchServiceOptions(),
      const ShardedOptions& shard_options = ShardedOptions(),
      util::io::Env* env = nullptr);

  /// Boots from a manifest + per-shard snapshots written by SaveSnapshot,
  /// read through `env`. The shard count comes from the manifest. The
  /// recomputed global fingerprint must match the manifest's or the load
  /// fails with Corruption; a newer manifest version is Unimplemented.
  /// With a `wal_path` the journal there is replayed (live::ReplayJournal)
  /// and journaling continues into it, at exactly the checkpoint's
  /// generation plus the records replayed; empty, no journal is attached.
  /// `report` (may be null) receives the replay accounting. Per-shard
  /// journals of the earlier layout (`wal_path + ".shard<i>"`) are refused
  /// with FailedPrecondition rather than ignored.
  static Result<std::unique_ptr<ShardedMatchService>> Recover(
      util::io::Env* env, const std::string& snapshot_path,
      const std::string& wal_path,
      const service::MatchServiceOptions& options =
          service::MatchServiceOptions(),
      live::RecoveryReport* report = nullptr);

  ShardedMatchService(const ShardedMatchService&) = delete;
  ShardedMatchService& operator=(const ShardedMatchService&) = delete;

  ~ShardedMatchService() override;

  // --- Repository surface. -----------------------------------------------

  service::RepositoryPinPtr Pin() const override;
  uint64_t CurrentGeneration() const override;

  std::vector<service::ShardDescriptor> Shards() const override;

  // --- Sharded extras. ----------------------------------------------------

  /// Per-shard snapshot file written by SaveSnapshot / read by Recover:
  /// `prefix + ".shard" + i`. Exposed for tools and tests.
  static std::string ShardFilePath(const std::string& prefix, size_t shard);

  /// The federated RepositoryPin (defined in the .cc; opaque to callers,
  /// but nameable so pins can round-trip through RepositoryPinPtr).
  class ShardedPin;

 protected:
  /// Routes the delta's ops to their owning shards (adds go to the last
  /// shard), builds the touched shards' successors and any rebalance.
  Result<Successor> BuildSuccessor(const live::RepositoryDelta& delta,
                                   obs::TraceContext* trace) override;
  /// Swaps in `pin`, opens its namespaces in the global (0) and per-shard
  /// (1 + s) cache sets, and counts its delta's rebalance.
  void Publish(service::RepositoryPinPtr pin) override;
  /// K shard files at `path + ".shard<i>"` plus a manifest at `path`:
  /// staged, then committed by the manifest, then moved into place.
  Result<store::SnapshotFileInfo> WriteCheckpoint(
      const service::RepositoryPin& pin, const std::string& path,
      util::io::Env* env) const override;

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
      const core::ClusterStateOptions& options, const std::string& key,
      obs::TraceContext* trace) override;
  /// Scatters generation per owning shard against the shared global state
  /// and merges, or runs it once on the global view (see the file comment).
  Result<core::MatchResult> Generate(
      const service::RepositoryPin& pin, const schema::SchemaTree& personal,
      const core::ClusterState& state, const core::MatchOptions& effective,
      const core::ExecutionControl& control,
      core::MatchObserver* observer) override;

 private:
  ShardedMatchService(std::shared_ptr<const ShardedPin> pin,
                      const service::MatchServiceOptions& options,
                      util::io::Env* env);

  std::shared_ptr<const ShardedPin> CurrentPin() const;

  mutable std::mutex pin_mu_;
  std::shared_ptr<const ShardedPin> pin_;

  /// Scatter pool: per-query fan-out tasks run here, never on pool(), so a
  /// query executing on pool() (Submit / RunBatch) can't deadlock waiting
  /// for its own shard tasks.
  std::unique_ptr<ThreadPool> fanout_pool_;

  obs::Counter* fanouts_ = nullptr;
  obs::Counter* rebalances_ = nullptr;
};

// --- Booting either backend. -------------------------------------------------

/// Serves `repository` from a MatchService when `num_shards` is 1, or from
/// a ShardedMatchService with that many node-balanced shards, with every
/// read and durable write through `env` (null: the real filesystem).
Result<std::unique_ptr<service::Matcher>> CreateMatcher(
    schema::SchemaForest repository,
    const service::MatchServiceOptions& options, size_t num_shards,
    util::io::Env* env = nullptr);

/// Boots the checkpoint at `snapshot_path` on the backend its format names
/// (a shard manifest: ShardedMatchService; a store snapshot:
/// MatchService), through `env` from then on. With a `wal_path` the
/// journal there is replayed and kept (`report`, may be null, gets the
/// counts); empty, none is attached.
Result<std::unique_ptr<service::Matcher>> OpenMatcher(
    util::io::Env* env, const std::string& snapshot_path,
    const std::string& wal_path, const service::MatchServiceOptions& options,
    live::RecoveryReport* report = nullptr);

}  // namespace xsm::shard

#endif  // XSM_SHARD_SHARDED_MATCH_SERVICE_H_
