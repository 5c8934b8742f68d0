// MatchService: the single-snapshot Matcher backend. Where core::Bellflower
// solves one matching problem, the service executes *traffic*: single
// queries, batches, and async submissions run concurrently on a fixed
// thread pool against the shared immutable snapshot, and the expensive
// preprocessing (element matching + clustering) is amortized across
// queries through a ClusterIndexCache — reclustering with the same
// (personal schema, clustering parameters) key happens at most once.
//
// Quickstart:
//   auto service = service::MatchService::Create(std::move(forest));
//   service::MatchRequest request;
//   request.id = "q1";
//   request.personal = *schema::ParseTreeSpec("name(address,email)");
//   request.options.delta = 0.75;
//   auto outcome = (*service)->Run(request);              // synchronous
//   // outcome->result; outcome->generation / fingerprint name the pin.
//   auto handle = (*service)->Submit((*service)->Pin(), request);  // async
//   handle.Cancel();                                      // cooperative stop
//   auto partial = handle.Get();                          // mappings so far
//   auto batch = (*service)->RunBatch(requests);          // parallel batch
//   // batch.results in input order; batch.generation / batch.fingerprint
//   // name the snapshot that served every member.
//
//   live::DeltaBuilder builder;                           // evolve the repo
//   builder.AddTree(*schema::ParseTreeSpec("invoice(total,customer)"));
//   auto report = (*service)->ApplyDelta(*builder.Build());
//   // report->generation, report->trees_reused, ... ; requests pinned
//   // from now on run against the new generation.
//
// Streaming (anytime) execution: RunOn runs a request under an
// ExecutionControl (cancellation, deadline, stop-after-N) and reports every
// mapping to a MatchObserver the moment it is found; see
// core/match_observer.h. MatchServiceOptions::default_deadline_seconds
// bounds every request that doesn't bring its own deadline.
//
// Evolving repositories: the service holds its current snapshot and
// builds each delta's successor copy-on-write (live::BuildSuccessorSnapshot),
// so the repository can change while queries are being served. ApplyDelta
// (service::Matcher's one write path: build, journal, publish) swaps in the
// next generation atomically; every request runs against the snapshot it
// was pinned to (Run pins at entry, Submit takes the caller's pin, RunBatch
// pins once for the batch) — a swap mid-flight never changes, tears, or
// aborts a running query. Cluster caches are namespaced by snapshot
// fingerprint (ClusterCacheSet), so a stale cluster state can never serve a
// different repository content. Checkpoints are store snapshot files
// (store::SaveSnapshotToFile).
//
// Carried matching: a delta changes the fingerprint, so every personal
// schema misses once afterwards. On such a miss the service peeks at the
// predecessor's namespace (ClusterCacheSet::PeekReady); when it holds a
// ready state for the same key, the reused trees' element matching is
// copied over and only the rebuilt trees are matched
// (match::CarryElementMatching), then k-means reruns on the result. Scores
// are pairwise and local, so the state is bit-identical to a cold build.
// When the rebuilt trees hold more than one eighth of the nodes (carrying
// was measured slower than a cold build from 13-20 % on), or no ready state
// is there to carry, the miss builds cold. Either way the cache counts a
// miss; xsm_element_matching_reused_total counts the carried builds.
#ifndef XSM_SERVICE_MATCH_SERVICE_H_
#define XSM_SERVICE_MATCH_SERVICE_H_

#include <atomic>
#include <memory>
#include <string>

#include "schema/schema_forest.h"
#include "service/matcher.h"
#include "service/repository_snapshot.h"
#include "util/status.h"

namespace xsm::service {

/// Thread-safe; one instance serves arbitrarily many concurrent callers.
/// The single-snapshot Matcher backend.
class MatchService : public Matcher {
 public:
  /// Convenience: snapshots `repository` (validating it, building the
  /// index once) and wraps it in a service whose reads and durable writes
  /// go through `env` (null: the real filesystem).
  static Result<std::unique_ptr<MatchService>> Create(
      schema::SchemaForest repository,
      const MatchServiceOptions& options = MatchServiceOptions(),
      util::io::Env* env = nullptr);

  /// Boots a service from a checkpoint written by SaveSnapshot /
  /// store::SaveSnapshotToFile (live::RecoverSnapshot, through `env`): the
  /// forest, structural index, name dictionary and fingerprints are
  /// loaded, not rebuilt. With a `wal_path` the journal's post-checkpoint
  /// suffix is replayed (live::ReplayJournal) and journaling continues
  /// into it — the recovered chain is fingerprint-identical to the
  /// uninterrupted one; empty, no journal is attached. Either way delta
  /// ingestion continues from the recovered generation. `report` (may be
  /// null) receives the replay accounting.
  static Result<std::unique_ptr<MatchService>> Recover(
      util::io::Env* env, const std::string& snapshot_path,
      const std::string& wal_path,
      const MatchServiceOptions& options = MatchServiceOptions(),
      live::RecoveryReport* report = nullptr);

  MatchService(std::shared_ptr<const RepositorySnapshot> snapshot,
               const MatchServiceOptions& options = MatchServiceOptions(),
               util::io::Env* env = nullptr);

  ~MatchService() override;

  /// The current snapshot is the pin: no translation layer, the snapshot
  /// class implements RepositoryPin directly.
  RepositoryPinPtr Pin() const override { return CurrentSnapshot(); }

  /// Generation number of the current snapshot (0 until the first delta).
  uint64_t CurrentGeneration() const override {
    return CurrentSnapshot()->generation();
  }

  /// The current snapshot. Hold the returned shared_ptr while touching the
  /// forest/dictionary it exposes — a concurrent ApplyDelta retires the
  /// snapshot once the last holder lets go.
  std::shared_ptr<const RepositorySnapshot> CurrentSnapshot() const {
    return current_.load(std::memory_order_acquire);
  }

 protected:
  /// The successor snapshot, copy-on-write from the current one.
  Result<Successor> BuildSuccessor(const live::RepositoryDelta& delta,
                                   obs::TraceContext* trace) override;
  /// Swaps in `pin` and opens its cache namespace.
  void Publish(RepositoryPinPtr pin) override;
  /// One store snapshot file (store::SaveSnapshotToFile).
  Result<store::SnapshotFileInfo> WriteCheckpoint(
      const RepositoryPin& pin, const std::string& path,
      util::io::Env* env) const override;

  bool OwnsPin(const RepositoryPin& pin) const override;
  /// Injects the pinned snapshot's name dictionary (unless the request
  /// brought its own).
  void AddPlumbing(const RepositoryPin& pin,
                   core::MatchOptions* effective) const override;
  /// On a successor snapshot whose predecessor's namespace holds a ready
  /// state for `key`, carries that state's element matching over
  /// (match::CarryElementMatching) and reruns clustering on it; otherwise
  /// builds from scratch.
  Result<core::ClusterState> BuildClusterState(
      const RepositoryPin& pin, const schema::SchemaTree& personal,
      const core::ClusterStateOptions& options, const std::string& key,
      obs::TraceContext* trace) override;
  Result<core::MatchResult> Generate(
      const RepositoryPin& pin, const schema::SchemaTree& personal,
      const core::ClusterState& state, const core::MatchOptions& effective,
      const core::ExecutionControl& control,
      core::MatchObserver* observer) override;

 private:
  /// The predecessor's ready state for `key` when `snapshot` is a
  /// successor whose rebuilt trees hold at most one eighth of its nodes;
  /// null otherwise.
  ClusterStatePtr CarrySource(const RepositorySnapshot& snapshot,
                              const std::string& key);

  std::atomic<std::shared_ptr<const RepositorySnapshot>> current_;
};

}  // namespace xsm::service

#endif  // XSM_SERVICE_MATCH_SERVICE_H_
