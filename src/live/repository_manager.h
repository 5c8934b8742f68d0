// RepositoryManager: the unjournaled evolving-repository chain. Owns a
// generation-numbered chain of immutable RepositorySnapshots and applies
// RepositoryDeltas copy-on-write: untouched trees share their payload,
// structural index and name-dictionary state between generations; only the
// trees a delta touches are rebuilt (ForestIndex::BuildIncremental /
// NameDictionary::BuildIncremental — proven equivalent to from-scratch
// builds by the live equivalence suite).
//
// Publication is an atomic swap of the current
// shared_ptr<const RepositorySnapshot>: readers that already fetched a
// snapshot keep it (and its whole generation stays alive through the
// shared_ptr) while new readers pick up the successor — no locks on the
// read path, no torn state, no pause in query serving. Writers are
// serialized: concurrent Apply calls queue on an internal mutex and land
// as consecutive generations.
//
// Durability lives in service::Matcher. This file holds what its backends
// share: the successor build and the one replay policy (ReplayJournal).
#ifndef XSM_LIVE_REPOSITORY_MANAGER_H_
#define XSM_LIVE_REPOSITORY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "live/repository_delta.h"
#include "obs/trace.h"
#include "schema/schema_forest.h"
#include "service/repository_snapshot.h"
#include "util/io.h"
#include "util/status.h"
#include "wal/wal.h"

namespace xsm::live {

/// What one Apply built and published.
struct ApplyReport {
  uint64_t generation = 0;   ///< generation number just published
  uint64_t fingerprint = 0;  ///< content fingerprint of that generation
  size_t trees_total = 0;    ///< trees in the new generation
  size_t trees_reused = 0;   ///< carried over without any rebuild
  size_t trees_rebuilt = 0;  ///< indexed and labeled from scratch
  size_t name_entries_copied = 0;    ///< name folds/signatures carried over
  size_t name_entries_computed = 0;  ///< name folds/signatures computed
  double build_seconds = 0;  ///< delta apply + incremental snapshot build
  /// The published snapshot (same object Current() now returns, until the
  /// next delta lands).
  std::shared_ptr<const service::RepositorySnapshot> snapshot;
};

/// What a Recover rebuilt from disk.
struct RecoveryReport {
  uint64_t snapshot_generation = 0;   ///< checkpoint the chain resumed from
  uint64_t recovered_generation = 0;  ///< generation after journal replay
  size_t records_replayed = 0;        ///< deltas re-applied from the journal
  size_t records_skipped = 0;         ///< journal records <= the checkpoint
  bool torn_tail = false;             ///< a crash-torn record was dropped
  uint64_t dropped_bytes = 0;         ///< bytes of that torn record
};

/// The journal half of crash recovery, shared by every backend that
/// journals deltas: reads the journal at `wal_path` and hands each record
/// past the checkpoint to `apply`, which re-applies the delta and returns
/// the fingerprint it produced; that must equal the acknowledged one.
/// Records at or below the checkpoint are skipped and a crash-torn tail is
/// dropped. A CRC-failing complete record, a generation gap, a fingerprint
/// divergence or a journal that begins after the checkpoint is
/// kCorruption. Returns the journal reopened for appending (created fresh
/// at the checkpoint if missing), for the caller to keep journaling into
/// (service::Matcher::AdoptJournal); `report` (may be null) gets the
/// counts. An empty `wal_path` means no journal: nothing is replayed or
/// created, and the returned writer is null.
Result<std::unique_ptr<wal::WalWriter>> ReplayJournal(
    util::io::Env* env, const std::string& wal_path,
    uint64_t checkpoint_generation, uint64_t checkpoint_fingerprint,
    const std::function<Result<uint64_t>(const RepositoryDelta&)>& apply,
    RecoveryReport* report);

/// A store snapshot checkpoint with its journal replayed onto it.
struct RecoveredSnapshot {
  std::shared_ptr<const service::RepositorySnapshot> snapshot;
  /// The journal reopened for appending; null without a `wal_path`.
  std::unique_ptr<wal::WalWriter> journal;
};

/// The load-and-replay routine of every single-snapshot chain: loads the
/// store snapshot at `snapshot_path` through `env` and replays the journal
/// at `wal_path` (empty: none) onto it under the ReplayJournal policy.
/// A null `env` is util::io::Env::Default().
Result<RecoveredSnapshot> RecoverSnapshot(util::io::Env* env,
                                          const std::string& snapshot_path,
                                          const std::string& wal_path,
                                          RecoveryReport* report);

/// Validates `delta` against `base` and builds its successor (the report's
/// `snapshot`), publishing nothing. `trace` (may be null) receives the
/// delta_validate and snapshot_build spans.
Result<ApplyReport> BuildSuccessorSnapshot(
    const std::shared_ptr<const service::RepositorySnapshot>& base,
    const RepositoryDelta& delta, obs::TraceContext* trace = nullptr);

/// Thread-safe. Readers call Current() from any thread at any time;
/// writers call Apply() from any thread (serialized internally).
class RepositoryManager {
 public:
  /// Validates `initial` and wraps it as generation 0.
  static Result<std::unique_ptr<RepositoryManager>> Create(
      schema::SchemaForest initial);

  /// Boots from a checkpoint + journal pair (RecoverSnapshot): the
  /// snapshot loads whole, with no re-parsing or re-indexing, the journal
  /// at `wal_path` (empty: none) is replayed onto it, and the generation
  /// chain continues where it left off. The chain keeps no journal: later
  /// Apply calls are not journaled.
  static Result<std::unique_ptr<RepositoryManager>> Recover(
      util::io::Env* env, const std::string& snapshot_path,
      const std::string& wal_path, RecoveryReport* report = nullptr);

  /// Adopts an existing snapshot (whatever its generation) as the current
  /// one.
  explicit RepositoryManager(
      std::shared_ptr<const service::RepositorySnapshot> initial);

  RepositoryManager(const RepositoryManager&) = delete;
  RepositoryManager& operator=(const RepositoryManager&) = delete;

  /// The current snapshot. Lock-free; the returned shared_ptr pins the
  /// whole generation (forest, index, dictionary) for as long as the
  /// caller holds it, regardless of later deltas.
  std::shared_ptr<const service::RepositorySnapshot> Current() const {
    return current_.load(std::memory_order_acquire);
  }

  uint64_t CurrentGeneration() const { return Current()->generation(); }

  /// Applies `delta` to the current generation and atomically publishes
  /// the successor. On error (invalid target, failed validation) nothing
  /// is published and the current generation is unchanged. In-flight
  /// readers of the previous generation are never disturbed. `trace`
  /// (may be null) receives per-stage spans: delta_validate,
  /// snapshot_build, publish.
  Result<ApplyReport> Apply(const RepositoryDelta& delta,
                            obs::TraceContext* trace = nullptr);

 private:
  /// Serializes writers so generations form a chain, never a fork.
  std::mutex apply_mu_;
  std::atomic<std::shared_ptr<const service::RepositorySnapshot>> current_;
};

}  // namespace xsm::live

#endif  // XSM_LIVE_REPOSITORY_MANAGER_H_
