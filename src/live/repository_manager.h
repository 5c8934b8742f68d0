// RepositoryManager: the evolving-repository front end. Owns a
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
#ifndef XSM_LIVE_REPOSITORY_MANAGER_H_
#define XSM_LIVE_REPOSITORY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "live/repository_delta.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schema/schema_forest.h"
#include "service/repository_snapshot.h"
#include "store/snapshot_store.h"
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

/// Registry counter handles the manager bumps on durability events; any
/// member may be null (not collected). The owner (MatchService) registers
/// the series and hands the handles down via SetMetrics, so WAL and
/// checkpoint activity shows up on the same scrape surface as queries.
struct ManagerMetrics {
  obs::Counter* wal_appends = nullptr;      ///< journaled+fsynced deltas
  obs::Counter* wal_compactions = nullptr;  ///< checkpoint compactions
  obs::Counter* snapshot_saves = nullptr;   ///< successful SaveSnapshot calls
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
/// at the checkpoint if missing); `report` (may be null) gets the counts.
Result<std::unique_ptr<wal::WalWriter>> ReplayJournal(
    util::io::Env* env, const std::string& wal_path,
    uint64_t checkpoint_generation, uint64_t checkpoint_fingerprint,
    const std::function<Result<uint64_t>(const RepositoryDelta&)>& apply,
    RecoveryReport* report);

/// Thread-safe. Readers call Current() from any thread at any time;
/// writers call Apply() from any thread (serialized internally).
class RepositoryManager {
 public:
  /// Validates `initial` and wraps it as generation 0.
  static Result<std::unique_ptr<RepositoryManager>> Create(
      schema::SchemaForest initial);

  /// Boots from a persisted snapshot (store::SaveSnapshotToFile output):
  /// no re-parsing or re-indexing, and the generation chain continues
  /// where it left off — the first Apply after a warm start publishes
  /// the loaded generation + 1.
  static Result<std::unique_ptr<RepositoryManager>> WarmStart(
      const std::string& path);

  /// Adopts an existing snapshot (whatever its generation) as the current
  /// one — the path service::MatchService uses when constructed from a
  /// snapshot it already has.
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

  /// Boots from a checkpoint + journal pair: loads the snapshot and
  /// replays the journal onto it under the ReplayJournal policy, then
  /// keeps journaling into the same file.
  static Result<std::unique_ptr<RepositoryManager>> Recover(
      util::io::Env* env, const std::string& snapshot_path,
      const std::string& wal_path, RecoveryReport* report = nullptr);

  /// Attaches a write-ahead journal at `wal_path` (created fresh, based
  /// at the current generation): every subsequent successful Apply
  /// appends its delta — fsync'd — *before* publication, so acknowledged
  /// deltas survive a kill. The caller should persist (or have persisted)
  /// a checkpoint at or before the current generation; Recover needs one
  /// to replay onto.
  Status AttachWal(util::io::Env* env, const std::string& wal_path);

  bool wal_attached() const;

  /// Applies `delta` to the current generation and atomically publishes
  /// the successor. On error (invalid target, failed validation, journal
  /// append failure) nothing is published and the current generation is
  /// unchanged — an unjournaled delta is never acknowledged. A failed
  /// append closes the journal: later deltas fail kFailedPrecondition
  /// until SaveSnapshot re-bases it (see wal::WalWriter::Append). In-flight
  /// readers of the previous generation are never disturbed. `trace`
  /// (may be null) receives per-stage spans: delta_validate,
  /// snapshot_build, wal_fsync, publish.
  Result<ApplyReport> Apply(const RepositoryDelta& delta,
                            obs::TraceContext* trace = nullptr);

  /// Persists the current snapshot (atomic write; see
  /// store::SaveSnapshotToFile). With a journal attached this is the
  /// checkpoint: once the snapshot is durable, the journal is compacted
  /// to a fresh one based at the saved generation (writers are held out
  /// for the duration, so no acknowledged delta can fall between the
  /// checkpoint and the new journal). If compaction itself fails the old
  /// journal stays — recovery then skips its pre-checkpoint records.
  /// `trace` (may be null) receives store_save / wal_compact spans.
  Result<store::SnapshotFileInfo> SaveSnapshot(
      const std::string& path, obs::TraceContext* trace = nullptr);

  /// Installs registry counter handles for durability events (see
  /// ManagerMetrics); pass {} to detach. Handles must outlive the manager
  /// (registry series do — they live as long as the registry).
  void SetMetrics(const ManagerMetrics& metrics);

 private:
  /// Serializes writers so generations form a chain, never a fork, and
  /// guards the journal writer.
  mutable std::mutex apply_mu_;
  std::atomic<std::shared_ptr<const service::RepositorySnapshot>> current_;
  // Journal state (all under apply_mu_; null when journaling is off).
  util::io::Env* env_ = nullptr;
  std::string wal_path_;
  std::unique_ptr<wal::WalWriter> wal_;
  /// Durability-event counter handles (under apply_mu_; null = off).
  ManagerMetrics metrics_;
};

}  // namespace xsm::live

#endif  // XSM_LIVE_REPOSITORY_MANAGER_H_
