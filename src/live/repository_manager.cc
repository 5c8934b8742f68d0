#include "live/repository_manager.h"

#include <utility>

#include "live/delta_codec.h"
#include "store/snapshot_store.h"
#include "util/timer.h"

namespace xsm::live {

Result<std::unique_ptr<RepositoryManager>> RepositoryManager::Create(
    schema::SchemaForest initial) {
  XSM_ASSIGN_OR_RETURN(
      std::shared_ptr<const service::RepositorySnapshot> snapshot,
      service::RepositorySnapshot::Create(std::move(initial)));
  return std::make_unique<RepositoryManager>(std::move(snapshot));
}

RepositoryManager::RepositoryManager(
    std::shared_ptr<const service::RepositorySnapshot> initial)
    : current_(std::move(initial)) {}

Result<ApplyReport> BuildSuccessorSnapshot(
    const std::shared_ptr<const service::RepositorySnapshot>& base,
    const RepositoryDelta& delta, obs::TraceContext* trace) {
  Timer timer;
  AppliedDelta applied;
  {
    obs::ScopedSpan span(trace, "delta_validate");
    XSM_ASSIGN_OR_RETURN(applied, ApplyDeltaToForest(base->forest(), delta));
  }
  std::shared_ptr<const service::RepositorySnapshot> successor;
  {
    obs::ScopedSpan span(trace, "snapshot_build");
    XSM_ASSIGN_OR_RETURN(
        successor,
        service::RepositorySnapshot::CreateSuccessor(
            base, std::move(applied.forest), applied.reuse_map));
  }
  ApplyReport report;
  report.generation = successor->generation();
  report.fingerprint = successor->fingerprint();
  report.trees_total = successor->num_trees();
  const service::RepositorySnapshot::BuildStats& stats =
      successor->build_stats();
  report.trees_reused = stats.trees_reused;
  report.trees_rebuilt = stats.trees_rebuilt;
  report.name_entries_copied = stats.name_entries_copied;
  report.name_entries_computed = stats.name_entries_computed;
  report.build_seconds = timer.ElapsedSeconds();
  report.snapshot = std::move(successor);
  return report;
}

Result<ApplyReport> RepositoryManager::Apply(const RepositoryDelta& delta,
                                             obs::TraceContext* trace) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  // Writers are serialized, so the snapshot read here is the one the
  // successor chains from — readers may fetch it concurrently, which is
  // fine: it is immutable either way.
  XSM_ASSIGN_OR_RETURN(
      ApplyReport report,
      BuildSuccessorSnapshot(current_.load(std::memory_order_acquire), delta,
                             trace));
  // The swap is the publication: new readers see the successor, in-flight
  // readers keep the base until they drop their shared_ptr.
  obs::ScopedSpan span(trace, "publish");
  current_.store(report.snapshot, std::memory_order_release);
  return report;
}

Result<RecoveredSnapshot> RecoverSnapshot(util::io::Env* env,
                                          const std::string& snapshot_path,
                                          const std::string& wal_path,
                                          RecoveryReport* report) {
  if (env == nullptr) env = util::io::Env::Default();
  RecoveredSnapshot recovered;
  XSM_ASSIGN_OR_RETURN(recovered.snapshot,
                       store::LoadSnapshotFromFile(snapshot_path, env));
  XSM_ASSIGN_OR_RETURN(
      recovered.journal,
      ReplayJournal(
          env, wal_path, recovered.snapshot->generation(),
          recovered.snapshot->fingerprint(),
          [&recovered](const RepositoryDelta& delta) -> Result<uint64_t> {
            XSM_ASSIGN_OR_RETURN(
                ApplyReport applied,
                BuildSuccessorSnapshot(recovered.snapshot, delta));
            recovered.snapshot = std::move(applied.snapshot);
            return recovered.snapshot->fingerprint();
          },
          report));
  return recovered;
}

Result<std::unique_ptr<RepositoryManager>> RepositoryManager::Recover(
    util::io::Env* env, const std::string& snapshot_path,
    const std::string& wal_path, RecoveryReport* report) {
  XSM_ASSIGN_OR_RETURN(RecoveredSnapshot recovered,
                       RecoverSnapshot(env, snapshot_path, wal_path, report));
  return std::make_unique<RepositoryManager>(std::move(recovered.snapshot));
}

Result<std::unique_ptr<wal::WalWriter>> ReplayJournal(
    util::io::Env* env, const std::string& wal_path,
    uint64_t checkpoint_generation, uint64_t checkpoint_fingerprint,
    const std::function<Result<uint64_t>(const RepositoryDelta&)>& apply,
    RecoveryReport* report) {
  RecoveryReport local;
  local.snapshot_generation = checkpoint_generation;
  local.recovered_generation = checkpoint_generation;
  if (wal_path.empty()) {
    if (report != nullptr) *report = local;
    return std::unique_ptr<wal::WalWriter>();
  }

  auto read = wal::ReadWal(env, wal_path);
  if (!read.ok() && read.status().code() == StatusCode::kNotFound) {
    // No journal (first boot, or it was never attached): start one fresh.
    if (report != nullptr) *report = local;
    return wal::WalWriter::Create(env, wal_path, checkpoint_generation,
                                  checkpoint_fingerprint);
  }
  XSM_RETURN_NOT_OK(read.status());
  local.torn_tail = read->torn_tail;
  local.dropped_bytes = read->dropped_bytes;

  if (read->info.base_generation > checkpoint_generation) {
    // The journal's first record would chain onto a generation newer than
    // the checkpoint we have — deltas between them are unrecoverable.
    return Status::Corruption(
        "journal " + wal_path + " begins at generation " +
        std::to_string(read->info.base_generation) +
        " but the checkpoint is at generation " +
        std::to_string(checkpoint_generation));
  }

  uint64_t& current = local.recovered_generation;
  for (const wal::WalRecord& record : read->records) {
    XSM_ASSIGN_OR_RETURN(JournaledDelta journaled,
                         DeserializeJournaledDelta(record.payload));
    if (journaled.resulting_generation <= current) {
      // Pre-checkpoint record (a compaction crashed before rewriting the
      // journal): the snapshot already contains it.
      ++local.records_skipped;
      continue;
    }
    if (journaled.resulting_generation != current + 1) {
      return Status::Corruption(
          "journal gap: record yields generation " +
          std::to_string(journaled.resulting_generation) +
          " but the chain is at " + std::to_string(current));
    }
    XSM_ASSIGN_OR_RETURN(uint64_t fingerprint, apply(journaled.delta));
    ++current;
    if (fingerprint != journaled.resulting_fingerprint) {
      return Status::Corruption(
          "journal replay diverged at generation " + std::to_string(current) +
          ": fingerprint " + std::to_string(fingerprint) +
          " vs acknowledged " +
          std::to_string(journaled.resulting_fingerprint));
    }
    ++local.records_replayed;
  }

  // Reopen in append mode: the replayed records stay (the checkpoint on
  // disk is still the old generation; a second crash must find them), and
  // any torn tail is truncated to put the next append on a frame boundary.
  XSM_ASSIGN_OR_RETURN(std::unique_ptr<wal::WalWriter> writer,
                       wal::WalWriter::Open(env, wal_path, *read));
  if (report != nullptr) *report = local;
  return writer;
}

}  // namespace xsm::live
