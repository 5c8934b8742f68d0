#include "service/match_service.h"

#include <utility>

#include "live/repository_manager.h"
#include "store/snapshot_store.h"

namespace xsm::service {

Result<std::unique_ptr<MatchService>> MatchService::Create(
    schema::SchemaForest repository, const MatchServiceOptions& options,
    util::io::Env* env) {
  XSM_ASSIGN_OR_RETURN(std::shared_ptr<const RepositorySnapshot> snapshot,
                       RepositorySnapshot::Create(std::move(repository)));
  return std::make_unique<MatchService>(std::move(snapshot), options, env);
}

Result<std::unique_ptr<MatchService>> MatchService::Recover(
    util::io::Env* env, const std::string& snapshot_path,
    const std::string& wal_path, const MatchServiceOptions& options,
    live::RecoveryReport* report) {
  XSM_ASSIGN_OR_RETURN(
      live::RecoveredSnapshot recovered,
      live::RecoverSnapshot(env, snapshot_path, wal_path, report));
  auto service = std::make_unique<MatchService>(std::move(recovered.snapshot),
                                                options, env);
  service->AdoptJournal(wal_path, std::move(recovered.journal));
  return service;
}

MatchService::MatchService(std::shared_ptr<const RepositorySnapshot> snapshot,
                           const MatchServiceOptions& options,
                           util::io::Env* env)
    : Matcher(options, /*num_cache_sets=*/1, env),
      current_(std::move(snapshot)) {
  // Materialize the initial generation's cache namespace so the first
  // queries don't race to create it.
  cache_set(0).Publish(CurrentSnapshot()->fingerprint());
  StartServing();
}

MatchService::~MatchService() { StopServing(); }

bool MatchService::OwnsPin(const RepositoryPin& pin) const {
  return dynamic_cast<const RepositorySnapshot*>(&pin) != nullptr;
}

void MatchService::AddPlumbing(const RepositoryPin& pin,
                               core::MatchOptions* effective) const {
  if (effective->element.dictionary == nullptr) {
    effective->element.dictionary =
        &static_cast<const RepositorySnapshot&>(pin).name_dictionary();
  }
}

Result<core::ClusterState> MatchService::BuildClusterState(
    const RepositoryPin& pin, const schema::SchemaTree& personal,
    const core::ClusterStateOptions& options, obs::TraceContext* trace) {
  // Trace-only control: cancellation and deadlines stay stripped (see
  // EffectiveRequestOptions).
  core::ExecutionControl build_control;
  build_control.trace = trace;
  return static_cast<const RepositorySnapshot&>(pin).matcher()
      .BuildClusterState(personal, options, &build_control);
}

Result<core::MatchResult> MatchService::Generate(
    const RepositoryPin& pin, const schema::SchemaTree& personal,
    const core::ClusterState& state, const core::MatchOptions& effective,
    const core::ExecutionControl& control, core::MatchObserver* observer) {
  return static_cast<const RepositorySnapshot&>(pin).matcher().MatchWithState(
      personal, state, effective, control, observer);
}

Result<Matcher::Successor> MatchService::BuildSuccessor(
    const live::RepositoryDelta& delta, obs::TraceContext* trace) {
  XSM_ASSIGN_OR_RETURN(
      live::ApplyReport report,
      live::BuildSuccessorSnapshot(CurrentSnapshot(), delta, trace));
  RepositoryPinPtr pin = report.snapshot;
  return Successor{std::move(pin), std::move(report)};
}

void MatchService::Publish(RepositoryPinPtr pin) {
  // The swap is the publication (in-flight readers keep their pins); the
  // cache set then opens the namespace and retires the oldest ones.
  const uint64_t fingerprint = pin->fingerprint();
  current_.store(std::static_pointer_cast<const RepositorySnapshot>(pin),
                 std::memory_order_release);
  cache_set(0).Publish(fingerprint);
}

Result<store::SnapshotFileInfo> MatchService::WriteCheckpoint(
    const RepositoryPin& pin, const std::string& path,
    util::io::Env* env) const {
  return store::SaveSnapshotToFile(static_cast<const RepositorySnapshot&>(pin),
                                   path, env);
}

}  // namespace xsm::service
