#include "service/match_service.h"

#include <utility>

#include "store/snapshot_store.h"

namespace xsm::service {

Result<std::unique_ptr<MatchService>> MatchService::Create(
    schema::SchemaForest repository, const MatchServiceOptions& options) {
  XSM_ASSIGN_OR_RETURN(std::shared_ptr<const RepositorySnapshot> snapshot,
                       RepositorySnapshot::Create(std::move(repository)));
  return std::make_unique<MatchService>(std::move(snapshot), options);
}

Result<std::unique_ptr<MatchService>> MatchService::WarmStart(
    const std::string& path, const MatchServiceOptions& options) {
  XSM_ASSIGN_OR_RETURN(std::shared_ptr<const RepositorySnapshot> snapshot,
                       store::LoadSnapshotFromFile(path));
  return std::make_unique<MatchService>(std::move(snapshot), options);
}

Result<std::unique_ptr<MatchService>> MatchService::Recover(
    util::io::Env* env, const std::string& snapshot_path,
    const std::string& wal_path, const MatchServiceOptions& options,
    live::RecoveryReport* report) {
  XSM_ASSIGN_OR_RETURN(
      std::unique_ptr<live::RepositoryManager> manager,
      live::RepositoryManager::Recover(env, snapshot_path, wal_path, report));
  return std::make_unique<MatchService>(std::move(manager), options);
}

MatchService::MatchService(std::shared_ptr<const RepositorySnapshot> snapshot,
                           const MatchServiceOptions& options)
    : MatchService(
          std::make_unique<live::RepositoryManager>(std::move(snapshot)),
          options) {}

MatchService::MatchService(std::unique_ptr<live::RepositoryManager> manager,
                           const MatchServiceOptions& options)
    : Matcher(options, /*num_cache_sets=*/1), manager_(std::move(manager)) {
  manager_->SetMetrics(manager_metrics());
  // Materialize the initial generation's cache namespace so the first
  // queries don't race to create it.
  cache_set(0).Publish(manager_->Current()->fingerprint());
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

Result<live::ApplyReport> MatchService::ApplyDelta(
    const live::RepositoryDelta& delta, obs::TraceContext* trace) {
  // One critical section across publication *and* cache registration:
  // the manager serializes concurrent Apply calls on its own, but without
  // this lock two ApplyDelta callers could register their namespaces in
  // the opposite order, leaving a superseded generation in the
  // most-recently-published slot and trimming the current one.
  std::lock_guard<std::mutex> lock(apply_mu_);
  XSM_ASSIGN_OR_RETURN(live::ApplyReport report,
                       manager_->Apply(delta, trace));
  CountDelta();
  // Materialize (or revive) the new generation's cache namespace and let
  // the retention policy retire the oldest ones.
  cache_set(0).Publish(report.fingerprint);
  return report;
}

}  // namespace xsm::service
