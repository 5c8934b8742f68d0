#include "service/match_service.h"

#include <utility>

#include "live/repository_manager.h"
#include "match/element_matching.h"
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

ClusterStatePtr MatchService::CarrySource(const RepositorySnapshot& snapshot,
                                          const std::string& key) {
  if (!snapshot.has_predecessor()) return nullptr;
  size_t rebuilt_nodes = 0;
  for (size_t t = 0; t < snapshot.num_trees(); ++t) {
    if (snapshot.reuse_map()[t] < 0) {
      rebuilt_nodes += snapshot.forest().tree(static_cast<schema::TreeId>(t))
                           .size();
    }
  }
  // The rebuilt trees are matched with a transient dictionary, which costs
  // more per node than a cold build's prebuilt one. Timed against cold
  // builds on synthetic repositories of 2.5k to 40k elements, carrying
  // stopped paying once 13 % to 20 % of the nodes were rebuilt, so past
  // one eighth the miss builds cold.
  if (8 * rebuilt_nodes > snapshot.forest().total_nodes()) return nullptr;
  return cache_set(0).PeekReady(snapshot.predecessor_fingerprint(), key);
}

Result<core::ClusterState> MatchService::BuildClusterState(
    const RepositoryPin& pin, const schema::SchemaTree& personal,
    const core::ClusterStateOptions& options, const std::string& key,
    obs::TraceContext* trace) {
  const auto& snapshot = static_cast<const RepositorySnapshot&>(pin);
  // Trace-only control: cancellation and deadlines stay stripped (see
  // EffectiveRequestOptions).
  core::ExecutionControl build_control;
  build_control.trace = trace;
  const ClusterStatePtr prev = CarrySource(snapshot, key);
  if (prev == nullptr) {
    return snapshot.matcher().BuildClusterState(personal, options,
                                                &build_control);
  }
  // Scores are pairwise and local, so the carried matching equals a cold
  // one; clustering reruns on it because its couplings are global.
  XSM_ASSIGN_OR_RETURN(
      core::ClusterState state,
      snapshot.matcher().BuildClusterState(
          personal, options, &build_control,
          [&](const match::ElementMatchingOptions& element) {
            return match::CarryElementMatching(prev->matching,
                                               snapshot.reuse_map(),
                                               snapshot.forest(), personal,
                                               element);
          },
          "carried " + std::to_string(snapshot.build_stats().trees_reused) +
              "/" + std::to_string(snapshot.num_trees()) + " trees"));
  CountReusedMatching();
  return state;
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
