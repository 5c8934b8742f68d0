#include "shard/sharded_match_service.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <utility>

#include "generate/top_n_floor.h"
#include "label/tree_index.h"
#include "match/element_matching.h"
#include "obs/trace.h"
#include "store/snapshot_store.h"
#include "util/io.h"
#include "util/timer.h"

namespace xsm::shard {

namespace {

constexpr const char* kManifestMagic = "xsm-shard-manifest";
constexpr int kManifestVersion = 1;

struct Manifest {
  size_t shards = 0;
  uint64_t generation = 0;
  uint64_t fingerprint = 0;
};

std::string EncodeManifest(const Manifest& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s %d\nshards %zu\ngeneration %" PRIu64
                "\nfingerprint %016" PRIx64 "\n",
                kManifestMagic, kManifestVersion, m.shards, m.generation,
                m.fingerprint);
  return buf;
}

Result<Manifest> ParseManifest(const std::string& text) {
  Manifest m;
  int version = 0;
  char magic[32] = {0};
  if (std::sscanf(text.c_str(),
                  "%31s %d\nshards %zu\ngeneration %" SCNu64
                  "\nfingerprint %" SCNx64,
                  magic, &version, &m.shards, &m.generation,
                  &m.fingerprint) != 5 ||
      std::string(magic) != kManifestMagic) {
    return Status::Corruption("not a shard manifest");
  }
  if (version != kManifestVersion) {
    return Status::Corruption("unsupported shard manifest version");
  }
  if (m.shards == 0) {
    return Status::Corruption("shard manifest names zero shards");
  }
  return m;
}

/// Terminal-status merge priority: the "most interrupted" shard wins, so
/// a scattered run reports cancellation over a co-occurring deadline, and
/// any interruption over completion.
int StatusRank(core::ExecutionStatus status) {
  switch (status) {
    case core::ExecutionStatus::kCancelled:
      return 3;
    case core::ExecutionStatus::kDeadlineExceeded:
      return 2;
    case core::ExecutionStatus::kEarlyStopped:
      return 1;
    case core::ExecutionStatus::kCompleted:
      return 0;
  }
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedPin: the federated RepositoryPin. Materializes a global-view
// forest + index over the K shard snapshots by sharing every tree payload
// and TreeIndex (O(num_trees) pointer copies), so the global Bellflower —
// which clustering and generation run through — sees exactly the forest
// the unsharded backend would, and the global fingerprint composes the
// same per-tree fingerprints the same way.
// ---------------------------------------------------------------------------

class ShardedMatchService::ShardedPin : public service::RepositoryPin {
 public:
  static std::shared_ptr<const ShardedPin> Build(
      std::vector<std::shared_ptr<const service::RepositorySnapshot>> shards,
      uint64_t generation) {
    auto pin = std::shared_ptr<ShardedPin>(new ShardedPin());
    pin->shards_ = std::move(shards);
    pin->generation_ = generation;
    std::vector<size_t> counts;
    counts.reserve(pin->shards_.size());
    size_t total_trees = 0;
    for (const auto& shard : pin->shards_) {
      counts.push_back(shard->num_trees());
      total_trees += shard->num_trees();
    }
    pin->plan_ = ShardPlan::FromShardTreeCounts(counts);
    std::vector<std::shared_ptr<const label::TreeIndex>> parts;
    parts.reserve(total_trees);
    pin->tree_fps_.reserve(total_trees);
    for (const auto& shard : pin->shards_) {
      const schema::SchemaForest& forest = shard->forest();
      for (schema::TreeId t = 0;
           t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
        pin->forest_.AddTree(forest.tree_ptr(t), forest.source(t));
        parts.push_back(shard->index().tree_ptr(t));
        pin->tree_fps_.push_back(shard->tree_fingerprint(t));
      }
    }
    pin->fingerprint_ = service::CombineForestFingerprint(
        pin->forest_.num_trees(), pin->forest_.total_nodes(), pin->tree_fps_);
    // The forest lives at its final heap address now; the matcher's
    // internal pointer stays valid for the pin's whole life.
    pin->matcher_ = std::make_unique<core::Bellflower>(
        &pin->forest_, label::ForestIndex::FromParts(std::move(parts)));
    return pin;
  }

  const schema::SchemaForest& forest() const override { return forest_; }
  uint64_t generation() const override { return generation_; }
  uint64_t fingerprint() const override { return fingerprint_; }
  uint64_t tree_fingerprint(schema::TreeId id) const override {
    return tree_fps_[static_cast<size_t>(id)];
  }

  const ShardPlan& plan() const { return plan_; }
  size_t num_shards() const { return shards_.size(); }
  const std::shared_ptr<const service::RepositorySnapshot>& shard(
      size_t s) const {
    return shards_[s];
  }
  const core::Bellflower& matcher() const { return *matcher_; }

 private:
  ShardedPin() = default;

  schema::SchemaForest forest_;
  std::unique_ptr<core::Bellflower> matcher_;
  ShardPlan plan_;
  std::vector<std::shared_ptr<const service::RepositorySnapshot>> shards_;
  std::vector<uint64_t> tree_fps_;
  uint64_t generation_ = 0;
  uint64_t fingerprint_ = 0;
};

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

std::string ShardedMatchService::ShardFilePath(const std::string& prefix,
                                               size_t shard) {
  return prefix + ".shard" + std::to_string(shard);
}

Result<std::unique_ptr<ShardedMatchService>> ShardedMatchService::Create(
    schema::SchemaForest repository,
    const service::MatchServiceOptions& options,
    const ShardedOptions& shard_options) {
  if (shard_options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  XSM_RETURN_NOT_OK(repository.Validate());
  const size_t k = shard_options.num_shards;
  std::vector<size_t> nodes;
  nodes.reserve(repository.num_trees());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(repository.num_trees()); ++t) {
    nodes.push_back(repository.tree(t).size());
  }
  ShardPlan plan = ShardPlan::Balanced(nodes, k);

  // Per-shard snapshot builds (indexing + dictionary folding, the expensive
  // part of publish) run in parallel — this is where sharded publish beats
  // the single monolithic build.
  ThreadPool build_pool(std::min(k, ThreadPool::DefaultThreadCount()));
  std::vector<
      std::future<Result<std::shared_ptr<const service::RepositorySnapshot>>>>
      futures;
  futures.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    futures.push_back(build_pool.Submit(
        [&repository, &plan,
         s]() -> Result<std::shared_ptr<const service::RepositorySnapshot>> {
          schema::SchemaForest sub;
          const schema::TreeId first = plan.first_tree(s);
          for (schema::TreeId local = 0;
               local < static_cast<schema::TreeId>(plan.shard_trees(s));
               ++local) {
            sub.AddTree(repository.tree_ptr(first + local),
                        repository.source(first + local));
          }
          return service::RepositorySnapshot::Create(std::move(sub));
        }));
  }
  std::vector<std::shared_ptr<const service::RepositorySnapshot>> shards;
  shards.reserve(k);
  Status first_error = Status::OK();
  for (auto& future : futures) {
    auto result = future.get();
    if (!result.ok()) {
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    shards.push_back(std::move(result.value()));
  }
  XSM_RETURN_NOT_OK(first_error);

  std::vector<std::unique_ptr<live::RepositoryManager>> managers;
  managers.reserve(k);
  for (auto& shard : shards) {
    managers.push_back(std::make_unique<live::RepositoryManager>(shard));
  }
  auto pin = ShardedPin::Build(std::move(shards), /*generation=*/0);
  return std::unique_ptr<ShardedMatchService>(new ShardedMatchService(
      std::move(managers), std::move(pin), options, shard_options));
}

Result<std::unique_ptr<ShardedMatchService>> ShardedMatchService::WarmStart(
    const std::string& path, const service::MatchServiceOptions& options,
    const ShardedOptions& shard_options, util::io::Env* env) {
  if (env == nullptr) env = util::io::Env::Default();
  XSM_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(path));
  XSM_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(text));

  std::vector<std::shared_ptr<const service::RepositorySnapshot>> shards;
  std::vector<std::unique_ptr<live::RepositoryManager>> managers;
  shards.reserve(manifest.shards);
  managers.reserve(manifest.shards);
  for (size_t s = 0; s < manifest.shards; ++s) {
    XSM_ASSIGN_OR_RETURN(
        std::shared_ptr<const service::RepositorySnapshot> shard,
        store::LoadSnapshotFromFile(ShardFilePath(path, s), env));
    managers.push_back(std::make_unique<live::RepositoryManager>(shard));
    shards.push_back(std::move(shard));
  }
  auto pin = ShardedPin::Build(std::move(shards), manifest.generation);
  // Every shard file verified its own content; this check proves the set
  // of shard files is the set the manifest was written for.
  if (pin->fingerprint() != manifest.fingerprint) {
    return Status::Corruption(
        "shard contents do not match the manifest fingerprint");
  }
  ShardedOptions effective_shards = shard_options;
  effective_shards.num_shards = manifest.shards;
  auto service = std::unique_ptr<ShardedMatchService>(new ShardedMatchService(
      std::move(managers), std::move(pin), options, effective_shards));
  service->snap_prefix_ = path;
  return service;
}

Result<std::unique_ptr<ShardedMatchService>> ShardedMatchService::Recover(
    util::io::Env* env, const std::string& snapshot_path,
    const std::string& wal_path, const service::MatchServiceOptions& options,
    const ShardedOptions& shard_options, live::RecoveryReport* report) {
  if (env == nullptr) env = util::io::Env::Default();
  XSM_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(snapshot_path));
  XSM_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(text));

  std::vector<std::unique_ptr<live::RepositoryManager>> managers;
  std::vector<std::shared_ptr<const service::RepositorySnapshot>> shards;
  managers.reserve(manifest.shards);
  shards.reserve(manifest.shards);
  uint64_t max_replay_depth = 0;
  live::RecoveryReport aggregate;
  for (size_t s = 0; s < manifest.shards; ++s) {
    live::RecoveryReport shard_report;
    XSM_ASSIGN_OR_RETURN(
        std::unique_ptr<live::RepositoryManager> manager,
        live::RepositoryManager::Recover(env, ShardFilePath(snapshot_path, s),
                                         ShardFilePath(wal_path, s),
                                         &shard_report));
    max_replay_depth = std::max(
        max_replay_depth, shard_report.recovered_generation -
                              shard_report.snapshot_generation);
    aggregate.records_replayed += shard_report.records_replayed;
    aggregate.records_skipped += shard_report.records_skipped;
    aggregate.torn_tail = aggregate.torn_tail || shard_report.torn_tail;
    aggregate.dropped_bytes += shard_report.dropped_bytes;
    shards.push_back(manager->Current());
    managers.push_back(std::move(manager));
  }
  aggregate.snapshot_generation = manifest.generation;
  aggregate.recovered_generation = manifest.generation + max_replay_depth;
  if (report != nullptr) *report = aggregate;

  auto pin =
      ShardedPin::Build(std::move(shards), aggregate.recovered_generation);
  // Fingerprints are only comparable when no journal records moved the
  // content past the checkpoint.
  if (max_replay_depth == 0 && pin->fingerprint() != manifest.fingerprint) {
    return Status::Corruption(
        "shard contents do not match the manifest fingerprint");
  }
  ShardedOptions effective_shards = shard_options;
  effective_shards.num_shards = manifest.shards;
  auto service = std::unique_ptr<ShardedMatchService>(new ShardedMatchService(
      std::move(managers), std::move(pin), options, effective_shards));
  service->generation_ = aggregate.recovered_generation;
  service->wal_env_ = env;
  service->wal_prefix_ = wal_path;
  service->snap_prefix_ = snapshot_path;
  return service;
}

// ---------------------------------------------------------------------------
// Construction / metrics.
// ---------------------------------------------------------------------------

ShardedMatchService::ShardedMatchService(
    std::vector<std::unique_ptr<live::RepositoryManager>> managers,
    std::shared_ptr<const ShardedPin> pin,
    const service::MatchServiceOptions& options,
    const ShardedOptions& shard_options)
    : Matcher(options, /*num_cache_sets=*/1 + managers.size()),
      shard_options_(shard_options),
      managers_(std::move(managers)),
      generation_(pin->generation()),
      pin_(std::move(pin)) {
  const size_t k = managers_.size();
  fanout_pool_ = std::make_unique<ThreadPool>(
      std::min(k, ThreadPool::DefaultThreadCount()));
  for (auto& manager : managers_) {
    manager->SetMetrics(manager_metrics());
  }

  obs::MetricsRegistry& registry = metrics();
  fanouts_ = registry.RegisterCounter(
      "xsm_shard_fanouts_total",
      "queries whose generation phase scattered across >1 shard",
      metric_labels());
  rebalances_ = registry.RegisterCounter(
      "xsm_shard_rebalances_total", "shard plan rebalances after deltas",
      metric_labels());
  // Per-shard layout gauges, labeled by shard index.
  std::vector<obs::Gauge*> shard_trees, shard_nodes, shard_generations;
  for (size_t s = 0; s < k; ++s) {
    obs::LabelSet shard_labels = metric_labels();
    shard_labels.push_back({"shard", std::to_string(s)});
    shard_trees.push_back(registry.RegisterGauge(
        "xsm_shard_trees", "trees owned by the shard", shard_labels));
    shard_nodes.push_back(registry.RegisterGauge(
        "xsm_shard_nodes", "total nodes owned by the shard", shard_labels));
    shard_generations.push_back(registry.RegisterGauge(
        "xsm_shard_generation", "the shard's own chain generation",
        shard_labels));
  }

  // Materialize the initial cache namespaces.
  PublishCaches(*pin_);
  StartServing([this, shard_trees, shard_nodes, shard_generations]() {
    std::shared_ptr<const ShardedPin> pin = CurrentPin();
    for (size_t i = 0; i < pin->num_shards(); ++i) {
      shard_trees[i]->Set(static_cast<double>(pin->shard(i)->num_trees()));
      shard_nodes[i]->Set(static_cast<double>(pin->shard(i)->total_nodes()));
      shard_generations[i]->Set(
          static_cast<double>(pin->shard(i)->generation()));
    }
  });
}

ShardedMatchService::~ShardedMatchService() { StopServing(); }

void ShardedMatchService::PublishCaches(const ShardedPin& pin) {
  cache_set(0).Publish(pin.fingerprint());
  for (size_t s = 0; s < pin.num_shards(); ++s) {
    cache_set(1 + s).Publish(pin.shard(s)->fingerprint());
  }
}

// ---------------------------------------------------------------------------
// Pin plumbing.
// ---------------------------------------------------------------------------

std::shared_ptr<const ShardedMatchService::ShardedPin>
ShardedMatchService::CurrentPin() const {
  std::lock_guard<std::mutex> lock(pin_mu_);
  return pin_;
}

service::RepositoryPinPtr ShardedMatchService::Pin() const {
  return CurrentPin();
}

uint64_t ShardedMatchService::CurrentGeneration() const {
  return CurrentPin()->generation();
}

bool ShardedMatchService::OwnsPin(const service::RepositoryPin& pin) const {
  return dynamic_cast<const ShardedPin*>(&pin) != nullptr;
}

void ShardedMatchService::AddPlumbing(const service::RepositoryPin& /*pin*/,
                                      core::MatchOptions* /*effective*/) const {
}

std::vector<service::ShardDescriptor> ShardedMatchService::Shards() const {
  std::shared_ptr<const ShardedPin> pin = CurrentPin();
  std::vector<service::ShardDescriptor> out;
  out.reserve(pin->num_shards());
  for (size_t s = 0; s < pin->num_shards(); ++s) {
    service::ShardDescriptor d;
    d.shard = s;
    d.generation = pin->shard(s)->generation();
    d.fingerprint = pin->shard(s)->fingerprint();
    d.trees = pin->shard(s)->num_trees();
    d.nodes = pin->shard(s)->total_nodes();
    d.first_tree = pin->plan().first_tree(s);
    out.push_back(d);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cluster-state scatter.
// ---------------------------------------------------------------------------

Result<core::ClusterState> ShardedMatchService::BuildClusterState(
    const service::RepositoryPin& global, const schema::SchemaTree& personal,
    const core::ClusterStateOptions& state_options, obs::TraceContext* trace) {
  const auto& pin = static_cast<const ShardedPin&>(global);
  const std::string key =
      service::BuildClusterStateKey(personal, state_options);
  // Scatter element matching per shard. Each shard matches against its own
  // forest with its own dictionary; per-shard results are cached in the
  // shard's fingerprint-namespaced cache (matching-only ClusterStates), so
  // a delta touching one shard recomputes one shard.
  obs::ScopedSpan fan_span(trace, "shard_fanout");
  std::vector<size_t> shard_ids;
  std::vector<std::future<Result<service::ClusterStatePtr>>> futures;
  for (size_t s = 0; s < pin.num_shards(); ++s) {
    if (pin.shard(s)->num_trees() == 0) continue;
    shard_ids.push_back(s);
    futures.push_back(fanout_pool_->Submit(
        [this, &pin, &personal, &state_options, &key,
         s]() -> Result<service::ClusterStatePtr> {
          const auto& snap = pin.shard(s);
          return cache_set(1 + s).Get(snap->fingerprint())->GetOrCompute(
              key, [&]() -> Result<core::ClusterState> {
                match::ElementMatchingOptions mo = state_options.element;
                mo.dictionary = &snap->name_dictionary();
                // Like the global cache: a build that starts always
                // completes, so a cached shard result can never be partial.
                mo.control = nullptr;
                Timer timer;
                XSM_ASSIGN_OR_RETURN(
                    match::ElementMatchingResult matched,
                    match::MatchElements(personal, snap->forest(), mo));
                core::ClusterState partial;
                partial.matching = std::move(matched);
                partial.time_matching_seconds = timer.ElapsedSeconds();
                return partial;
              });
        }));
  }
  std::vector<service::ClusterStatePtr> parts;
  parts.reserve(futures.size());
  Status first_error = Status::OK();
  for (auto& future : futures) {
    auto part = future.get();
    if (!part.ok()) {
      if (first_error.ok()) first_error = part.status();
      continue;
    }
    parts.push_back(std::move(part.value()));
  }
  XSM_RETURN_NOT_OK(first_error);
  if (trace != nullptr) {
    fan_span.set_note(std::to_string(parts.size()) + " shards");
  }

  // Gather: concatenate in shard order with each shard's tree ids offset by
  // its first global tree. Per-shard element lists are NodeRef-sorted and
  // shard tree ranges are increasing, so plain concatenation reproduces the
  // global sorted order bit-for-bit.
  match::ElementMatchingResult merged;
  merged.sets.resize(personal.size());
  for (schema::NodeId n = 0; n < static_cast<schema::NodeId>(personal.size());
       ++n) {
    merged.sets[static_cast<size_t>(n)].personal_node = n;
  }
  double matching_seconds = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    const schema::TreeId offset = pin.plan().first_tree(shard_ids[i]);
    const match::ElementMatchingResult& part = parts[i]->matching;
    matching_seconds += parts[i]->time_matching_seconds;
    for (size_t n = 0; n < part.sets.size(); ++n) {
      auto& out = merged.sets[n].elements;
      for (const match::MappingElement& element : part.sets[n].elements) {
        out.push_back(
            {{element.node.tree + offset, element.node.node}, element.score});
      }
    }
    for (size_t d = 0; d < part.distinct_nodes.size(); ++d) {
      merged.distinct_nodes.push_back(
          {part.distinct_nodes[d].tree + offset, part.distinct_nodes[d].node});
      merged.masks.push_back(part.masks[d]);
    }
  }

  // Cluster once, globally: k-means' global couplings (MEmin seeding,
  // convergence, the RNG) see exactly what the unsharded pipeline would
  // have seen.
  core::ExecutionControl build_control;
  build_control.trace = trace;
  return pin.matcher().ClusterFromMatching(personal, std::move(merged),
                                           matching_seconds, state_options,
                                           &build_control);
}

// ---------------------------------------------------------------------------
// Generation scatter.
// ---------------------------------------------------------------------------

Result<core::MatchResult> ShardedMatchService::Generate(
    const service::RepositoryPin& global, const schema::SchemaTree& personal,
    const core::ClusterState& state, const core::MatchOptions& effective,
    const core::ExecutionControl& control, core::MatchObserver* observer) {
  const auto& pin = static_cast<const ShardedPin&>(global);
  const core::Bellflower& matcher = pin.matcher();
  // Partition the global cluster list by owning shard (clusters never span
  // trees, so every cluster has exactly one owner).
  const size_t k = pin.num_shards();
  std::vector<std::vector<size_t>> subsets(k);
  size_t active = 0;
  for (size_t ci = 0; ci < state.clustering.clusters.size(); ++ci) {
    const size_t s = pin.plan().shard_of(state.clustering.clusters[ci].tree);
    if (subsets[s].empty()) ++active;
    subsets[s].push_back(ci);
  }

  // Configurations whose per-run adaptive state couples clusters across
  // shards fall back to one unscattered (still exact) global run: the
  // adaptive-δ ratchet reclassifies cluster usefulness when partials are
  // also enumerated, and the pre-clustering structural baseline re-scores
  // every element per run.
  const bool coupled =
      (effective.include_partial_mappings && effective.adaptive_top_n &&
       effective.top_n > 0) ||
      (effective.structural_matcher != nullptr &&
       !effective.structural_within_clusters_only);
  if (observer != nullptr || active <= 1 || coupled) {
    return matcher.MatchWithState(personal, state, effective, control,
                                  observer);
  }

  // Scatter generation: one restricted MatchWithState per owning shard
  // against the shared global state. Exactness: disjoint subsets emit
  // exactly the mappings of one unrestricted run, and any mapping a
  // shard's adaptive ratchet (or the shared δ floor below) prunes is
  // provably outside the global top N.
  fanouts_->Increment();
  Timer generation_timer;
  std::vector<Result<core::MatchResult>> shard_results;
  {
    obs::ScopedSpan fan_span(control.trace, "shard_fanout");
    if (control.trace != nullptr) {
      fan_span.set_note(std::to_string(active) + "/" + std::to_string(k) +
                        " shards");
    }
    // Shared adaptive-δ floor: once the merged results hold top_n mappings,
    // shard tasks starting later raise their δ to the global N-th best —
    // pure work savings, the top N is unchanged.
    const bool share_floor = effective.adaptive_top_n &&
                             effective.top_n > 0 &&
                             !effective.include_partial_mappings;
    std::mutex floor_mu;
    std::optional<generate::TopNFloor> floor;
    if (share_floor) floor.emplace(effective.top_n);
    auto read_floor = [&]() {
      if (!floor) return effective.delta;
      std::lock_guard<std::mutex> lock(floor_mu);
      return floor->Floor(effective.delta);
    };
    auto publish_deltas = [&](const std::vector<generate::SchemaMapping>& ms) {
      if (!floor) return;
      std::lock_guard<std::mutex> lock(floor_mu);
      for (const generate::SchemaMapping& m : ms) floor->Add(m.delta);
    };

    std::vector<std::future<Result<core::MatchResult>>> futures;
    futures.reserve(active);
    for (size_t s = 0; s < k; ++s) {
      if (subsets[s].empty()) continue;
      futures.push_back(fanout_pool_->Submit(
          [&, s]() -> Result<core::MatchResult> {
            core::MatchOptions task_options = effective;
            task_options.delta = read_floor();
            core::ExecutionControl task_control = control;
            // Spans stay on the scattering thread; TraceContext is not
            // shared across concurrent writers.
            task_control.trace = nullptr;
            Result<core::MatchResult> run = matcher.MatchWithState(
                personal, state, task_options, task_control,
                /*observer=*/nullptr, &subsets[s]);
            if (run.ok()) publish_deltas(run->mappings);
            return run;
          }));
    }
    shard_results.reserve(futures.size());
    for (auto& future : futures) {
      shard_results.push_back(future.get());
    }
  }
  for (const auto& run : shard_results) {
    XSM_RETURN_NOT_OK(run.status());
  }

  // Gather: the same deterministic reduction the unsharded engine performs
  // as its stage ⑤ (sort by MappingOrder, truncate to top N).
  obs::ScopedSpan merge_span(control.trace, "shard_merge");
  core::MatchResult merged;
  // State-wide stats fields are identical in every restricted run; start
  // from the first and re-accumulate the per-run ones.
  merged.stats = shard_results[0].value().stats;
  merged.stats.num_clusters = state.clustering.clusters.size();
  merged.stats.num_useful_clusters = 0;
  merged.stats.search_space = 0;
  merged.stats.generator = {};
  merged.stats.partial_generator = {};
  merged.stats.structural_evaluations = 0;
  merged.stats.time_structural_seconds = 0;
  merged.stats.partials_until_first_mapping = 0;
  merged.stats.clusters_until_first_mapping = 0;
  merged.stats.num_mappings = 0;
  merged.stats.cluster_summaries.clear();
  double useful_pairs = 0;
  for (auto& run : shard_results) {
    core::MatchResult& r = run.value();
    if (StatusRank(r.execution) > StatusRank(merged.execution)) {
      merged.execution = r.execution;
    }
    std::move(r.mappings.begin(), r.mappings.end(),
              std::back_inserter(merged.mappings));
    std::move(r.partial_mappings.begin(), r.partial_mappings.end(),
              std::back_inserter(merged.partial_mappings));
    merged.stats.num_useful_clusters += r.stats.num_useful_clusters;
    merged.stats.search_space += r.stats.search_space;
    // num_mappings counts what generation materialized before the final
    // top-N cut, so sum the per-run pre-truncation counts rather than
    // sizing the merged (per-shard already truncated) list. Without
    // adaptive pruning the sum equals the unsharded count exactly
    // (disjoint subsets); with adaptive top-N it may exceed it slightly —
    // each shard's δ ratchet sees only its own clusters — which is pure
    // work accounting: the merged top N is unchanged.
    merged.stats.num_mappings += r.stats.num_mappings;
    useful_pairs += r.stats.avg_elements_per_useful_cluster *
                    static_cast<double>(r.stats.num_useful_clusters);
    merged.stats.generator += r.stats.generator;
    merged.stats.partial_generator += r.stats.partial_generator;
    merged.stats.structural_evaluations += r.stats.structural_evaluations;
    merged.stats.time_structural_seconds += r.stats.time_structural_seconds;
    merged.stats.partials_until_first_mapping +=
        r.stats.partials_until_first_mapping;
    merged.stats.clusters_until_first_mapping +=
        r.stats.clusters_until_first_mapping;
    std::move(r.stats.cluster_summaries.begin(),
              r.stats.cluster_summaries.end(),
              std::back_inserter(merged.stats.cluster_summaries));
  }
  merged.stats.avg_elements_per_useful_cluster =
      merged.stats.num_useful_clusters == 0
          ? 0.0
          : useful_pairs /
                static_cast<double>(merged.stats.num_useful_clusters);
  std::sort(merged.mappings.begin(), merged.mappings.end(),
            generate::MappingOrder());
  if (effective.top_n > 0 && merged.mappings.size() > effective.top_n) {
    merged.mappings.resize(effective.top_n);
  }
  std::sort(merged.partial_mappings.begin(), merged.partial_mappings.end(),
            generate::PartialMappingOrder());
  merged.stats.num_partial_mappings = merged.partial_mappings.size();
  merged.stats.time_generation_seconds = generation_timer.ElapsedSeconds();
  return merged;
}

// ---------------------------------------------------------------------------
// Deltas / rebalancing.
// ---------------------------------------------------------------------------

Result<live::ApplyReport> ShardedMatchService::ApplyDelta(
    const live::RepositoryDelta& delta, obs::TraceContext* trace) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  std::shared_ptr<const ShardedPin> pin;
  {
    std::lock_guard<std::mutex> pin_lock(pin_mu_);
    pin = pin_;
  }
  const ShardPlan& plan = pin->plan();
  const size_t k = managers_.size();
  const auto num_global = static_cast<schema::TreeId>(plan.num_trees());

  // Route every op to its owning shard (adds go to the last shard; the
  // rebalance pass below restores balance when they pile up), validating
  // all targets before anything is applied.
  std::vector<live::DeltaBuilder> builders(k);
  std::vector<bool> has_ops(k, false);
  for (const live::DeltaOp& op : delta.ops()) {
    switch (op.kind) {
      case live::DeltaOpKind::kAdd: {
        builders[k - 1].AddTree(op.tree, op.source);
        has_ops[k - 1] = true;
        break;
      }
      case live::DeltaOpKind::kReplace: {
        if (op.target < 0 || op.target >= num_global) {
          return Status::InvalidArgument("replace targets a nonexistent tree");
        }
        const size_t s = plan.shard_of(op.target);
        builders[s].ReplaceTree(plan.to_local(op.target), op.tree, op.source);
        has_ops[s] = true;
        break;
      }
      case live::DeltaOpKind::kRemove: {
        if (op.target < 0 || op.target >= num_global) {
          return Status::InvalidArgument("remove targets a nonexistent tree");
        }
        const size_t s = plan.shard_of(op.target);
        builders[s].RemoveTree(plan.to_local(op.target));
        has_ops[s] = true;
        break;
      }
    }
  }
  // Build (and thereby validate) every shard delta before applying any, so
  // a malformed delta leaves all shards untouched.
  std::vector<std::pair<size_t, live::RepositoryDelta>> shard_deltas;
  for (size_t s = 0; s < k; ++s) {
    if (!has_ops[s]) continue;
    XSM_ASSIGN_OR_RETURN(live::RepositoryDelta shard_delta,
                         builders[s].Build());
    shard_deltas.emplace_back(s, std::move(shard_delta));
  }

  // Apply shard by shard. Per-shard removals close gaps within the shard,
  // so the concatenated global ordering matches what the unsharded manager
  // would publish. A WAL failure mid-sequence leaves the same state a
  // crash between per-shard journal appends would — Recover heals it.
  live::ApplyReport merged;
  for (auto& [s, shard_delta] : shard_deltas) {
    XSM_ASSIGN_OR_RETURN(live::ApplyReport report,
                         managers_[s]->Apply(shard_delta, trace));
    merged.trees_reused += report.trees_reused;
    merged.trees_rebuilt += report.trees_rebuilt;
    merged.name_entries_copied += report.name_entries_copied;
    merged.name_entries_computed += report.name_entries_computed;
    merged.build_seconds += report.build_seconds;
  }
  ++generation_;
  CountDelta();

  std::vector<std::shared_ptr<const service::RepositorySnapshot>> shards;
  shards.reserve(k);
  for (auto& manager : managers_) {
    shards.push_back(manager->Current());
  }
  XSM_RETURN_NOT_OK(MaybeRebalance(&shards, trace));

  auto new_pin = ShardedPin::Build(std::move(shards), generation_);
  {
    std::lock_guard<std::mutex> pin_lock(pin_mu_);
    pin_ = new_pin;
  }
  PublishCaches(*new_pin);
  merged.generation = generation_;
  merged.fingerprint = new_pin->fingerprint();
  merged.trees_total = new_pin->forest().num_trees();
  // merged.snapshot stays null: there is no single snapshot object for the
  // federated view; callers read the scalar fields.
  return merged;
}

Status ShardedMatchService::MaybeRebalance(
    std::vector<std::shared_ptr<const service::RepositorySnapshot>>* shards,
    obs::TraceContext* trace) {
  if (shard_options_.rebalance_threshold <= 0) return Status::OK();
  const size_t k = shards->size();
  std::vector<size_t> counts;
  std::vector<size_t> nodes;
  std::vector<std::shared_ptr<const schema::SchemaTree>> payloads;
  std::vector<std::string> sources;
  counts.reserve(k);
  for (const auto& shard : *shards) {
    const schema::SchemaForest& forest = shard->forest();
    counts.push_back(forest.num_trees());
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
      nodes.push_back(forest.tree(t).size());
      payloads.push_back(forest.tree_ptr(t));
      sources.push_back(forest.source(t));
    }
  }
  ShardPlan current = ShardPlan::FromShardTreeCounts(counts);
  if (current.Imbalance(nodes) <= shard_options_.rebalance_threshold) {
    return Status::OK();
  }
  ShardPlan target = ShardPlan::Balanced(nodes, k);
  if (target == current) return Status::OK();

  obs::ScopedSpan rebalance_span(trace, "shard_rebalance");
  for (size_t s = 0; s < k; ++s) {
    if (target.first_tree(s) == current.first_tree(s) &&
        target.shard_trees(s) == current.shard_trees(s)) {
      continue;  // range unchanged: keep the manager (and its WAL) as is
    }
    // Copy-on-write successor for the shard's new range: trees that stay
    // in the shard reuse its index/dictionary state (payload pointer
    // equality is the certificate); trees migrating in are rebuilt.
    const std::shared_ptr<const service::RepositorySnapshot>& previous =
        (*shards)[s];
    std::unordered_map<const schema::SchemaTree*, schema::TreeId> prev_ids;
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(previous->num_trees()); ++t) {
      prev_ids[previous->forest().tree_ptr(t).get()] = t;
    }
    schema::SchemaForest sub;
    std::vector<schema::TreeId> reuse;
    reuse.reserve(target.shard_trees(s));
    for (size_t g = static_cast<size_t>(target.first_tree(s));
         g < static_cast<size_t>(target.first_tree(s)) + target.shard_trees(s);
         ++g) {
      sub.AddTree(payloads[g], sources[g]);
      auto it = prev_ids.find(payloads[g].get());
      reuse.push_back(it == prev_ids.end() ? -1 : it->second);
    }
    XSM_ASSIGN_OR_RETURN(
        std::shared_ptr<const service::RepositorySnapshot> successor,
        service::RepositorySnapshot::CreateSuccessor(previous, std::move(sub),
                                                     reuse));
    auto manager = std::make_unique<live::RepositoryManager>(successor);
    manager->SetMetrics(manager_metrics());
    if (wal_env_ != nullptr) {
      // The shard's journal base moved with its chain; a fresh journal at
      // the successor generation replaces it (the re-checkpoint below
      // makes recovery consistent again).
      XSM_RETURN_NOT_OK(
          manager->AttachWal(wal_env_, ShardFilePath(wal_prefix_, s)));
    }
    managers_[s] = std::move(manager);
    (*shards)[s] = std::move(successor);
  }
  rebalances_->Increment();
  // Re-checkpoint so on-disk shard snapshots describe the new plan (the
  // rebalanced shards' journals restarted above).
  if (!snap_prefix_.empty()) {
    XSM_ASSIGN_OR_RETURN(store::SnapshotFileInfo info,
                         SaveLocked(snap_prefix_, trace));
    (void)info;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Persistence.
// ---------------------------------------------------------------------------

Result<store::SnapshotFileInfo> ShardedMatchService::SaveLocked(
    const std::string& path, obs::TraceContext* trace) const {
  store::SnapshotFileInfo aggregate;
  std::vector<uint64_t> tree_fps;
  size_t num_trees = 0;
  size_t total_nodes = 0;
  for (size_t s = 0; s < managers_.size(); ++s) {
    XSM_ASSIGN_OR_RETURN(
        store::SnapshotFileInfo info,
        managers_[s]->SaveSnapshot(ShardFilePath(path, s), trace));
    aggregate.format_version = info.format_version;
    aggregate.trees += info.trees;
    aggregate.total_nodes += info.total_nodes;
    aggregate.total_bytes += info.total_bytes;
    std::shared_ptr<const service::RepositorySnapshot> snap =
        managers_[s]->Current();
    num_trees += snap->num_trees();
    total_nodes += snap->total_nodes();
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(snap->num_trees()); ++t) {
      tree_fps.push_back(snap->tree_fingerprint(t));
    }
  }
  Manifest manifest;
  manifest.shards = managers_.size();
  manifest.generation = generation_;
  manifest.fingerprint =
      service::CombineForestFingerprint(num_trees, total_nodes, tree_fps);
  // Shard files first, manifest last: the manifest is the commit point of
  // the whole multi-file save.
  XSM_RETURN_NOT_OK(util::io::AtomicFileWriter::WriteFileAtomic(
      util::io::Env::Default(), path, EncodeManifest(manifest)));
  aggregate.generation = manifest.generation;
  aggregate.fingerprint = manifest.fingerprint;
  return aggregate;
}

Result<store::SnapshotFileInfo> ShardedMatchService::SaveSnapshot(
    const std::string& path, obs::TraceContext* trace) const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  XSM_ASSIGN_OR_RETURN(store::SnapshotFileInfo info,
                       SaveLocked(path, trace));
  snap_prefix_ = path;
  return info;
}

Status ShardedMatchService::AttachWal(util::io::Env* env,
                                      const std::string& wal_path) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  for (size_t s = 0; s < managers_.size(); ++s) {
    XSM_RETURN_NOT_OK(
        managers_[s]->AttachWal(env, ShardFilePath(wal_path, s)));
  }
  wal_env_ = env;
  wal_prefix_ = wal_path;
  return Status::OK();
}

bool ShardedMatchService::wal_attached() const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  for (const auto& manager : managers_) {
    if (!manager->wal_attached()) return false;
  }
  return true;
}

}  // namespace xsm::shard
