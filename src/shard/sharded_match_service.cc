#include "shard/sharded_match_service.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <utility>

#include "generate/top_n_keeper.h"
#include "label/tree_index.h"
#include "match/element_matching.h"
#include "obs/trace.h"
#include "service/match_service.h"
#include "store/snapshot_store.h"
#include "util/io.h"
#include "util/timer.h"

namespace xsm::shard {

namespace {

using ShardSnapshots =
    std::vector<std::shared_ptr<const service::RepositorySnapshot>>;

constexpr const char* kManifestMagic = "xsm-shard-manifest";
constexpr int kManifestVersion = 1;

/// ApplyDelta rebalances when the node imbalance (max shard nodes over the
/// per-shard mean) exceeds this factor and a better balanced plan exists.
constexpr double kRebalanceThreshold = 1.5;

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
  const int fields = std::sscanf(text.c_str(),
                                 "%31s %d\nshards %zu\ngeneration %" SCNu64
                                 "\nfingerprint %" SCNx64,
                                 magic, &version, &m.shards, &m.generation,
                                 &m.fingerprint);
  if (fields < 2 || std::string(magic) != kManifestMagic) {
    return Status::Corruption("not a shard manifest");
  }
  if (version > kManifestVersion) {
    return Status::Unimplemented("newer shard manifest version " +
                                 std::to_string(version));
  }
  if (version != kManifestVersion || fields != 5 || m.shards == 0 ||
      m.shards > kMaxShards) {
    return Status::Corruption("malformed shard manifest (" +
                              std::to_string(m.shards) + " shards)");
  }
  return m;
}

/// Whether the checkpoint at `path` is a shard manifest. Only a file
/// small enough to be one (a store snapshot is megabytes) is read.
bool IsShardManifest(util::io::Env* env, const std::string& path) {
  auto size = env->FileSize(path);
  if (!size.ok() || *size > 4096) return false;
  auto text = env->ReadFileToString(path);
  return text.ok() && text->rfind(kManifestMagic, 0) == 0;
}

/// The plan a shard set implies: its shards' tree counts, in order.
ShardPlan PlanOf(const ShardSnapshots& shards) {
  std::vector<size_t> counts;
  for (const auto& shard : shards) counts.push_back(shard->num_trees());
  return ShardPlan::FromShardTreeCounts(counts);
}

/// The global fingerprint of a shard set: the unsharded snapshot's over
/// the same content. Needs no global view (replay checks one per record).
uint64_t ShardsFingerprint(const ShardSnapshots& shards) {
  size_t num_trees = 0;
  size_t total_nodes = 0;
  std::vector<uint64_t> tree_fps;
  for (const auto& shard : shards) {
    num_trees += shard->num_trees();
    total_nodes += shard->total_nodes();
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(shard->num_trees()); ++t) {
      tree_fps.push_back(shard->tree_fingerprint(t));
    }
  }
  return service::CombineForestFingerprint(num_trees, total_nodes, tree_fps);
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
  /// `rebalanced`: the delta that built this pin moved trees between
  /// shards (counted when the pin is published).
  static std::shared_ptr<const ShardedPin> Build(ShardSnapshots shards,
                                                 uint64_t generation,
                                                 bool rebalanced = false) {
    auto pin = std::shared_ptr<ShardedPin>(new ShardedPin());
    pin->shards_ = std::move(shards);
    pin->generation_ = generation;
    pin->rebalanced_ = rebalanced;
    pin->plan_ = PlanOf(pin->shards_);
    const size_t total_trees = pin->plan_.num_trees();
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
    pin->fingerprint_ = ShardsFingerprint(pin->shards_);
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
  const ShardSnapshots& shards() const { return shards_; }
  const std::shared_ptr<const service::RepositorySnapshot>& shard(
      size_t s) const {
    return shards_[s];
  }
  const core::Bellflower& matcher() const { return *matcher_; }
  bool rebalanced() const { return rebalanced_; }

 private:
  ShardedPin() = default;

  schema::SchemaForest forest_;
  std::unique_ptr<core::Bellflower> matcher_;
  ShardPlan plan_;
  ShardSnapshots shards_;
  std::vector<uint64_t> tree_fps_;
  uint64_t generation_ = 0;
  uint64_t fingerprint_ = 0;
  bool rebalanced_ = false;
};

// ---------------------------------------------------------------------------
// Shard sets: the building blocks of deltas, checkpoints and replay.
// ---------------------------------------------------------------------------

namespace {

/// Moves trees between shards when the node imbalance exceeds
/// kRebalanceThreshold and a better balanced plan exists: each shard whose
/// range changes gets a copy-on-write successor (trees that stay reuse
/// their index and dictionary state; trees migrating in are rebuilt).
/// Returns whether the plan changed.
Result<bool> Rebalance(ShardSnapshots* shards, obs::TraceContext* trace) {
  const size_t k = shards->size();
  std::vector<size_t> nodes;
  for (const auto& shard : *shards) {
    const schema::SchemaForest& forest = shard->forest();
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
      nodes.push_back(forest.tree(t).size());
    }
  }
  const ShardPlan current = PlanOf(*shards);
  if (current.Imbalance(nodes) <= kRebalanceThreshold) return false;
  const ShardPlan target = ShardPlan::Balanced(nodes, k);
  if (target == current) return false;

  obs::ScopedSpan rebalance_span(trace, "shard_rebalance");
  const ShardSnapshots before = *shards;
  for (size_t s = 0; s < k; ++s) {
    if (target.first_tree(s) == current.first_tree(s) &&
        target.shard_trees(s) == current.shard_trees(s)) {
      continue;  // range unchanged: keep the shard as is
    }
    schema::SchemaForest sub;
    std::vector<schema::TreeId> reuse;
    for (size_t i = 0; i < target.shard_trees(s); ++i) {
      const auto g = target.first_tree(s) + static_cast<schema::TreeId>(i);
      const size_t owner = current.shard_of(g);
      const schema::TreeId local = current.to_local(g);
      const schema::SchemaForest& from = before[owner]->forest();
      sub.AddTree(from.tree_ptr(local), from.source(local));
      reuse.push_back(owner == s ? local : -1);
    }
    XSM_ASSIGN_OR_RETURN(
        (*shards)[s], service::RepositorySnapshot::CreateSuccessor(
                          before[s], std::move(sub), reuse));
  }
  return true;
}

/// Applies `delta` to `*shards` (nothing is published or journaled):
/// routes every op to its owning shard (adds go to the last shard; the
/// rebalance restores balance when they pile up), builds each touched
/// shard's successor, then rebalances. Per-shard removals close gaps
/// within the shard, so the concatenated global ordering matches what the
/// unsharded chain publishes. Adds the build accounting to `*report` and
/// returns whether the plan was rebalanced.
Result<bool> ApplyToShards(ShardSnapshots* shards,
                           const live::RepositoryDelta& delta,
                           live::ApplyReport* report,
                           obs::TraceContext* trace) {
  const size_t k = shards->size();
  const ShardPlan plan = PlanOf(*shards);
  const auto num_global = static_cast<schema::TreeId>(plan.num_trees());

  std::vector<live::DeltaBuilder> builders(k);
  for (const live::DeltaOp& op : delta.ops()) {
    if (op.kind == live::DeltaOpKind::kAdd) {
      builders[k - 1].AddTree(op.tree, op.source);
    } else if (op.target < 0 || op.target >= num_global) {
      return Status::InvalidArgument("delta targets nonexistent tree " +
                                     std::to_string(op.target));
    } else if (op.kind == live::DeltaOpKind::kReplace) {
      builders[plan.shard_of(op.target)].ReplaceTree(
          plan.to_local(op.target), op.tree, op.source);
    } else {
      builders[plan.shard_of(op.target)].RemoveTree(plan.to_local(op.target));
    }
  }

  Timer timer;
  for (size_t s = 0; s < k; ++s) {
    if (builders[s].empty()) continue;
    std::shared_ptr<const service::RepositorySnapshot>& shard = (*shards)[s];
    live::AppliedDelta applied;
    {
      obs::ScopedSpan span(trace, "delta_validate");
      XSM_ASSIGN_OR_RETURN(live::RepositoryDelta shard_delta,
                           builders[s].Build());
      XSM_ASSIGN_OR_RETURN(
          applied, live::ApplyDeltaToForest(shard->forest(), shard_delta));
    }
    obs::ScopedSpan span(trace, "snapshot_build");
    XSM_ASSIGN_OR_RETURN(shard, service::RepositorySnapshot::CreateSuccessor(
                                    shard, std::move(applied.forest),
                                    applied.reuse_map));
    const service::RepositorySnapshot::BuildStats& stats = shard->build_stats();
    report->trees_reused += stats.trees_reused;
    report->trees_rebuilt += stats.trees_rebuilt;
    report->name_entries_copied += stats.name_entries_copied;
    report->name_entries_computed += stats.name_entries_computed;
  }
  XSM_ASSIGN_OR_RETURN(const bool rebalanced, Rebalance(shards, trace));
  report->build_seconds += timer.ElapsedSeconds();
  return rebalanced;
}

/// Where SaveSnapshot stages shard `s` until the manifest commits it.
std::string StagedShardPath(const std::string& prefix, size_t shard) {
  return ShardedMatchService::ShardFilePath(prefix, shard) + ".next";
}

/// Loads the K shard files of the checkpoint at `path`.
Result<ShardSnapshots> LoadShards(util::io::Env* env,
                                  const std::string& path, size_t k) {
  ShardSnapshots shards;
  shards.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    XSM_ASSIGN_OR_RETURN(
        std::shared_ptr<const service::RepositorySnapshot> shard,
        store::LoadSnapshotFromFile(
            ShardedMatchService::ShardFilePath(path, s), env));
    shards.push_back(std::move(shard));
  }
  return shards;
}

/// The checkpoint loader of Recover: the manifest at
/// `path` (into `*manifest`) plus the shard files it names.
Result<ShardSnapshots> LoadCheckpoint(util::io::Env* env,
                                      const std::string& path,
                                      Manifest* manifest) {
  XSM_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(path));
  XSM_ASSIGN_OR_RETURN(*manifest, ParseManifest(text));
  auto shards = LoadShards(env, path, manifest->shards);
  if (!shards.ok() || ShardsFingerprint(*shards) != manifest->fingerprint) {
    // SaveSnapshot stages the shard files, commits the manifest, then
    // moves the staged files into place: a crash mid-move leaves the
    // manifest ahead of the shard files. Finish the move and look again.
    bool moved = false;
    for (size_t s = 0; s < manifest->shards; ++s) {
      const std::string staged = StagedShardPath(path, s);
      if (!env->FileExists(staged)) continue;
      XSM_RETURN_NOT_OK(env->RenameFile(
          staged, ShardedMatchService::ShardFilePath(path, s)));
      moved = true;
    }
    if (moved) {
      (void)env->SyncDir(util::io::DirnameOf(path));
      shards = LoadShards(env, path, manifest->shards);
    }
  }
  XSM_RETURN_NOT_OK(shards.status());
  // Every shard file verified its own content; this check proves the set
  // of shard files is the set the manifest was written for.
  if (ShardsFingerprint(*shards) != manifest->fingerprint) {
    return Status::Corruption(
        "shard contents do not match the manifest fingerprint");
  }
  return shards;
}

}  // namespace

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
    const ShardedOptions& shard_options, util::io::Env* env) {
  if (shard_options.num_shards == 0 ||
      shard_options.num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
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
  ShardSnapshots shards;
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

  return std::unique_ptr<ShardedMatchService>(new ShardedMatchService(
      ShardedPin::Build(std::move(shards), /*generation=*/0), options, env));
}

Result<std::unique_ptr<ShardedMatchService>> ShardedMatchService::Recover(
    util::io::Env* env, const std::string& snapshot_path,
    const std::string& wal_path, const service::MatchServiceOptions& options,
    live::RecoveryReport* report) {
  if (env == nullptr) env = util::io::Env::Default();
  if (!wal_path.empty() && env->FileExists(ShardFilePath(wal_path, 0))) {
    return Status::FailedPrecondition(
        ShardFilePath(wal_path, 0) + " is a per-shard journal; this build "
        "keeps one journal per tenant. To migrate, recover and SaveSnapshot "
        "with the build that wrote it, then remove " + wal_path + ".shard*");
  }
  Manifest manifest;
  XSM_ASSIGN_OR_RETURN(ShardSnapshots shards,
                       LoadCheckpoint(env, snapshot_path, &manifest));
  // Replay on bare shard sets: the global view is built once, at the end.
  live::RecoveryReport local;
  XSM_ASSIGN_OR_RETURN(
      std::unique_ptr<wal::WalWriter> writer,
      live::ReplayJournal(
          env, wal_path, manifest.generation, manifest.fingerprint,
          [&shards](const live::RepositoryDelta& delta) -> Result<uint64_t> {
            live::ApplyReport unused;
            XSM_RETURN_NOT_OK(
                ApplyToShards(&shards, delta, &unused, nullptr).status());
            return ShardsFingerprint(shards);
          },
          &local));
  auto service = std::unique_ptr<ShardedMatchService>(new ShardedMatchService(
      ShardedPin::Build(std::move(shards), local.recovered_generation),
      options, env));
  service->AdoptJournal(wal_path, std::move(writer));
  if (report != nullptr) *report = local;
  return service;
}

// ---------------------------------------------------------------------------
// Construction / metrics.
// ---------------------------------------------------------------------------

ShardedMatchService::ShardedMatchService(
    std::shared_ptr<const ShardedPin> pin,
    const service::MatchServiceOptions& options, util::io::Env* env)
    : Matcher(options, /*num_cache_sets=*/1 + pin->num_shards(), env),
      pin_(std::move(pin)) {
  const size_t k = pin_->num_shards();
  fanout_pool_ = std::make_unique<ThreadPool>(
      std::min(k, ThreadPool::DefaultThreadCount()));

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
  Publish(pin_);
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
    const core::ClusterStateOptions& state_options, const std::string& key,
    obs::TraceContext* trace) {
  const auto& pin = static_cast<const ShardedPin&>(global);
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
    std::optional<generate::TopNKeeper> floor;
    if (share_floor) floor.emplace(effective.top_n, /*track_ranks=*/false);
    auto read_floor = [&]() {
      if (!floor) return effective.delta;
      std::lock_guard<std::mutex> lock(floor_mu);
      return floor->Floor(effective.delta);
    };
    auto publish_mappings =
        [&](const std::vector<generate::SchemaMapping>& ms) {
          if (!floor) return;
          std::lock_guard<std::mutex> lock(floor_mu);
          for (const generate::SchemaMapping& m : ms) floor->Offer(m);
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
            if (run.ok()) publish_mappings(run->mappings);
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
// Deltas.
// ---------------------------------------------------------------------------

Result<service::Matcher::Successor> ShardedMatchService::BuildSuccessor(
    const live::RepositoryDelta& delta, obs::TraceContext* trace) {
  std::shared_ptr<const ShardedPin> pin = CurrentPin();
  ShardSnapshots shards = pin->shards();
  Successor next;
  XSM_ASSIGN_OR_RETURN(const bool rebalanced,
                       ApplyToShards(&shards, delta, &next.report, trace));
  // report.snapshot stays null: there is no single snapshot object for the
  // federated view; callers read the scalar fields.
  next.pin = ShardedPin::Build(std::move(shards), pin->generation() + 1,
                               rebalanced);
  return next;
}

void ShardedMatchService::Publish(service::RepositoryPinPtr pin) {
  auto sharded = std::static_pointer_cast<const ShardedPin>(std::move(pin));
  {
    std::lock_guard<std::mutex> pin_lock(pin_mu_);
    pin_ = sharded;
  }
  cache_set(0).Publish(sharded->fingerprint());
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    cache_set(1 + s).Publish(sharded->shard(s)->fingerprint());
  }
  if (sharded->rebalanced()) rebalances_->Increment();
}

// ---------------------------------------------------------------------------
// Persistence.
// ---------------------------------------------------------------------------

Result<store::SnapshotFileInfo> ShardedMatchService::WriteCheckpoint(
    const service::RepositoryPin& global, const std::string& path,
    util::io::Env* env) const {
  const auto& pin = static_cast<const ShardedPin&>(global);
  const size_t k = pin.num_shards();
  // Stage every shard file, commit the manifest, then move the staged
  // files into place. The manifest is the commit point: a crash before it
  // leaves the previous checkpoint whole, and LoadCheckpoint finishes a
  // move that a crash interrupted after it.
  store::SnapshotFileInfo aggregate;
  for (size_t s = 0; s < k; ++s) {
    XSM_ASSIGN_OR_RETURN(
        store::SnapshotFileInfo info,
        store::SaveSnapshotToFile(*pin.shard(s), StagedShardPath(path, s),
                                  env));
    aggregate.format_version = info.format_version;
    aggregate.trees += info.trees;
    aggregate.total_nodes += info.total_nodes;
    aggregate.total_bytes += info.total_bytes;
  }
  Manifest manifest;
  manifest.shards = k;
  manifest.generation = pin.generation();
  manifest.fingerprint = pin.fingerprint();
  XSM_RETURN_NOT_OK(util::io::AtomicFileWriter::WriteFileAtomic(
      env, path, EncodeManifest(manifest)));
  for (size_t s = 0; s < k; ++s) {
    XSM_RETURN_NOT_OK(
        env->RenameFile(StagedShardPath(path, s), ShardFilePath(path, s)));
  }
  (void)env->SyncDir(util::io::DirnameOf(path));
  aggregate.generation = pin.generation();
  aggregate.fingerprint = pin.fingerprint();
  return aggregate;
}

Result<std::unique_ptr<service::Matcher>> CreateMatcher(
    schema::SchemaForest repository,
    const service::MatchServiceOptions& options, size_t num_shards,
    util::io::Env* env) {
  std::unique_ptr<service::Matcher> matcher;
  if (num_shards > 1) {
    XSM_ASSIGN_OR_RETURN(
        matcher, ShardedMatchService::Create(std::move(repository), options,
                                             ShardedOptions{num_shards}, env));
  } else {
    XSM_ASSIGN_OR_RETURN(matcher, service::MatchService::Create(
                                      std::move(repository), options, env));
  }
  return matcher;
}

Result<std::unique_ptr<service::Matcher>> OpenMatcher(
    util::io::Env* env, const std::string& snapshot_path,
    const std::string& wal_path, const service::MatchServiceOptions& options,
    live::RecoveryReport* report) {
  if (env == nullptr) env = util::io::Env::Default();
  std::unique_ptr<service::Matcher> matcher;
  if (IsShardManifest(env, snapshot_path)) {
    XSM_ASSIGN_OR_RETURN(
        matcher, ShardedMatchService::Recover(env, snapshot_path, wal_path,
                                              options, report));
  } else {
    XSM_ASSIGN_OR_RETURN(
        matcher, service::MatchService::Recover(env, snapshot_path, wal_path,
                                                options, report));
  }
  return matcher;
}

}  // namespace xsm::shard
