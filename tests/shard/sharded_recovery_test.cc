// Durability of the sharded backend: one journal per tenant. A delta that
// touches several shards is journaled once and published whole or not at
// all; a crash at any write boundary of a script with multi-shard deltas,
// a mid-script checkpoint and a rebalance recovers to the exact generation
// and fingerprint of an unsharded chain; damaged manifests and the earlier
// per-shard journal layout are refused typed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "net/tenant_registry.h"
#include "obs/metrics.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "shard/sharded_match_service.h"
#include "util/io.h"
#include "wal/wal.h"

namespace xsm::shard {
namespace {

namespace fs = std::filesystem;
using live::DeltaBuilder;
using live::RepositoryDelta;
using service::MatchServiceOptions;
using util::io::Env;
using util::io::FaultInjectionEnv;
using util::io::FaultPlan;

constexpr size_t kShards = 3;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_shard_recovery_" + tag + "_" +
              std::to_string(static_cast<unsigned>(getpid()))))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

schema::SchemaForest MakeCorpus(size_t elements, uint64_t seed) {
  repo::SyntheticRepoOptions options;
  options.target_elements = elements;
  options.seed = seed;
  auto forest = repo::GenerateSyntheticRepository(options);
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

schema::SchemaTree Spec(const std::string& spec) {
  auto tree = schema::ParseTreeSpec(spec);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

RepositoryDelta Build(DeltaBuilder&& builder) {
  auto delta = builder.Build();
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  return std::move(*delta);
}

MatchServiceOptions LightOptions() {
  MatchServiceOptions options;
  options.num_threads = 1;
  return options;
}

std::unique_ptr<ShardedMatchService> MakeSharded(
    const schema::SchemaForest& forest,
    MatchServiceOptions options = LightOptions(), Env* env = nullptr) {
  ShardedOptions shard_options;
  shard_options.num_shards = kShards;
  auto sharded =
      ShardedMatchService::Create(forest, options, shard_options, env);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::move(*sharded);
}

/// Fingerprint per generation of the unsharded chain fed `deltas`.
std::vector<uint64_t> ReferenceFingerprints(
    const schema::SchemaForest& base,
    const std::vector<RepositoryDelta>& deltas) {
  auto manager = live::RepositoryManager::Create(base);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  std::vector<uint64_t> fingerprints = {(*manager)->Current()->fingerprint()};
  for (const RepositoryDelta& delta : deltas) {
    auto report = (*manager)->Apply(delta);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    fingerprints.push_back(report->fingerprint);
  }
  return fingerprints;
}

// --- atomicity -------------------------------------------------------------

TEST(ShardedRecoveryTest, FailedJournalAppendPublishesNothing) {
  const schema::SchemaForest forest = MakeCorpus(500, 13);
  const auto last = static_cast<schema::TreeId>(forest.num_trees() - 1);
  ASSERT_GE(last, 2);
  DeltaBuilder b1;
  b1.ReplaceTree(0, Spec("vendor(id,name)"), "d1");
  DeltaBuilder b2;  // first and last tree: two shards
  b2.ReplaceTree(0, Spec("ledger(entry,amount)"), "d2");
  b2.ReplaceTree(last, Spec("receipt(total,date)"), "d2");
  DeltaBuilder b3;
  b3.AddTree(Spec("invoice(number,total)"), "d3");
  const RepositoryDelta d1 = Build(std::move(b1));
  const RepositoryDelta d2 = Build(std::move(b2));
  const RepositoryDelta d3 = Build(std::move(b3));

  // Probe: the journal appends made before d2, and by d2 itself.
  int64_t before_d2 = 0;
  int64_t d2_appends = 0;
  {
    TempDir dir("atomic_probe");
    FaultInjectionEnv probe{FaultPlan{}};
    auto sharded = MakeSharded(forest, LightOptions(), &probe);
    ASSERT_TRUE(sharded->SaveSnapshot(dir.File("r.snap")).ok());
    ASSERT_TRUE(sharded->AttachWal(dir.File("r.wal")).ok());
    ASSERT_TRUE(sharded->ApplyDelta(d1).ok());
    before_d2 = probe.stats().appends;
    ASSERT_TRUE(sharded->ApplyDelta(d2).ok());
    d2_appends = probe.stats().appends - before_d2;
  }
  ASSERT_GE(d2_appends, 2);

  TempDir dir("atomic");
  const std::string snap = dir.File("r.snap");
  const std::string wal = dir.File("r.wal");
  // Fail the frame of d2's last journal record: nothing of it persists.
  FaultPlan plan;
  plan.fail_append_at = before_d2 + d2_appends - 2;
  FaultInjectionEnv env(plan);
  auto sharded = MakeSharded(forest, LightOptions(), &env);
  ASSERT_TRUE(sharded->SaveSnapshot(snap).ok());
  ASSERT_TRUE(sharded->AttachWal(wal).ok());
  ASSERT_TRUE(sharded->ApplyDelta(d1).ok());

  const uint64_t generation = sharded->CurrentGeneration();
  const uint64_t fingerprint = sharded->Pin()->fingerprint();
  const std::vector<service::ShardDescriptor> shards = sharded->Shards();
  auto failed = sharded->ApplyDelta(d2);
  ASSERT_FALSE(failed.ok()) << "the injected append failure must surface";
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_EQ(sharded->CurrentGeneration(), generation);
  EXPECT_EQ(sharded->Pin()->fingerprint(), fingerprint);
  const std::vector<service::ShardDescriptor> after = sharded->Shards();
  ASSERT_EQ(after.size(), shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(after[s].generation, shards[s].generation) << "shard " << s;
    EXPECT_EQ(after[s].fingerprint, shards[s].fingerprint) << "shard " << s;
    EXPECT_EQ(after[s].trees, shards[s].trees) << "shard " << s;
  }

  // The failed append closed the journal until a checkpoint re-bases it.
  auto refused = sharded->ApplyDelta(d3);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sharded->SaveSnapshot(snap).ok());

  // The unsharded chain never saw d2.
  std::vector<RepositoryDelta> acked;
  acked.push_back(d1);
  acked.push_back(d3);
  const std::vector<uint64_t> reference = ReferenceFingerprints(forest, acked);
  auto next = sharded->ApplyDelta(d3);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->generation, 2u);
  EXPECT_EQ(next->fingerprint, reference[2])
      << "half of the failed delta was published with the next one";
  sharded.reset();

  live::RecoveryReport report;
  auto recovered =
      ShardedMatchService::Recover(Env::Default(), snap, wal, LightOptions(),
                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->CurrentGeneration(), 2u);
  EXPECT_EQ((*recovered)->Pin()->fingerprint(), reference[2]);
  EXPECT_EQ(report.records_replayed, 1u) << "d3, after the checkpoint";
}

// A journal append that fails after its frame reached the file closes the
// journal: the next delta is refused typed and publishes nothing (behind
// the torn frame, recovery would read it as corruption). A checkpoint
// re-bases the journal, and recovery lands on the delta acknowledged after
// it, at its exact generation and fingerprint.
TEST(ShardedRecoveryTest, FailedPayloadAppendFailsClosedUntilCheckpoint) {
  const schema::SchemaForest forest = MakeCorpus(500, 13);
  const auto last = static_cast<schema::TreeId>(forest.num_trees() - 1);
  DeltaBuilder b1;
  b1.ReplaceTree(0, Spec("vendor(id,name)"), "d1");
  DeltaBuilder b2;  // first and last tree: two shards
  b2.ReplaceTree(0, Spec("ledger(entry,amount)"), "d2");
  b2.ReplaceTree(last, Spec("receipt(total,date)"), "d2");
  const std::vector<RepositoryDelta> deltas = {Build(std::move(b1)),
                                               Build(std::move(b2))};
  const std::vector<uint64_t> reference = ReferenceFingerprints(forest, deltas);

  // Probe: the appends made before d2 is journaled.
  int64_t before_d2 = 0;
  {
    TempDir dir("fail_closed_probe");
    FaultInjectionEnv probe{FaultPlan{}};
    auto sharded = MakeSharded(forest, LightOptions(), &probe);
    ASSERT_TRUE(sharded->SaveSnapshot(dir.File("r.snap")).ok());
    ASSERT_TRUE(sharded->AttachWal(dir.File("r.wal")).ok());
    ASSERT_TRUE(sharded->ApplyDelta(deltas[0]).ok());
    before_d2 = probe.stats().appends;
    ASSERT_TRUE(sharded->ApplyDelta(deltas[1]).ok());
    ASSERT_EQ(probe.stats().appends - before_d2, 2) << "frame + payload";
  }

  TempDir dir("fail_closed");
  const std::string snap = dir.File("r.snap");
  const std::string wal = dir.File("r.wal");
  // d2's frame lands whole; its payload tears after 4 bytes.
  FaultPlan plan;
  plan.fail_append_at = before_d2 + 1;
  plan.append_persist_bytes = 4;
  FaultInjectionEnv env(plan);
  auto sharded = MakeSharded(forest, LightOptions(), &env);
  ASSERT_TRUE(sharded->SaveSnapshot(snap).ok());
  ASSERT_TRUE(sharded->AttachWal(wal).ok());
  ASSERT_TRUE(sharded->ApplyDelta(deltas[0]).ok());

  auto failed = sharded->ApplyDelta(deltas[1]);
  ASSERT_FALSE(failed.ok()) << "the injected payload failure must surface";
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  auto refused = sharded->ApplyDelta(deltas[1]);
  ASSERT_FALSE(refused.ok()) << "a poisoned journal must refuse appends";
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded->CurrentGeneration(), 1u);
  EXPECT_EQ(sharded->Pin()->fingerprint(), reference[1]);

  ASSERT_TRUE(sharded->SaveSnapshot(snap).ok());
  auto acked = sharded->ApplyDelta(deltas[1]);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_EQ(acked->generation, 2u);
  EXPECT_EQ(acked->fingerprint, reference[2]);
  sharded.reset();  // SIGKILL: no final save

  live::RecoveryReport report;
  auto recovered =
      ShardedMatchService::Recover(Env::Default(), snap, wal, LightOptions(),
                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->CurrentGeneration(), 2u);
  EXPECT_EQ((*recovered)->Pin()->fingerprint(), reference[2]);
  EXPECT_EQ(report.snapshot_generation, 1u);
  EXPECT_EQ(report.records_replayed, 1u);
}

// --- one journal, counters once per tenant event ---------------------------

TEST(ShardedRecoveryTest, OneJournalAndDurabilityCountersOncePerEvent) {
  TempDir dir("counters");
  const std::string snap = dir.File("r.snap");
  const std::string wal = dir.File("r.wal");
  obs::MetricsRegistry registry;
  MatchServiceOptions options = LightOptions();
  options.metrics = &registry;
  options.metrics_tenant = "t";
  const obs::LabelSet labels = {{"tenant", "t"}};

  const schema::SchemaForest forest = MakeCorpus(400, 3);
  const auto last = static_cast<schema::TreeId>(forest.num_trees() - 1);
  auto sharded = MakeSharded(forest, options);
  ASSERT_TRUE(sharded->AttachWal(wal).ok());
  ASSERT_TRUE(sharded->SaveSnapshot(snap).ok());
  DeltaBuilder builder;  // touches every shard
  builder.ReplaceTree(0, Spec("alpha(a,b)"), "x");
  builder.ReplaceTree(last / 2, Spec("beta(c,d)"), "x");
  builder.ReplaceTree(last, Spec("gamma(e,f)"), "x");
  ASSERT_TRUE(sharded->ApplyDelta(Build(std::move(builder))).ok());

  EXPECT_EQ(registry.CounterValue("xsm_wal_appends_total", labels), 1u);
  EXPECT_EQ(registry.CounterValue("xsm_snapshot_saves_total", labels), 1u);
  EXPECT_EQ(registry.CounterValue("xsm_wal_compactions_total", labels), 1u);
  auto read = wal::ReadWal(Env::Default(), wal);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->records.size(), 1u);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_FALSE(fs::exists(ShardedMatchService::ShardFilePath(wal, s)));
    EXPECT_TRUE(fs::exists(ShardedMatchService::ShardFilePath(snap, s)));
  }
}

// --- crash sweep -----------------------------------------------------------

/// Deltas on different shards (one touching two), and a bulk add that
/// skews the node balance past the rebalance threshold.
std::vector<RepositoryDelta> MakeShardedDeltas(
    const schema::SchemaForest& base) {
  const auto n = static_cast<schema::TreeId>(base.num_trees());
  std::vector<RepositoryDelta> deltas;
  DeltaBuilder d0;
  d0.ReplaceTree(0, Spec("vendor(id,name,address(street,city))"), "d0");
  deltas.push_back(Build(std::move(d0)));
  DeltaBuilder d1;
  d1.ReplaceTree(n / 2, Spec("payment(amount,method,@currency)"), "d1");
  d1.ReplaceTree(n - 1, Spec("invoice(total,customer(name,address))"), "d1");
  deltas.push_back(Build(std::move(d1)));
  DeltaBuilder d2;
  d2.RemoveTree(1);
  deltas.push_back(Build(std::move(d2)));
  DeltaBuilder d3;
  for (int i = 0; i < 8; ++i) {
    d3.AddTree(Spec("bulk(a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p)"),
               "bulk" + std::to_string(i));
  }
  deltas.push_back(Build(std::move(d3)));
  DeltaBuilder d4;
  d4.ReplaceTree(2, Spec("order(id,lines(line(sku,qty)))"), "d4");
  deltas.push_back(Build(std::move(d4)));
  DeltaBuilder d5;
  d5.RemoveTree(0);
  d5.AddTree(Spec("shipment(id,carrier,@tracking)"), "d5");
  deltas.push_back(Build(std::move(d5)));
  return deltas;
}

struct ScriptOutcome {
  uint64_t acked_generation = 0;
  uint64_t rebalances = 0;
};

/// Attach the journal, checkpoint, deltas 0-2, checkpoint + compaction,
/// deltas 3-5 — every write through `env`, stopping at the first failure
/// (the simulated kill).
ScriptOutcome RunScript(Env* env, const schema::SchemaForest& base,
                        const std::vector<RepositoryDelta>& deltas,
                        const std::string& snap, const std::string& wal) {
  ScriptOutcome outcome;
  obs::MetricsRegistry registry;
  MatchServiceOptions options = LightOptions();
  options.metrics = &registry;
  options.metrics_tenant = "t";
  auto sharded = MakeSharded(base, options, env);
  auto count_rebalances = [&] {
    outcome.rebalances = registry.CounterValue("xsm_shard_rebalances_total",
                                               {{"tenant", "t"}});
  };
  if (!sharded->AttachWal(wal).ok()) return outcome;
  if (!sharded->SaveSnapshot(snap).ok()) return outcome;
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (i == 3 && !sharded->SaveSnapshot(snap).ok()) break;
    auto report = sharded->ApplyDelta(deltas[i]);
    if (!report.ok()) break;
    outcome.acked_generation = report->generation;
  }
  count_rebalances();
  return outcome;
}

TEST(ShardedRecoveryTest, CrashSweepEveryOperationBoundary) {
  // Nine small trees, three per shard: the bulk add in d3 piles enough
  // nodes onto the last shard to trip the rebalance.
  schema::SchemaForest base;
  for (const char* spec :
       {"person(name,email,phone)", "book(title,author,isbn)",
        "order(item,qty,price)", "customer(id,name,address)",
        "invoice(number,total,date)", "product(sku,name,price)",
        "employee(id,name,dept)", "account(id,owner,balance)",
        "ticket(id,title,status)"}) {
    base.AddTree(Spec(spec), spec);
  }
  const std::vector<RepositoryDelta> deltas = MakeShardedDeltas(base);
  const std::vector<uint64_t> reference = ReferenceFingerprints(base, deltas);

  // Probe run: the op universe, and proof the script rebalances.
  TempDir probe_dir("probe");
  FaultInjectionEnv probe{FaultPlan{}};
  ScriptOutcome full = RunScript(&probe, base, deltas,
                                 probe_dir.File("r.snap"),
                                 probe_dir.File("r.wal"));
  ASSERT_EQ(full.acked_generation, deltas.size());
  ASSERT_GT(full.rebalances, 0u) << "the script must exercise a rebalance";
  const int64_t total_ops = probe.stats().ops;
  ASSERT_GT(total_ops, 20);

  for (int64_t k = 0; k < total_ops; ++k) {
    const std::string label = "crash_after_ops=" + std::to_string(k);
    TempDir dir("ops_" + std::to_string(k));
    const std::string snap = dir.File("r.snap");
    const std::string wal = dir.File("r.wal");
    FaultPlan plan;
    plan.crash_after_ops = k;
    FaultInjectionEnv env(plan);
    ScriptOutcome outcome = RunScript(&env, base, deltas, snap, wal);
    ASSERT_TRUE(env.crashed()) << label << " never exhausted";

    live::RecoveryReport report;
    auto recovered = ShardedMatchService::Recover(Env::Default(), snap, wal,
                                                  LightOptions(), &report);
    if (!recovered.ok() && outcome.acked_generation == 0 &&
        !fs::exists(snap)) {
      continue;  // died before the first checkpoint: nothing was acked
    }
    ASSERT_TRUE(recovered.ok())
        << label << ": " << recovered.status().ToString();
    const uint64_t gen = (*recovered)->CurrentGeneration();
    EXPECT_GE(gen, outcome.acked_generation) << label;
    ASSERT_LT(gen, reference.size()) << label;
    EXPECT_EQ(report.recovered_generation, gen) << label;
    EXPECT_EQ((*recovered)->Pin()->fingerprint(), reference[gen])
        << label << ": recovered generation " << gen
        << " diverges from the unsharded chain";

    // Finishing the script converges on the reference, delta for delta.
    for (size_t i = gen; i < deltas.size(); ++i) {
      auto applied = (*recovered)->ApplyDelta(deltas[i]);
      ASSERT_TRUE(applied.ok()) << label << ": resuming delta " << i;
      EXPECT_EQ(applied->fingerprint, reference[i + 1]) << label;
    }
  }
}

// A save that fails after its manifest commit leaves shard files staged;
// the next load moves them into place and lands on the saved generation.
TEST(ShardedRecoveryTest, LoadFinishesASaveInterruptedAfterItsManifest) {
  TempDir dir("rollforward");
  const std::string snap = dir.File("r.snap");
  const std::string wal = dir.File("r.wal");
  const schema::SchemaForest forest = MakeCorpus(400, 3);
  const auto last = static_cast<schema::TreeId>(forest.num_trees() - 1);
  ASSERT_TRUE(MakeSharded(forest)->SaveSnapshot(snap).ok());
  // Renames through the injected env: #0 the journal's Create (the boot
  // finds none to replay), #1-#3 the staged shard files, #4 the manifest,
  // #5-#7 the moves into place.
  FaultPlan plan;
  plan.fail_rename_at = 6;
  FaultInjectionEnv env(plan);
  auto booted = ShardedMatchService::Recover(&env, snap, wal, LightOptions());
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  std::unique_ptr<ShardedMatchService> sharded = std::move(*booted);
  DeltaBuilder builder;  // touches every shard
  builder.ReplaceTree(0, Spec("alpha(a,b)"), "x");
  builder.ReplaceTree(last / 2, Spec("beta(c,d)"), "x");
  builder.ReplaceTree(last, Spec("gamma(e,f)"), "x");
  ASSERT_TRUE(sharded->ApplyDelta(Build(std::move(builder))).ok());
  auto saved = sharded->SaveSnapshot(snap);
  ASSERT_FALSE(saved.ok());
  EXPECT_NE(saved.status().message().find("injected rename failure"),
            std::string::npos)
      << saved.status().ToString();
  ASSERT_TRUE(
      fs::exists(ShardedMatchService::ShardFilePath(snap, 1) + ".next"));

  live::RecoveryReport report;
  auto recovered = ShardedMatchService::Recover(Env::Default(), snap, wal,
                                                LightOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->CurrentGeneration(), 1u);
  EXPECT_EQ((*recovered)->Pin()->fingerprint(), sharded->Pin()->fingerprint());
  EXPECT_EQ(report.snapshot_generation, 1u) << "the manifest had committed";
  EXPECT_EQ(report.records_skipped, 1u);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_FALSE(
        fs::exists(ShardedMatchService::ShardFilePath(snap, s) + ".next"));
  }
}

// --- typed refusals --------------------------------------------------------

TEST(ShardedRecoveryTest, DamagedManifestsAreRefusedTyped) {
  TempDir dir("manifest");
  const std::string snap = dir.File("t.snap");
  auto sharded = MakeSharded(MakeCorpus(200, 5));
  ASSERT_TRUE(sharded->SaveSnapshot(snap).ok());
  auto manifest = Env::Default()->ReadFileToString(snap);
  ASSERT_TRUE(manifest.ok());
  auto rewrite = [&](const std::string& from, const std::string& to) {
    std::string text = *manifest;
    const size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    ASSERT_TRUE(util::io::AtomicFileWriter::WriteFileAtomic(Env::Default(),
                                                            snap, text)
                    .ok());
  };

  // A shard count no allocation should trust: Corruption, not an abort.
  rewrite("shards 3", "shards 1000000000000000");
  auto huge = ShardedMatchService::Recover(Env::Default(), snap,
                                          /*wal_path=*/"", LightOptions());
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kCorruption)
      << huge.status().ToString();
  // ... and a registry boot skips that tenant instead of crashing.
  net::TenantRegistryOptions registry_options;
  registry_options.service.num_threads = 1;
  registry_options.state_dir = dir.path();
  registry_options.enable_wal = false;
  net::TenantRegistry registry(registry_options);
  EXPECT_EQ(registry.WarmStartAll(), 0u);

  // A newer manifest version is Unimplemented, like the store and WAL.
  rewrite("xsm-shard-manifest 1", "xsm-shard-manifest 2");
  auto newer = ShardedMatchService::Recover(Env::Default(), snap,
                                           /*wal_path=*/"", LightOptions());
  ASSERT_FALSE(newer.ok());
  EXPECT_EQ(newer.status().code(), StatusCode::kUnimplemented)
      << newer.status().ToString();
}

TEST(ShardedRecoveryTest, PerShardJournalLayoutIsRefusedWithHint) {
  TempDir dir("layout");
  const std::string snap = dir.File("t.snap");
  const std::string wal = dir.File("t.wal");
  auto sharded = MakeSharded(MakeCorpus(200, 5));
  ASSERT_TRUE(sharded->SaveSnapshot(snap).ok());
  // The earlier layout: one journal per shard beside the manifest.
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(util::io::AtomicFileWriter::WriteFileAtomic(
                    Env::Default(), ShardedMatchService::ShardFilePath(wal, s),
                    wal::SerializeWalHeader(0, 0))
                    .ok());
  }
  auto refused = ShardedMatchService::Recover(Env::Default(), snap, wal,
                                              LightOptions());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("To migrate"), std::string::npos)
      << refused.status().ToString();
  EXPECT_FALSE(fs::exists(wal)) << "a refused boot must not start a journal";
}

}  // namespace
}  // namespace xsm::shard
