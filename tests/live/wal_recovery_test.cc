// The crash-point sweep — the acceptance test of the WAL subsystem. A
// scripted workload (boot → checkpoint → journal deltas → mid-script
// checkpoint+compaction → more deltas) runs under a FaultInjectionEnv
// killed at EVERY operation boundary and at sampled byte offsets; after
// each simulated kill, recovery from whatever the "disk" holds must yield
// a repository fingerprint-identical to the uninterrupted chain at some
// generation >= the last acknowledged one (no acknowledged delta lost),
// and finishing the remaining deltas must converge to the exact reference
// end state. Damaged artifacts (as opposed to crash-torn ones) are
// refused typed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "live/delta_codec.h"
#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "store/snapshot_store.h"
#include "util/io.h"
#include "wal/wal.h"

namespace xsm::live {
namespace {

namespace fs = std::filesystem;
using util::io::Env;
using util::io::FaultInjectionEnv;
using util::io::FaultPlan;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_wal_recovery_" + tag + "_" +
              std::to_string(static_cast<unsigned>(getpid()))))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
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

schema::SchemaForest DeepCopy(const schema::SchemaForest& forest) {
  schema::SchemaForest copy;
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
    copy.AddTree(schema::SchemaTree(forest.tree(t)), forest.source(t));
  }
  return copy;
}

schema::SchemaTree Spec(const std::string& spec) {
  auto tree = schema::ParseTreeSpec(spec);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

/// The six-delta workload every test in this file replays. Targets are
/// chosen to stay in range along the whole chain.
std::vector<RepositoryDelta> MakeDeltas() {
  std::vector<RepositoryDelta> deltas;
  auto build = [&deltas](DeltaBuilder&& builder) {
    auto delta = builder.Build();
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    deltas.push_back(std::move(*delta));
  };
  DeltaBuilder d0;
  d0.AddTree(Spec("invoice(total,customer(name,address))"), "feed://d0");
  build(std::move(d0));
  DeltaBuilder d1;
  d1.ReplaceTree(0, Spec("vendor(id,name,address(street,city))"),
                 "feed://d1");
  build(std::move(d1));
  DeltaBuilder d2;
  d2.RemoveTree(1);
  build(std::move(d2));
  DeltaBuilder d3;
  d3.AddTree(Spec("order(id,lines(line(sku,qty)))"), "feed://d3a");
  d3.AddTree(Spec("shipment(id,carrier,@tracking)"), "feed://d3b");
  build(std::move(d3));
  DeltaBuilder d4;
  d4.ReplaceTree(2, Spec("payment(amount,method,@currency)"), "feed://d4");
  build(std::move(d4));
  DeltaBuilder d5;
  d5.RemoveTree(0);
  build(std::move(d5));
  return deltas;
}

std::string ForestSpec(const schema::SchemaForest& forest) {
  std::string out;
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
    out += schema::ToTreeSpec(forest.tree(t));
    out += " <- ";
    out += forest.source(t);
    out += "\n";
  }
  return out;
}

/// The uninterrupted chain: fingerprint per generation plus the final
/// forest, computed once per suite.
struct Reference {
  std::vector<uint64_t> fingerprint;  ///< indexed by generation, 0..N
  std::string final_spec;
};

Reference BuildReference(const schema::SchemaForest& base,
                         const std::vector<RepositoryDelta>& deltas) {
  Reference ref;
  auto manager = RepositoryManager::Create(DeepCopy(base));
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  ref.fingerprint.push_back((*manager)->Current()->fingerprint());
  for (const auto& delta : deltas) {
    auto report = (*manager)->Apply(delta);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    ref.fingerprint.push_back(report->fingerprint);
  }
  ref.final_spec = ForestSpec((*manager)->Current()->forest());
  return ref;
}

/// A single-threaded service over a copy of `base`: the journaled chain
/// every script drives.
std::unique_ptr<service::MatchService> MakeService(
    const schema::SchemaForest& base, Env* env) {
  service::MatchServiceOptions options;
  options.num_threads = 1;
  auto service = service::MatchService::Create(DeepCopy(base), options, env);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

/// What one faulted run of the workload acknowledged before it "died".
struct ScriptOutcome {
  uint64_t acked_generation = 0;  ///< highest generation Apply returned OK
  bool initial_save_ok = false;   ///< the gen-0 checkpoint became durable
};

/// Runs the workload under `env` until an operation fails (the simulated
/// kill) or the script ends. Checkpoint at generation 0, deltas 0-2,
/// checkpoint + compaction, deltas 3-5.
ScriptOutcome RunScript(Env* env, const schema::SchemaForest& base,
                        const std::vector<RepositoryDelta>& deltas,
                        const std::string& snap_path,
                        const std::string& wal_path) {
  ScriptOutcome outcome;
  auto service = MakeService(base, env);
  if (!store::SaveSnapshotToFile(*service->CurrentSnapshot(), snap_path, env)
           .ok()) {
    return outcome;
  }
  outcome.initial_save_ok = true;
  if (!service->AttachWal(wal_path).ok()) return outcome;
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (i == 3 && !service->SaveSnapshot(snap_path).ok()) return outcome;
    auto report = service->ApplyDelta(deltas[i]);
    if (!report.ok()) return outcome;
    outcome.acked_generation = report->generation;
  }
  return outcome;
}

/// Recovery + convergence assertions for one crash point. Returns the
/// recovery report's replay count for callers that assert on it.
void ExpectRecoverable(const ScriptOutcome& outcome,
                       const std::vector<RepositoryDelta>& deltas,
                       const Reference& ref, const std::string& snap_path,
                       const std::string& wal_path,
                       const std::string& label) {
  RecoveryReport report;
  auto recovered = RepositoryManager::Recover(Env::Default(), snap_path,
                                              wal_path, &report);
  if (!outcome.initial_save_ok) {
    // Nothing was ever acknowledged; an unbootable state dir is fine.
    ASSERT_EQ(outcome.acked_generation, 0u) << label;
    if (!recovered.ok()) return;
  }
  ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
  const uint64_t gen = (*recovered)->CurrentGeneration();

  // No acknowledged delta lost; anything extra was durable-but-unacked.
  EXPECT_GE(gen, outcome.acked_generation) << label;
  ASSERT_LT(gen, ref.fingerprint.size()) << label;
  EXPECT_EQ((*recovered)->Current()->fingerprint(), ref.fingerprint[gen])
      << label << ": recovered generation " << gen
      << " diverges from the uninterrupted chain";
  EXPECT_EQ(report.recovered_generation, gen) << label;

  // Finishing the workload converges to the exact reference end state.
  for (size_t i = gen; i < deltas.size(); ++i) {
    auto applied = (*recovered)->Apply(deltas[i]);
    ASSERT_TRUE(applied.ok())
        << label << ": resuming delta " << i << ": "
        << applied.status().ToString();
    EXPECT_EQ(applied->fingerprint, ref.fingerprint[i + 1]) << label;
  }
  EXPECT_EQ(ForestSpec((*recovered)->Current()->forest()), ref.final_spec)
      << label;
}

class WalRecoveryTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new schema::SchemaForest(MakeCorpus(300, 11));
    ASSERT_GE(base_->num_trees(), 4u)
        << "workload targets need at least 4 base trees";
    deltas_ = new std::vector<RepositoryDelta>(MakeDeltas());
    ref_ = new Reference(BuildReference(*base_, *deltas_));
    ASSERT_EQ(ref_->fingerprint.size(), deltas_->size() + 1);
  }
  static void TearDownTestSuite() {
    delete ref_;
    delete deltas_;
    delete base_;
    ref_ = nullptr;
    deltas_ = nullptr;
    base_ = nullptr;
  }

  static schema::SchemaForest* base_;
  static std::vector<RepositoryDelta>* deltas_;
  static Reference* ref_;
};

schema::SchemaForest* WalRecoveryTest::base_ = nullptr;
std::vector<RepositoryDelta>* WalRecoveryTest::deltas_ = nullptr;
Reference* WalRecoveryTest::ref_ = nullptr;

TEST_F(WalRecoveryTest, UninterruptedChainRecoversExactly) {
  TempDir dir("clean");
  const std::string snap = dir.File("t.snap");
  const std::string wal = dir.File("t.wal");
  ScriptOutcome outcome =
      RunScript(Env::Default(), *base_, *deltas_, snap, wal);
  EXPECT_EQ(outcome.acked_generation, deltas_->size());

  RecoveryReport report;
  auto recovered =
      RepositoryManager::Recover(Env::Default(), snap, wal, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->CurrentGeneration(), deltas_->size());
  EXPECT_EQ((*recovered)->Current()->fingerprint(),
            ref_->fingerprint.back());
  EXPECT_EQ(ForestSpec((*recovered)->Current()->forest()), ref_->final_spec);
  // The mid-script checkpoint landed at generation 3; only 4-6 replay.
  EXPECT_EQ(report.snapshot_generation, 3u);
  EXPECT_EQ(report.records_replayed, 3u);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_FALSE(report.torn_tail);
}

// The sweep: kill the workload after every single filesystem operation.
TEST_F(WalRecoveryTest, CrashSweepEveryOperationBoundary) {
  // Probe run discovers the op universe.
  TempDir probe_dir("probe_ops");
  FaultInjectionEnv probe{FaultPlan{}};
  ScriptOutcome full = RunScript(&probe, *base_, *deltas_,
                                 probe_dir.File("t.snap"),
                                 probe_dir.File("t.wal"));
  ASSERT_EQ(full.acked_generation, deltas_->size());
  const int64_t total_ops = probe.stats().ops;
  ASSERT_GT(total_ops, 20) << "suspiciously few ops for six journaled "
                              "deltas and two checkpoints";

  for (int64_t k = 0; k < total_ops; ++k) {
    TempDir dir("ops_" + std::to_string(k));
    const std::string snap = dir.File("t.snap");
    const std::string wal = dir.File("t.wal");
    FaultPlan plan;
    plan.crash_after_ops = k;
    FaultInjectionEnv env(plan);
    ScriptOutcome outcome = RunScript(&env, *base_, *deltas_, snap, wal);
    ASSERT_TRUE(env.crashed()) << "op budget " << k << " never exhausted";
    ExpectRecoverable(outcome, *deltas_, *ref_, snap, wal,
                      "crash_after_ops=" + std::to_string(k));
  }
}

// The same sweep at sampled byte offsets: kills land mid-write, tearing
// whatever the current append was.
TEST_F(WalRecoveryTest, CrashSweepSampledByteOffsets) {
  TempDir probe_dir("probe_bytes");
  FaultInjectionEnv probe{FaultPlan{}};
  (void)RunScript(&probe, *base_, *deltas_, probe_dir.File("t.snap"),
                  probe_dir.File("t.wal"));
  const int64_t total_bytes = probe.stats().bytes_appended;
  ASSERT_GT(total_bytes, 0);

  // A prime stride keeps the sample points from snapping to structure.
  const int64_t stride = std::max<int64_t>(1, total_bytes / 41) | 1;
  for (int64_t at = 0; at < total_bytes; at += stride) {
    TempDir dir("byte_" + std::to_string(at));
    const std::string snap = dir.File("t.snap");
    const std::string wal = dir.File("t.wal");
    FaultPlan plan;
    plan.crash_at_byte = at;
    FaultInjectionEnv env(plan);
    ScriptOutcome outcome = RunScript(&env, *base_, *deltas_, snap, wal);
    ASSERT_TRUE(env.crashed()) << "byte budget " << at << " never reached";
    ExpectRecoverable(outcome, *deltas_, *ref_, snap, wal,
                      "crash_at_byte=" + std::to_string(at));
  }
}

// A compaction that fails (rename refused, not a crash) must keep
// journaling into the old file; recovery then skips the pre-checkpoint
// records — the records_skipped path, exercised end to end.
TEST_F(WalRecoveryTest, FailedCompactionKeepsJournalingRecoverySkips) {
  TempDir dir("compaction");
  const std::string snap = dir.File("t.snap");
  const std::string wal = dir.File("t.wal");
  // Rename ordinals: #0 initial snapshot save, #1 AttachWal Create,
  // #2 mid-script snapshot save, #3 the compaction Create.
  FaultPlan plan;
  plan.fail_rename_at = 3;
  FaultInjectionEnv env(plan);

  auto service = MakeService(*base_, &env);
  ASSERT_TRUE(
      store::SaveSnapshotToFile(*service->CurrentSnapshot(), snap, &env).ok());
  ASSERT_TRUE(service->AttachWal(wal).ok());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(service->ApplyDelta((*deltas_)[i]).ok());
  }
  auto saved = service->SaveSnapshot(snap);
  ASSERT_FALSE(saved.ok()) << "compaction rename was supposed to fail";
  EXPECT_NE(saved.status().message().find("injected rename failure"),
            std::string::npos)
      << saved.status().ToString();
  // The snapshot itself IS durable (its rename preceded the failure) and
  // the old journal keeps accepting acknowledged deltas.
  for (size_t i = 3; i < deltas_->size(); ++i) {
    ASSERT_TRUE(service->ApplyDelta((*deltas_)[i]).ok());
  }
  service.reset();  // SIGKILL: no final save

  RecoveryReport report;
  auto recovered =
      RepositoryManager::Recover(Env::Default(), snap, wal, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.snapshot_generation, 3u);
  EXPECT_EQ(report.records_skipped, 3u) << "pre-checkpoint records";
  EXPECT_EQ(report.records_replayed, 3u);
  EXPECT_EQ((*recovered)->CurrentGeneration(), deltas_->size());
  EXPECT_EQ((*recovered)->Current()->fingerprint(),
            ref_->fingerprint.back());
}

// A journal append that fails after its frame reached the file closes the
// journal: the next delta would land behind the torn frame, where recovery
// reads it as corruption, so it is refused typed and publishes nothing.
// A checkpoint re-bases the journal, and recovery lands on the delta
// acknowledged after it.
TEST_F(WalRecoveryTest, FailedPayloadAppendFailsClosedUntilCheckpoint) {
  service::MatchServiceOptions options;
  options.num_threads = 1;
  auto make_service = [&](Env* env) {
    auto service =
        service::MatchService::Create(DeepCopy(*base_), options, env);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(*service);
  };

  // Probe: the appends made before delta 1 is journaled.
  int64_t before_d1 = 0;
  {
    TempDir probe_dir("fail_closed_probe");
    FaultInjectionEnv probe{FaultPlan{}};
    auto service = make_service(&probe);
    ASSERT_TRUE(service->SaveSnapshot(probe_dir.File("t.snap")).ok());
    ASSERT_TRUE(service->AttachWal(probe_dir.File("t.wal")).ok());
    ASSERT_TRUE(service->ApplyDelta((*deltas_)[0]).ok());
    before_d1 = probe.stats().appends;
    ASSERT_TRUE(service->ApplyDelta((*deltas_)[1]).ok());
    ASSERT_EQ(probe.stats().appends - before_d1, 2) << "frame + payload";
  }

  TempDir dir("fail_closed");
  const std::string snap = dir.File("t.snap");
  const std::string wal = dir.File("t.wal");
  // Delta 1's frame lands whole; its payload tears after 4 bytes.
  FaultPlan plan;
  plan.fail_append_at = before_d1 + 1;
  plan.append_persist_bytes = 4;
  FaultInjectionEnv env(plan);
  auto service = make_service(&env);
  ASSERT_TRUE(service->SaveSnapshot(snap).ok());
  ASSERT_TRUE(service->AttachWal(wal).ok());
  ASSERT_TRUE(service->ApplyDelta((*deltas_)[0]).ok());

  auto failed = service->ApplyDelta((*deltas_)[1]);
  ASSERT_FALSE(failed.ok()) << "the injected payload failure must surface";
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  auto refused = service->ApplyDelta((*deltas_)[1]);
  ASSERT_FALSE(refused.ok()) << "a poisoned journal must refuse appends";
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("injected write failure"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(service->CurrentGeneration(), 1u);

  ASSERT_TRUE(service->SaveSnapshot(snap).ok());
  auto acked = service->ApplyDelta((*deltas_)[1]);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_EQ(acked->generation, 2u);
  EXPECT_EQ(acked->fingerprint, ref_->fingerprint[2]);
  service.reset();  // SIGKILL: no final save

  RecoveryReport report;
  auto recovered = service::MatchService::Recover(Env::Default(), snap, wal,
                                                  options, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->CurrentGeneration(), 2u);
  EXPECT_EQ((*recovered)->CurrentSnapshot()->fingerprint(),
            ref_->fingerprint[2]);
  EXPECT_EQ(report.snapshot_generation, 1u);
  EXPECT_EQ(report.records_replayed, 1u);
}

// Damage (as opposed to crash artifacts) is refused typed, never served.
TEST_F(WalRecoveryTest, DamagedJournalsAreRefusedTyped) {
  TempDir dir("damage");
  const std::string snap = dir.File("t.snap");
  const std::string wal = dir.File("t.wal");
  ScriptOutcome outcome =
      RunScript(Env::Default(), *base_, *deltas_, snap, wal);
  ASSERT_EQ(outcome.acked_generation, deltas_->size());
  auto pristine = Env::Default()->ReadFileToString(wal);
  ASSERT_TRUE(pristine.ok());

  auto expect_corruption = [&](const std::string& bytes,
                               const std::string& what) {
    ASSERT_TRUE(util::io::AtomicFileWriter::WriteFileAtomic(
                    Env::Default(), wal, bytes)
                    .ok());
    auto recovered = RepositoryManager::Recover(Env::Default(), snap, wal);
    ASSERT_FALSE(recovered.ok()) << what;
    EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
        << what << ": " << recovered.status().ToString();
  };

  // Bit flip inside the first complete record's payload.
  {
    std::string damaged = *pristine;
    damaged[wal::kWalHeaderSize + wal::kWalRecordFrameSize + 4] ^= 0x20;
    expect_corruption(damaged, "payload bit flip");
  }

  // A dropped record leaves a generation gap the replay must refuse.
  {
    auto read = wal::ParseWal(*pristine);
    ASSERT_TRUE(read.ok());
    ASSERT_GE(read->records.size(), 2u);
    const size_t first_len =
        wal::kWalRecordFrameSize + read->records[0].payload.size();
    std::string gapped =
        pristine->substr(0, wal::kWalHeaderSize) +
        pristine->substr(wal::kWalHeaderSize + first_len);
    ASSERT_TRUE(util::io::AtomicFileWriter::WriteFileAtomic(
                    Env::Default(), wal, gapped)
                    .ok());
    auto recovered = RepositoryManager::Recover(Env::Default(), snap, wal);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
    EXPECT_NE(recovered.status().message().find("journal gap"),
              std::string::npos)
        << recovered.status().ToString();
  }

  // A journal based past the snapshot's generation: unrecoverable window.
  {
    auto writer = wal::WalWriter::Create(
        Env::Default(), wal, /*base_generation=*/99, /*fingerprint=*/1);
    ASSERT_TRUE(writer.ok());
    auto recovered = RepositoryManager::Recover(Env::Default(), snap, wal);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
    EXPECT_NE(recovered.status().message().find("begins at generation"),
              std::string::npos);
  }
}

// Service-level recovery: MatchService::Recover returns a chain that
// answers queries identically to the uninterrupted service.
TEST_F(WalRecoveryTest, RecoveredServiceAnswersQueriesIdentically) {
  TempDir dir("queries");
  const std::string snap = dir.File("t.snap");
  const std::string wal = dir.File("t.wal");

  service::MatchServiceOptions options;
  options.num_threads = 2;

  // Interrupted run: kill after a mid-chain op boundary (discovered so the
  // kill lands between the checkpoint and the last delta).
  TempDir probe_dir("queries_probe");
  FaultInjectionEnv probe{FaultPlan{}};
  (void)RunScript(&probe, *base_, *deltas_, probe_dir.File("t.snap"),
                  probe_dir.File("t.wal"));
  FaultPlan plan;
  plan.crash_after_ops = probe.stats().ops - 2;
  FaultInjectionEnv env(plan);
  ScriptOutcome outcome = RunScript(&env, *base_, *deltas_, snap, wal);
  ASSERT_TRUE(env.crashed());

  RecoveryReport report;
  auto recovered_service =
      service::MatchService::Recover(Env::Default(), snap, wal, options,
                                     &report);
  ASSERT_TRUE(recovered_service.ok())
      << recovered_service.status().ToString();
  ASSERT_GE((*recovered_service)->CurrentGeneration(),
            outcome.acked_generation);
  ASSERT_TRUE((*recovered_service)->wal_attached());
  const uint64_t gen = (*recovered_service)->CurrentGeneration();
  EXPECT_EQ((*recovered_service)->CurrentSnapshot()->fingerprint(),
            ref_->fingerprint[gen]);

  // Reference service at the same generation, built uninterrupted.
  auto reference_manager = RepositoryManager::Create(DeepCopy(*base_));
  ASSERT_TRUE(reference_manager.ok());
  for (size_t i = 0; i < gen; ++i) {
    ASSERT_TRUE((*reference_manager)->Apply((*deltas_)[i]).ok());
  }
  service::MatchService reference((*reference_manager)->Current(), options);

  const char* kQuerySpecs[] = {
      "name(address,email)",
      "customer(name,address(city,zip))",
      "order(id,lines)",
  };
  for (const char* spec : kQuerySpecs) {
    service::MatchRequest query;
    query.id = std::string("recovery:") + spec;
    query.personal = Spec(spec);
    query.options.delta = 0.6;
    auto got = (*recovered_service)->Run(query);
    auto want = reference.Run(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got->result.mappings.size(), want->result.mappings.size())
        << spec;
    for (size_t i = 0; i < got->result.mappings.size(); ++i) {
      EXPECT_EQ(got->result.mappings[i].tree, want->result.mappings[i].tree)
          << spec << " rank " << i;
      EXPECT_EQ(got->result.mappings[i].images, want->result.mappings[i].images)
          << spec << " rank " << i;
    }
  }

  // The recovered service keeps journaling: one more delta, one more kill,
  // one more recovery — still zero acknowledged loss.
  auto applied = (*recovered_service)->ApplyDelta((*deltas_)[gen]);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  recovered_service->reset();  // SIGKILL again
  auto again = service::MatchService::Recover(Env::Default(), snap, wal,
                                              options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->CurrentGeneration(), gen + 1);
  EXPECT_EQ((*again)->CurrentSnapshot()->fingerprint(),
            ref_->fingerprint[gen + 1]);
}

}  // namespace
}  // namespace xsm::live
