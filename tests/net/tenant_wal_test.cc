// Per-tenant WAL wiring through TenantRegistry and the drain path: a
// SIGKILL'd registry (destroyed without any save) warm-restarts with
// every acknowledged delta intact; a tenant whose snapshot save fails
// mid-drain never aborts the drain — the other tenants persist, the
// failure surfaces typed, and the HttpServer counts it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "live/repository_delta.h"
#include "net/http_server.h"
#include "net/tenant_registry.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "util/io.h"
#include "util/status.h"

namespace xsm::net {
namespace {

namespace fs = std::filesystem;
using util::io::FaultInjectionEnv;
using util::io::FaultPlan;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_tenant_wal_" + tag + "_" +
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

live::RepositoryDelta MakeAddDelta(const std::string& spec,
                                   const std::string& source) {
  live::DeltaBuilder builder;
  auto tree = schema::ParseTreeSpec(spec);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  builder.AddTree(std::move(*tree), source);
  auto delta = builder.Build();
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  return std::move(*delta);
}

/// Passes everything to the real filesystem, except that the first file
/// open waits until the test releases it.
class GatingEnv : public util::io::Env {
 public:
  Result<std::unique_ptr<util::io::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!gated_) {
        gated_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    return base_->NewWritableFile(path, truncate);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }

  /// Blocks until some call is held at the gate.
  void WaitUntilGated() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return gated_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  util::io::Env* base_ = util::io::Env::Default();
  std::mutex mu_;
  std::condition_variable cv_;
  bool gated_ = false;
  bool released_ = false;
};

TenantRegistryOptions StateOptions(const std::string& state_dir,
                                   util::io::Env* env = nullptr) {
  TenantRegistryOptions options;
  options.service.num_threads = 2;
  options.state_dir = state_dir;
  options.env = env;
  return options;
}

TEST(TenantWalTest, KilledRegistryWarmRestartsWithZeroAcknowledgedLoss) {
  TempDir dir("zeroloss");
  uint64_t acked_generation = 0;
  uint64_t acked_fingerprint = 0;
  {
    TenantRegistry registry(StateOptions(dir.path()));
    auto tenant = registry.Create("t1", MakeCorpus(200, 3));
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    ASSERT_TRUE((*tenant)->service->wal_attached());

    for (int i = 0; i < 3; ++i) {
      auto report = (*tenant)->service->ApplyDelta(MakeAddDelta(
          "doc" + std::to_string(i) + "(title,body)", "feed://doc"));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      acked_generation = report->generation;
      acked_fingerprint = report->fingerprint;
    }
    // SIGKILL: the registry dies here with no SaveAll / drain.
  }

  TenantRegistry restarted(StateOptions(dir.path()));
  live::RecoveryReport report;
  auto tenant = restarted.WarmStart("t1", &report);
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  EXPECT_EQ((*tenant)->service->CurrentGeneration(), acked_generation);
  EXPECT_EQ((*tenant)->service->Pin()->fingerprint(),
            acked_fingerprint);
  EXPECT_EQ(report.snapshot_generation, 0u) << "checkpoint was at creation";
  EXPECT_EQ(report.records_replayed, 3u);
  ASSERT_TRUE((*tenant)->service->wal_attached())
      << "recovered tenant must keep journaling";

  // Without the WAL the same kill would have lost every delta: the
  // snapshot alone only reaches the creation-time checkpoint.
  TenantRegistryOptions no_wal = StateOptions(dir.path());
  no_wal.enable_wal = false;
  TenantRegistry amnesiac(no_wal);
  auto stale = amnesiac.WarmStart("t1");
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ((*stale)->service->CurrentGeneration(), 0u);
}

// Two concurrent creations of one name (a client retrying PUT
// /v1/tenants/x) must not let the loser overwrite the winner's checkpoint
// or journal: the name is taken before either touches the state dir.
TEST(TenantWalTest, ConcurrentCreateOfOneNameLosesNoAcknowledgedDelta) {
  TempDir dir("create_race");
  GatingEnv gate;
  uint64_t acked_generation = 0;
  uint64_t acked_fingerprint = 0;
  {
    TenantRegistry registry(StateOptions(dir.path(), &gate));
    Result<Tenant*> first = Status::Internal("not run");
    std::thread creator(
        [&] { first = registry.Create("x", MakeCorpus(150, 7)); });
    gate.WaitUntilGated();  // the first creation is mid-way

    auto second = registry.Create("x", MakeCorpus(150, 7));
    if (second.ok()) {
      auto report = (*second)->service->ApplyDelta(
          MakeAddDelta("late(a,b)", "feed://late"));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      acked_generation = report->generation;
      acked_fingerprint = report->fingerprint;
    } else {
      EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition)
          << second.status().ToString();
    }
    gate.Release();
    creator.join();
    EXPECT_NE(first.ok(), second.ok())
        << "exactly one creation of 'x' may succeed";

    if (first.ok()) {
      auto report = (*first)->service->ApplyDelta(
          MakeAddDelta("late(a,b)", "feed://late"));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      acked_generation = report->generation;
      acked_fingerprint = report->fingerprint;
    }
    ASSERT_EQ(acked_generation, 1u);
    // SIGKILL: no save after the delta.
  }

  TenantRegistry restarted(StateOptions(dir.path()));
  live::RecoveryReport report;
  auto tenant = restarted.WarmStart("x", &report);
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  EXPECT_EQ((*tenant)->service->CurrentGeneration(), acked_generation);
  EXPECT_EQ((*tenant)->service->Pin()->fingerprint(), acked_fingerprint);
  EXPECT_EQ(report.records_replayed, 1u);
}

TEST(TenantWalTest, ShardedTenantRestartsAtTheAckedGeneration) {
  TempDir dir("sharded");
  uint64_t acked_generation = 0;
  uint64_t acked_fingerprint = 0;
  {
    TenantRegistryOptions options = StateOptions(dir.path());
    options.shards = 3;
    TenantRegistry registry(options);
    auto tenant = registry.Create("s", MakeCorpus(1200, 5));
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    // One journaled !replace per shard: each shard's first tree, renamed
    // at the root so node counts (and the shard plan) stay as they are.
    const service::RepositoryPinPtr pin = (*tenant)->service->Pin();
    for (const service::ShardDescriptor& d : (*tenant)->service->Shards()) {
      ASSERT_GT(d.trees, 0u);
      const std::string spec = schema::ToTreeSpec(pin->forest().tree(
          static_cast<schema::TreeId>(d.first_tree)));
      ASSERT_NE(spec.find('('), std::string::npos) << spec;
      const std::string line = "!replace " + std::to_string(d.first_tree) +
                               " swapped" + std::to_string(d.shard) +
                               spec.substr(spec.find('(')) +
                               " source=feed://r";
      Status status = (*tenant)->session->RunCommand(
          line, [](const std::string&) {});
      ASSERT_TRUE(status.ok()) << line << ": " << status.ToString();
    }
    acked_generation = (*tenant)->service->CurrentGeneration();
    acked_fingerprint = (*tenant)->service->Pin()->fingerprint();
    ASSERT_EQ(acked_generation, 3u);
    // SIGKILL: no save after the deltas.
  }

  TenantRegistry restarted(StateOptions(dir.path()));
  live::RecoveryReport report;
  auto tenant = restarted.WarmStart("s", &report);
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  EXPECT_EQ((*tenant)->service->Shards().size(), 3u);
  EXPECT_EQ((*tenant)->service->CurrentGeneration(), acked_generation);
  EXPECT_EQ((*tenant)->service->Pin()->fingerprint(), acked_fingerprint);
  EXPECT_EQ(report.recovered_generation, acked_generation);
  EXPECT_EQ(report.records_replayed, 3u);
  EXPECT_TRUE((*tenant)->service->wal_attached());
}

TEST(TenantWalTest, WarmStartAllRecoversEveryTenant) {
  TempDir dir("warmall");
  std::vector<uint64_t> fingerprints(3);
  {
    TenantRegistry registry(StateOptions(dir.path()));
    for (int t = 0; t < 3; ++t) {
      auto tenant = registry.Create("t" + std::to_string(t),
                                    MakeCorpus(150, 10 + t));
      ASSERT_TRUE(tenant.ok());
      // Different delta counts per tenant: recovery is per-journal.
      for (int i = 0; i <= t; ++i) {
        auto report = (*tenant)->service->ApplyDelta(
            MakeAddDelta("extra" + std::to_string(i) + "(a,b)", "feed://x"));
        ASSERT_TRUE(report.ok());
        fingerprints[t] = report->fingerprint;
      }
    }
  }

  TenantRegistry restarted(StateOptions(dir.path()));
  EXPECT_EQ(restarted.WarmStartAll(), 3u);
  for (int t = 0; t < 3; ++t) {
    Tenant* tenant = restarted.Find("t" + std::to_string(t));
    ASSERT_NE(tenant, nullptr) << "t" << t;
    EXPECT_EQ(tenant->service->CurrentGeneration(),
              static_cast<uint64_t>(t + 1));
    EXPECT_EQ(tenant->service->Pin()->fingerprint(),
              fingerprints[t]);
  }
}

// Every write of a tenant goes through the registry's Env, from the
// creation checkpoint on: a failure there is typed and admits no tenant.
TEST(TenantWalTest, CreationCheckpointGoesThroughTheRegistryEnv) {
  TempDir dir("create_env");
  FaultPlan plan;
  plan.fail_rename_at = 0;  // the creation checkpoint's rename
  FaultInjectionEnv env(plan);
  TenantRegistry registry(StateOptions(dir.path(), &env));

  auto failed = registry.Create("t", MakeCorpus(150, 40));
  ASSERT_FALSE(failed.ok()) << "the injected rename failure must surface";
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << failed.status().ToString();
  EXPECT_NE(failed.status().message().find("injected rename failure"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Find("t"), nullptr);
  EXPECT_EQ(env.stats().renames, 1) << "nothing was written past the failure";
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) / "t.snap"))
      << "the checkpoint bypassed the registry's env";

  // The failed creation released the name: the next one goes through, its
  // checkpoint and its journal both through the registry's env.
  auto retried = registry.Create("t", MakeCorpus(150, 40));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE((*retried)->service->wal_attached());
  EXPECT_EQ(env.stats().renames, 3);
}

// A tenant without a journal — created, or warm-started from its
// checkpoint — saves through the registry's Env too.
TEST(TenantWalTest, UnjournaledTenantSavesThroughTheRegistryEnv) {
  TempDir dir("nowal_env");
  FaultPlan plan;
  plan.fail_rename_at = 0;
  FaultInjectionEnv env(plan);
  TenantRegistryOptions options = StateOptions(dir.path(), &env);
  options.enable_wal = false;
  TenantRegistry registry(options);

  auto created = registry.Create("a", MakeCorpus(150, 41));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_FALSE((*created)->service->wal_attached());
  EXPECT_EQ(env.stats().renames, 0) << "no journal, so no creation write";
  auto failed = registry.Save("a");
  ASSERT_FALSE(failed.ok()) << "the save must go through the injected env";
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << failed.status().ToString();
  ASSERT_TRUE(registry.Save("a").ok()) << "only rename #0 was scripted";

  // Warm-started from that checkpoint, the tenant still writes through it.
  const int64_t renames = env.stats().renames;
  TenantRegistry restarted(options);
  auto warm = restarted.WarmStart("a");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_FALSE((*warm)->service->wal_attached());
  ASSERT_TRUE(restarted.Save("a").ok());
  EXPECT_EQ(env.stats().renames, renames + 1)
      << "the warm-started tenant's save bypassed the registry's env";
}

TEST(TenantWalTest, SaveAllSurvivesOneTenantsFailure) {
  TempDir dir("saveall");
  // Rename ordinals on the injected env, which every tenant write goes
  // through: each Create writes its checkpoint, then its journal's Create
  // (t0 #0-#1, t1 #2-#3, t2 #4-#5). SaveAll then saves alphabetically —
  // t0 snapshot #6, t0 compaction #7, t1 snapshot #8 — so failing rename
  // #8 fails exactly t1's save.
  FaultPlan plan;
  plan.fail_rename_at = 8;
  FaultInjectionEnv env(plan);

  TenantRegistry registry(StateOptions(dir.path(), &env));
  for (int t = 0; t < 3; ++t) {
    auto tenant =
        registry.Create("t" + std::to_string(t), MakeCorpus(150, 20 + t));
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    ASSERT_TRUE(
        (*tenant)->service->ApplyDelta(MakeAddDelta("n(a,b)", "x")).ok());
  }

  size_t saved = 0;
  std::vector<TenantRegistry::TenantSaveFailure> failures;
  Status status = registry.SaveAll(&saved, &failures);
  EXPECT_EQ(saved, 2u) << "the other tenants must still save";
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].tenant, "t1");
  EXPECT_EQ(failures[0].status.code(), StatusCode::kIOError);
  EXPECT_NE(failures[0].status.message().find("injected rename failure"),
            std::string::npos)
      << failures[0].status.ToString();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError)
      << "first error propagates: " << status.ToString();

  // t0 and t2 checkpointed at generation 1; t1's snapshot is still the
  // creation checkpoint but its journal has the delta — nothing is lost
  // even for the tenant whose save failed.
  TenantRegistry restarted(StateOptions(dir.path()));
  EXPECT_EQ(restarted.WarmStartAll(), 3u);
  for (int t = 0; t < 3; ++t) {
    Tenant* tenant = restarted.Find("t" + std::to_string(t));
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->service->CurrentGeneration(), 1u) << "t" << t;
  }
}

TEST(TenantWalTest, DrainReportsSaveFailuresAndFinishes) {
  TempDir dir("drain");
  FaultPlan plan;
  plan.fail_rename_at = 8;  // same geometry as above: t1's drain save
  FaultInjectionEnv env(plan);

  auto registry =
      std::make_unique<TenantRegistry>(StateOptions(dir.path(), &env));
  for (int t = 0; t < 3; ++t) {
    auto tenant =
        registry->Create("t" + std::to_string(t), MakeCorpus(150, 30 + t));
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    ASSERT_TRUE(
        (*tenant)->service->ApplyDelta(MakeAddDelta("n(a,b)", "x")).ok());
  }

  HttpServerOptions options;
  options.num_workers = 2;
  options.max_connections = 8;
  auto server = std::make_unique<HttpServer>(registry.get(), options);
  ASSERT_TRUE(server->StartBackground().ok());
  server->RequestShutdown();

  // The drain runs on the background thread; the failure counter moving to
  // nonzero is its completion signal for this test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->stats().drain_save_failures == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->stats().drain_save_failures, 1u)
      << "one tenant's failed save must be counted, not fatal";
  server.reset();  // joins the drained loop
  registry.reset();

  // The drain still persisted the healthy tenants and journaling covered
  // the failed one: a warm restart loses nothing.
  TenantRegistry restarted(StateOptions(dir.path()));
  EXPECT_EQ(restarted.WarmStartAll(), 3u);
  for (int t = 0; t < 3; ++t) {
    Tenant* tenant = restarted.Find("t" + std::to_string(t));
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant->service->CurrentGeneration(), 1u) << "t" << t;
  }
}

}  // namespace
}  // namespace xsm::net
