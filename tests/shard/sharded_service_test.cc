// ShardedMatchService behaviour beyond raw result equivalence: shard-count
// edge cases (K=1, K > trees), delta routing + rebalancing, persistence
// (manifest + per-shard snapshots), crash recovery from the tenant journal,
// the batch metrics contract, and serving through ServeSession.
#include "shard/sharded_match_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "live/repository_delta.h"
#include "obs/metrics.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "service/serve_session.h"
#include "util/io.h"

namespace xsm::shard {
namespace {

namespace fs = std::filesystem;
using service::MatchRequest;
using service::MatchService;
using service::MatchServiceOptions;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_shard_" + tag + "_" +
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

schema::SchemaTree MakeTree(const char* spec) {
  auto tree = schema::ParseTreeSpec(spec);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

MatchRequest MakeQuery(const std::string& id, const char* spec) {
  MatchRequest query;
  query.id = id;
  query.personal = MakeTree(spec);
  query.options.delta = 0.55;
  query.options.top_n = 8;
  return query;
}

std::unique_ptr<ShardedMatchService> MakeSharded(
    const schema::SchemaForest& forest, size_t k,
    MatchServiceOptions options = MatchServiceOptions()) {
  ShardedOptions shard_options;
  shard_options.num_shards = k;
  auto sharded = ShardedMatchService::Create(forest, options, shard_options);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::move(*sharded);
}

void ExpectSameMappings(const core::MatchResult& got,
                        const core::MatchResult& want) {
  ASSERT_EQ(got.mappings.size(), want.mappings.size());
  for (size_t i = 0; i < got.mappings.size(); ++i) {
    EXPECT_EQ(got.mappings[i].tree, want.mappings[i].tree) << i;
    EXPECT_EQ(got.mappings[i].images, want.mappings[i].images) << i;
    EXPECT_EQ(got.mappings[i].delta, want.mappings[i].delta) << i;
  }
}

// --- K = 1 -----------------------------------------------------------------

TEST(ShardedServiceTest, SingleShardIsByteIdenticalToMatchService) {
  schema::SchemaForest forest = MakeCorpus(800, 3);
  auto snapshot = service::RepositorySnapshot::Create(forest);
  ASSERT_TRUE(snapshot.ok());
  MatchService reference(std::move(*snapshot));
  auto sharded = MakeSharded(forest, 1);

  // Same content fingerprint means the same cluster cache namespace: a
  // state computed by either backend would be keyed identically.
  EXPECT_EQ(sharded->Pin()->fingerprint(), reference.Pin()->fingerprint());
  ASSERT_EQ(sharded->Shards().size(), 1u);
  EXPECT_EQ(sharded->Shards()[0].trees, reference.Pin()->num_trees());

  MatchRequest query = MakeQuery("q0", "person(name,email,phone)");
  // Same cluster-state key: the caches are interchangeable namespaces.
  EXPECT_EQ(sharded->ClusterStateKey(query), reference.ClusterStateKey(query));

  auto want = reference.Run(query);
  auto got = sharded->Run(query);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->generation, want->generation);
  EXPECT_EQ(got->fingerprint, want->fingerprint);
  ExpectSameMappings(got->result, want->result);

  // Effective options agree on everything that shapes the run.
  core::MatchOptions a = sharded->EffectiveOptions(query);
  core::MatchOptions b = reference.EffectiveOptions(query);
  EXPECT_EQ(a.delta, b.delta);
  EXPECT_EQ(a.top_n, b.top_n);
  EXPECT_EQ(a.element.threshold, b.element.threshold);
}

// --- K > tree count --------------------------------------------------------

TEST(ShardedServiceTest, MoreShardsThanTreesMergesCleanly) {
  schema::SchemaForest forest;
  forest.AddTree(MakeTree("person(name,phone)"), "s1");
  forest.AddTree(MakeTree("book(title,author)"), "s2");
  forest.AddTree(MakeTree("order(item,customer)"), "s3");

  auto snapshot = service::RepositorySnapshot::Create(forest);
  ASSERT_TRUE(snapshot.ok());
  MatchService reference(std::move(*snapshot));
  auto sharded = MakeSharded(forest, 6);  // 3 empty tail shards

  ASSERT_EQ(sharded->Shards().size(), 6u);
  size_t trees = 0;
  for (const service::ShardDescriptor& d : sharded->Shards()) {
    trees += d.trees;
  }
  EXPECT_EQ(trees, 3u);
  EXPECT_EQ(sharded->Pin()->fingerprint(), reference.Pin()->fingerprint());

  MatchRequest query = MakeQuery("q0", "person(name,phone)");
  query.options.delta = 0.4;
  // Baseline clustering: the tiny trees must not be droppable by k-means
  // cluster-size heuristics — this asserts the merge, not clustering.
  query.options.clustering = core::ClusteringMode::kTreeClusters;
  auto want = reference.Run(query);
  auto got = sharded->Run(query);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->result.mappings.empty());
  ExpectSameMappings(got->result, want->result);
}

TEST(ShardedServiceTest, HugeTopNMatchesUnlimited) {
  // The scatter path's shared δ floor must not allocate in proportion to
  // top-N: SIZE_MAX is what a request's `top=-1` parses to.
  schema::SchemaForest forest = MakeCorpus(800, 3);
  auto sharded = MakeSharded(forest, 4);
  MatchRequest query = MakeQuery("q0", "person(name,email,phone)");
  query.options.top_n = 0;
  auto want = sharded->Run(query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_FALSE(want->result.mappings.empty());
  for (size_t top_n : {SIZE_MAX, static_cast<size_t>(1e12)}) {
    SCOPED_TRACE(top_n);
    query.options.top_n = top_n;
    auto got = sharded->Run(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameMappings(got->result, want->result);
  }
}

// --- deltas + rebalance ----------------------------------------------------

TEST(ShardedServiceTest, DeltasTrackUnshardedChainAndRebalance) {
  schema::SchemaForest forest = MakeCorpus(600, 5);
  auto snapshot = service::RepositorySnapshot::Create(forest);
  ASSERT_TRUE(snapshot.ok());
  MatchService reference(std::move(*snapshot));
  auto sharded = MakeSharded(forest, 3);

  // A mixed workload: adds (routed to the last shard), a replace and a
  // remove (routed to the owning shard), then a pile of adds that skews
  // node mass onto the tail shard hard enough to trip the rebalancer.
  std::vector<live::RepositoryDelta> deltas;
  {
    live::DeltaBuilder b;
    b.AddTree(MakeTree("invoice(number,amount,customer)"), "d1");
    b.ReplaceTree(0, MakeTree("swapped(alpha,beta)"), "d1");
    auto delta = b.Build();
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    deltas.push_back(std::move(*delta));
  }
  {
    live::DeltaBuilder b;
    b.RemoveTree(2);
    auto delta = b.Build();
    ASSERT_TRUE(delta.ok());
    deltas.push_back(std::move(*delta));
  }
  for (int i = 0; i < 6; ++i) {
    live::DeltaBuilder b;
    b.AddTree(MakeTree("bulk(a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p)"),
              "bulk" + std::to_string(i));
    auto delta = b.Build();
    ASSERT_TRUE(delta.ok());
    deltas.push_back(std::move(*delta));
  }

  for (const live::RepositoryDelta& delta : deltas) {
    auto want = reference.ApplyDelta(delta);
    auto got = sharded->ApplyDelta(delta);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->generation, want->generation);
    EXPECT_EQ(got->fingerprint, want->fingerprint)
        << "generation " << want->generation;
    EXPECT_EQ(got->trees_total, want->trees_total);
  }

  EXPECT_EQ(sharded->CurrentGeneration(), reference.CurrentGeneration());
  EXPECT_EQ(sharded->Pin()->fingerprint(), reference.Pin()->fingerprint());

  // Queries stay exact after routing + any rebalances.
  MatchRequest query = MakeQuery("after", "bulk(a,b,c)");
  query.options.delta = 0.4;
  auto want = reference.Run(query);
  auto got = sharded->Run(query);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectSameMappings(got->result, want->result);

  // Out-of-range targets are refused before anything applies.
  live::DeltaBuilder bad;
  bad.ReplaceTree(10000, MakeTree("x(y)"));
  auto bad_delta = bad.Build();
  ASSERT_TRUE(bad_delta.ok());
  uint64_t generation_before = sharded->CurrentGeneration();
  EXPECT_FALSE(sharded->ApplyDelta(*bad_delta).ok());
  EXPECT_EQ(sharded->CurrentGeneration(), generation_before);
}

// --- persistence -----------------------------------------------------------

TEST(ShardedServiceTest, SaveAndWarmStartRoundTripsManifestAndShards) {
  TempDir dir("warmstart");
  schema::SchemaForest forest = MakeCorpus(700, 9);
  auto sharded = MakeSharded(forest, 4);

  MatchRequest query = MakeQuery("q", "person(name,email)");
  auto before = sharded->Run(query);
  ASSERT_TRUE(before.ok());

  std::string path = dir.File("repo.snap");
  auto info = sharded->SaveSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Manifest + one file per shard.
  EXPECT_TRUE(fs::exists(path));
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(fs::exists(ShardedMatchService::ShardFilePath(path, s)))
        << "shard " << s;
  }

  auto warm = ShardedMatchService::Recover(util::io::Env::Default(), path,
                                          /*wal_path=*/"");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ((*warm)->Shards().size(), 4u);
  EXPECT_EQ((*warm)->Pin()->fingerprint(), sharded->Pin()->fingerprint());
  auto after = (*warm)->Run(query);
  ASSERT_TRUE(after.ok());
  ExpectSameMappings(after->result, before->result);

  // A manifest whose shards do not match it is refused typed.
  std::string tampered = dir.File("tampered.snap");
  ASSERT_TRUE(sharded->SaveSnapshot(tampered).ok());
  fs::copy_file(ShardedMatchService::ShardFilePath(tampered, 0),
                ShardedMatchService::ShardFilePath(tampered, 1),
                fs::copy_options::overwrite_existing);
  auto refused = ShardedMatchService::Recover(util::io::Env::Default(),
                                             tampered, /*wal_path=*/"");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption)
      << refused.status().ToString();
}

TEST(ShardedServiceTest, RecoverReplaysPerShardWals) {
  TempDir dir("recover");
  util::io::Env* env = util::io::Env::Default();
  schema::SchemaForest forest = MakeCorpus(500, 13);
  std::string snap = dir.File("repo.snap");
  std::string wal = dir.File("repo.wal");

  uint64_t acked_generation = 0;
  uint64_t acked_fingerprint = 0;
  {
    auto sharded = MakeSharded(forest, 3);
    ASSERT_TRUE(sharded->SaveSnapshot(snap).ok());
    ASSERT_TRUE(sharded->AttachWal(wal).ok());
    ASSERT_TRUE(sharded->wal_attached());
    for (int i = 0; i < 3; ++i) {
      live::DeltaBuilder b;
      b.AddTree(MakeTree("crash(a,b,c)"), "c" + std::to_string(i));
      auto delta = b.Build();
      ASSERT_TRUE(delta.ok());
      auto report = sharded->ApplyDelta(*delta);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      acked_generation = report->generation;
      acked_fingerprint = report->fingerprint;
    }
    // No save after the deltas: dropping the service here is the crash.
  }

  live::RecoveryReport report;
  auto recovered = ShardedMatchService::Recover(env, snap, wal,
                                                MatchServiceOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->CurrentGeneration(), acked_generation);
  EXPECT_EQ((*recovered)->Pin()->fingerprint(), acked_fingerprint);
  EXPECT_GT(report.records_replayed, 0u);
  EXPECT_TRUE((*recovered)->wal_attached())
      << "recovered service must keep journaling";

  // The recovered chain matches an unsharded reference fed the same tale.
  auto snapshot = service::RepositorySnapshot::Create(forest);
  ASSERT_TRUE(snapshot.ok());
  MatchService reference(std::move(*snapshot));
  for (int i = 0; i < 3; ++i) {
    live::DeltaBuilder b;
    b.AddTree(MakeTree("crash(a,b,c)"), "c" + std::to_string(i));
    auto delta = b.Build();
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(reference.ApplyDelta(*delta).ok());
  }
  EXPECT_EQ((*recovered)->Pin()->fingerprint(),
            reference.Pin()->fingerprint());
}

// --- batch metrics contract (no double counting) ---------------------------

TEST(ShardedServiceTest, BatchMembersCountOnceInQueriesFamily) {
  schema::SchemaForest forest = MakeCorpus(600, 17);
  const char* specs[] = {"person(name,phone)", "book(title,author)",
                         "order(item,customer)"};
  // Both backends must agree on the contract: xsm_queries_total counts
  // each batch member exactly once (not per member AND per batch call);
  // xsm_batches_total counts RunBatch calls. ServiceStats reads the same
  // registry handles, so the two surfaces must agree exactly.
  for (int backend = 0; backend < 2; ++backend) {
    obs::MetricsRegistry registry;
    MatchServiceOptions options;
    options.num_threads = 2;
    options.metrics = &registry;
    options.metrics_tenant = "t";
    std::unique_ptr<service::Matcher> matcher;
    if (backend == 0) {
      auto snapshot = service::RepositorySnapshot::Create(forest);
      ASSERT_TRUE(snapshot.ok());
      matcher = std::make_unique<MatchService>(std::move(*snapshot), options);
    } else {
      matcher = MakeSharded(forest, 3, options);
    }

    std::vector<MatchRequest> queries;
    for (size_t q = 0; q < 3; ++q) {
      queries.push_back(MakeQuery("b" + std::to_string(q), specs[q]));
    }
    service::BatchMatchResult batch = matcher->RunBatch(std::move(queries));
    ASSERT_EQ(batch.results.size(), 3u);

    obs::LabelSet labels = {{"tenant", "t"}};
    EXPECT_EQ(registry.CounterValue("xsm_queries_total", labels), 3u)
        << "backend " << backend
        << ": batch members must count once, not per member and per call";
    EXPECT_EQ(registry.CounterValue("xsm_batches_total", labels), 1u)
        << "backend " << backend;
    service::ServiceStats stats = matcher->stats();
    EXPECT_EQ(stats.queries,
              registry.CounterValue("xsm_queries_total", labels))
        << "backend " << backend;
    EXPECT_EQ(stats.batches,
              registry.CounterValue("xsm_batches_total", labels))
        << "backend " << backend;

    // A single non-batch run adds exactly one more query and no batch.
    ASSERT_TRUE(matcher->Run(MakeQuery("solo", specs[0])).ok());
    EXPECT_EQ(registry.CounterValue("xsm_queries_total", labels), 4u)
        << "backend " << backend;
    EXPECT_EQ(registry.CounterValue("xsm_batches_total", labels), 1u)
        << "backend " << backend;
  }
}

// --- shared serving surface ------------------------------------------------

/// The `# HELP` and `# TYPE` lines of a Prometheus exposition, per family.
std::map<std::string, std::string> FamilyHeaders(const std::string& text) {
  std::map<std::string, std::string> headers;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
      continue;
    }
    const size_t begin = 7;
    headers[line.substr(begin, line.find(' ', begin) - begin)] += line + "\n";
  }
  return headers;
}

TEST(ShardedServiceTest, BackendsShareMetricFamiliesAndCounters) {
  schema::SchemaForest forest = MakeCorpus(600, 29);
  // One script against each backend, each with its own registry: queries,
  // one batch, one cancelled and one deadline-expired query, one delta.
  std::map<std::string, std::string> headers[2];
  service::ServiceStats stats[2];
  for (int backend = 0; backend < 2; ++backend) {
    obs::MetricsRegistry registry;
    MatchServiceOptions options;
    options.num_threads = 2;
    options.metrics = &registry;
    options.metrics_tenant = "t";
    std::unique_ptr<service::Matcher> matcher;
    if (backend == 0) {
      auto snapshot = service::RepositorySnapshot::Create(forest);
      ASSERT_TRUE(snapshot.ok());
      matcher = std::make_unique<MatchService>(std::move(*snapshot), options);
    } else {
      matcher = MakeSharded(forest, 2, options);
    }

    ASSERT_TRUE(matcher->Run(MakeQuery("q0", "person(name,email)")).ok());
    ASSERT_TRUE(matcher->Run(MakeQuery("q1", "book(title,author)")).ok());
    std::vector<service::MatchRequest> batch;
    batch.push_back(MakeQuery("b0", "order(item,customer)"));
    batch.push_back(MakeQuery("b1", "person(name,email)"));
    for (const auto& result : matcher->RunBatch(std::move(batch)).results) {
      ASSERT_TRUE(result.ok());
    }

    core::ExecutionControl cancelled;
    cancelled.cancel.Cancel();
    auto stopped = matcher->Run(MakeQuery("c", "person(name)"), cancelled);
    ASSERT_TRUE(stopped.ok());
    EXPECT_EQ(stopped->result.execution, core::ExecutionStatus::kCancelled);

    core::ExecutionControl expired;
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    auto late = matcher->Run(MakeQuery("d", "person(name)"), expired);
    ASSERT_TRUE(late.ok());
    EXPECT_EQ(late->result.execution,
              core::ExecutionStatus::kDeadlineExceeded);

    live::DeltaBuilder builder;
    builder.AddTree(MakeTree("invoice(total,customer)"));
    auto delta = builder.Build();
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(matcher->ApplyDelta(*delta).ok());
    ASSERT_TRUE(matcher->Run(MakeQuery("q2", "invoice(total)")).ok());

    headers[backend] = FamilyHeaders(registry.RenderPrometheusText());
    stats[backend] = matcher->stats();
  }

  size_t shared_families = 0;
  for (const auto& [family, lines] : headers[0]) {
    auto other = headers[1].find(family);
    if (other == headers[1].end()) continue;
    ++shared_families;
    EXPECT_EQ(lines, other->second) << family;
  }
  // Every unsharded family is also a sharded one.
  EXPECT_EQ(shared_families, headers[0].size());

  EXPECT_EQ(stats[0].queries, 7u);
  EXPECT_EQ(stats[0].queries, stats[1].queries);
  EXPECT_EQ(stats[0].batches, stats[1].batches);
  EXPECT_EQ(stats[0].cancelled, stats[1].cancelled);
  EXPECT_EQ(stats[0].deadline_exceeded, stats[1].deadline_exceeded);
  EXPECT_EQ(stats[0].early_stopped, stats[1].early_stopped);
  EXPECT_EQ(stats[0].deltas_applied, stats[1].deltas_applied);
  EXPECT_EQ(stats[0].generation, stats[1].generation);
}

// --- serving through ServeSession ------------------------------------------

TEST(ShardedServiceTest, ServeSessionStreamsIdenticalMappingEvents) {
  schema::SchemaForest forest = MakeCorpus(700, 21);
  auto snapshot = service::RepositorySnapshot::Create(forest);
  ASSERT_TRUE(snapshot.ok());
  MatchService reference(std::move(*snapshot));
  auto sharded = MakeSharded(forest, 4);

  service::ServeSessionOptions session_options;
  service::ServeSession unsharded_session(&reference, session_options);
  service::ServeSession sharded_session(sharded.get(), session_options);

  const std::string line = "person(name,email) id=q1 delta=0.5 top=5";
  auto query_a = unsharded_session.ParseQuery(line, 0);
  auto query_b = sharded_session.ParseQuery(line, 0);
  ASSERT_TRUE(query_a.ok()) << query_a.status().ToString();
  ASSERT_TRUE(query_b.ok());

  std::vector<std::string> events_a;
  std::vector<std::string> events_b;
  auto run_a = unsharded_session.RunQuery(
      *query_a, [&](const std::string& e) { events_a.push_back(e); });
  auto run_b = sharded_session.RunQuery(
      *query_b, [&](const std::string& e) { events_b.push_back(e); });
  ASSERT_TRUE(run_a.ok());
  ASSERT_TRUE(run_b.ok());

  // Mapping events — content, Δ scores and running ranks — must agree
  // byte for byte once the wall-clock "ms" field is stripped.
  auto strip_ms = [](std::string e) {
    size_t begin = e.find(",\"ms\":");
    if (begin == std::string::npos) return e;
    size_t end = e.find_first_of(",}", begin + 6);
    e.erase(begin, end - begin);
    return e;
  };
  std::vector<std::string> mappings_a;
  std::vector<std::string> mappings_b;
  for (const std::string& e : events_a) {
    if (e.find("\"type\":\"mapping\"") != std::string::npos) {
      mappings_a.push_back(strip_ms(e));
    }
  }
  for (const std::string& e : events_b) {
    if (e.find("\"type\":\"mapping\"") != std::string::npos) {
      mappings_b.push_back(strip_ms(e));
    }
  }
  ASSERT_FALSE(mappings_a.empty());
  EXPECT_EQ(mappings_a, mappings_b);
}

// --- construction errors ---------------------------------------------------

TEST(ShardedServiceTest, ZeroShardsIsRefused) {
  schema::SchemaForest forest = MakeCorpus(120, 1);
  ShardedOptions shard_options;
  shard_options.num_shards = 0;
  auto sharded = ShardedMatchService::Create(forest, MatchServiceOptions(),
                                             shard_options);
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedServiceTest, ForeignPinIsRefused) {
  schema::SchemaForest forest = MakeCorpus(200, 2);
  auto snapshot = service::RepositorySnapshot::Create(forest);
  ASSERT_TRUE(snapshot.ok());
  MatchService reference(std::move(*snapshot));
  auto sharded = MakeSharded(forest, 2);

  // An unsharded pin cannot run on the sharded backend (and the failure is
  // typed, not a crash).
  auto result = sharded->RunOn(reference.Pin(),
                               MakeQuery("x", "person(name)"),
                               core::ExecutionControl());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xsm::shard
