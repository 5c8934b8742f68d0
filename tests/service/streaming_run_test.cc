// Streaming / anytime MatchService execution: RunOn with an observer,
// cancellable Submit handles, the default per-query deadline, and the
// acceptance stress test that cancellation can never poison the
// ClusterIndexCache.
#include "service/match_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "core/match_observer.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"

namespace xsm::service {
namespace {

class CollectingObserver : public core::MatchObserver {
 public:
  void OnMapping(const generate::SchemaMapping& mapping,
                 size_t running_rank) override {
    (void)running_rank;
    mappings.push_back(mapping);
    if (cancel_after_first_mapping) cancel_after_first_mapping->Cancel();
  }

  std::vector<generate::SchemaMapping> mappings;
  const core::CancelToken* cancel_after_first_mapping = nullptr;
};

class StreamingRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo::SyntheticRepoOptions options;
    options.target_elements = 2000;
    options.seed = 7;
    auto forest = repo::GenerateSyntheticRepository(options);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    forest_ = new schema::SchemaForest(std::move(*forest));
  }

  static void TearDownTestSuite() {
    delete forest_;
    forest_ = nullptr;
  }

  static MatchRequest MakeQuery(const std::string& id,
                              const char* spec = "name(address,email)") {
    MatchRequest query;
    query.id = id;
    auto personal = schema::ParseTreeSpec(spec);
    EXPECT_TRUE(personal.ok()) << personal.status().ToString();
    query.personal = std::move(*personal);
    query.options.delta = 0.6;
    return query;
  }

  static std::unique_ptr<MatchService> MakeService(
      MatchServiceOptions options = MatchServiceOptions()) {
    auto snapshot = RepositorySnapshot::Create(*forest_);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    return std::make_unique<MatchService>(std::move(*snapshot), options);
  }

  static void ExpectSameResults(const core::MatchResult& got,
                                const core::MatchResult& want) {
    ASSERT_EQ(got.mappings.size(), want.mappings.size());
    for (size_t i = 0; i < got.mappings.size(); ++i) {
      EXPECT_EQ(got.mappings[i].tree, want.mappings[i].tree) << i;
      EXPECT_EQ(got.mappings[i].images, want.mappings[i].images) << i;
      EXPECT_EQ(got.mappings[i].delta, want.mappings[i].delta) << i;
      EXPECT_EQ(got.mappings[i].delta_sim, want.mappings[i].delta_sim) << i;
      EXPECT_EQ(got.mappings[i].delta_path, want.mappings[i].delta_path)
          << i;
    }
  }

  static schema::SchemaForest* forest_;
};

schema::SchemaForest* StreamingRunTest::forest_ = nullptr;

TEST_F(StreamingRunTest, StreamingEqualsBlockingMatch) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("stream");

  auto blocking = service->Run(query);
  ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
  ASSERT_FALSE(blocking->result.mappings.empty());

  CollectingObserver observer;
  auto streaming = service->RunOn(service->Pin(), query,
                                  core::ExecutionControl(), &observer);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  EXPECT_EQ(streaming->execution, core::ExecutionStatus::kCompleted);
  ExpectSameResults(*streaming, blocking->result);
  EXPECT_EQ(observer.mappings.size(), blocking->result.mappings.size());
}

TEST_F(StreamingRunTest, HandleCancelBeforeExecutionSkipsAllWork) {
  MatchServiceOptions options;
  options.num_threads = 1;
  auto service = MakeService(options);

  // Hold the single worker hostage so the submitted query stays queued.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocker_running = false;
  service->pool().Schedule([&]() {
    std::unique_lock<std::mutex> lock(mu);
    blocker_running = true;
    cv.notify_all();
    cv.wait(lock, [&]() { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return blocker_running; });
  }

  MatchHandle handle = service->Submit(service->Pin(), MakeQuery("queued"));
  handle.Cancel();  // lands while the query is still in the queue
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  auto result = handle.Get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->execution, core::ExecutionStatus::kCancelled);
  EXPECT_TRUE(result->mappings.empty());
  // The pre-execution check fired: no cluster-state build, nothing cached.
  EXPECT_EQ(service->stats().cache.misses, 0u);
  EXPECT_EQ(service->stats().cache.entries, 0u);
  EXPECT_EQ(service->stats().cancelled, 1u);
}

TEST_F(StreamingRunTest, CancelMidGenerationReturnsPartialResults) {
  auto service = MakeService();
  MatchRequest query = MakeQuery("midrun");

  auto blocking = service->Run(query);
  ASSERT_TRUE(blocking.ok());
  ASSERT_GT(blocking->result.mappings.size(), 1u);

  core::ExecutionControl control;
  CollectingObserver observer;
  observer.cancel_after_first_mapping = &control.cancel;
  auto result = service->RunOn(service->Pin(), query, control, &observer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->execution, core::ExecutionStatus::kCancelled);
  EXPECT_GE(result->mappings.size(), 1u);
  EXPECT_LT(result->mappings.size(), blocking->result.mappings.size());

  // The cancelled query's cluster state was cached fully built: the next
  // (uncancelled) identical query hits the cache and reproduces the
  // blocking result byte-for-byte.
  uint64_t hits_before = service->stats().cache.hits;
  auto again = service->Run(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result.execution, core::ExecutionStatus::kCompleted);
  ExpectSameResults(again->result, blocking->result);
  EXPECT_GT(service->stats().cache.hits, hits_before);
}

TEST_F(StreamingRunTest, DefaultDeadlineExpiresQueries) {
  MatchServiceOptions options;
  options.default_deadline_seconds = 1e-9;  // expires immediately
  auto service = MakeService(options);

  auto outcome = service->Run(MakeQuery("expired"));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->result.execution,
            core::ExecutionStatus::kDeadlineExceeded);
  EXPECT_TRUE(outcome->result.mappings.empty());
  EXPECT_EQ(service->stats().deadline_exceeded, 1u);

  // A caller-supplied deadline wins over the service default.
  auto generous = service->Run(MakeQuery("generous"),
                                 core::ExecutionControl::WithDeadline(3600));
  ASSERT_TRUE(generous.ok());
  EXPECT_EQ(generous->result.execution, core::ExecutionStatus::kCompleted);
  EXPECT_FALSE(generous->result.mappings.empty());
}

TEST_F(StreamingRunTest, EarlyStopCountsInServiceStats) {
  auto service = MakeService();
  core::ExecutionControl control;
  control.stop_after_n_mappings = 1;
  auto outcome = service->Run(MakeQuery("first1"), control);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.execution, core::ExecutionStatus::kEarlyStopped);
  EXPECT_EQ(outcome->result.mappings.size(), 1u);
  EXPECT_EQ(service->stats().early_stopped, 1u);
}

// Acceptance criterion: a concurrent cancellation stress run leaves no
// half-built ClusterIndexCache entries — every subsequent hit reproduces
// the uncancelled result.
TEST_F(StreamingRunTest, CancellationStressNeverPoisonsCache) {
  MatchServiceOptions options;
  options.num_threads = 4;
  auto service = MakeService(options);
  MatchRequest query = MakeQuery("stress");

  auto reference = service->Run(query);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->result.mappings.empty());

  constexpr int kRounds = 8;
  constexpr int kConcurrent = 8;
  for (int round = 0; round < kRounds; ++round) {
    service->ClearCache();  // force a fresh build raced by cancellations
    std::vector<MatchHandle> handles;
    handles.reserve(kConcurrent);
    for (int i = 0; i < kConcurrent; ++i) {
      handles.push_back(service->Submit(service->Pin(), query));
    }
    // Cancel every other query while the shared build / generation runs.
    for (int i = 0; i < kConcurrent; i += 2) {
      handles[static_cast<size_t>(i)].Cancel();
    }
    for (int i = 0; i < kConcurrent; ++i) {
      auto result = handles[static_cast<size_t>(i)].Get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (i % 2 == 1) {
        // Never cancelled: must be the full, exact result.
        ASSERT_EQ(result->execution, core::ExecutionStatus::kCompleted);
        ExpectSameResults(*result, reference->result);
      } else {
        // Cancelled: completed (cancel lost the race) with the full result,
        // or cut short with a subset — never an error, never garbage.
        if (result->execution == core::ExecutionStatus::kCompleted) {
          ExpectSameResults(*result, reference->result);
        } else {
          EXPECT_EQ(result->execution, core::ExecutionStatus::kCancelled);
          EXPECT_LE(result->mappings.size(), reference->result.mappings.size());
        }
      }
    }
    // Whatever the interleaving, the cache entry (if present) is fully
    // built: a fresh query must hit or rebuild to the exact result.
    auto after = service->Run(query);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->result.execution, core::ExecutionStatus::kCompleted);
    ExpectSameResults(after->result, reference->result);
  }
}

}  // namespace
}  // namespace xsm::service
