#include "service/cluster_index_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

namespace xsm::service {
namespace {

// A distinguishable empty state: tag it through the matching-time field.
Result<core::ClusterState> MakeState(double tag) {
  core::ClusterState state;
  state.time_matching_seconds = tag;
  return state;
}

TEST(ClusterIndexCacheTest, MissComputesThenHitReturnsSameObject) {
  ClusterIndexCache cache(4);
  int calls = 0;
  auto factory = [&calls]() {
    ++calls;
    return MakeState(1.0);
  };

  auto first = cache.GetOrCompute("k", factory);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrCompute("k", factory);
  ASSERT_TRUE(second.ok());

  EXPECT_EQ(calls, 1);
  EXPECT_EQ(first->get(), second->get());  // literally the same state
  ClusterIndexCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ClusterIndexCacheTest, ConcurrentSameKeyRunsFactoryOnce) {
  ClusterIndexCache cache(4);
  std::atomic<int> calls{0};
  auto factory = [&calls]() {
    calls.fetch_add(1);
    // Give waiters time to pile onto the in-flight slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return MakeState(2.0);
  };

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&]() {
      auto result = cache.GetOrCompute("shared-key", factory);
      if (!result.ok() || (*result)->time_matching_seconds != 2.0) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(failures.load(), 0);
  ClusterIndexCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.shared, static_cast<uint64_t>(kThreads - 1));
}

TEST(ClusterIndexCacheTest, FailedFactoryIsNotCachedAndRetries) {
  ClusterIndexCache cache(4);
  int calls = 0;
  auto failing = [&calls]() -> Result<core::ClusterState> {
    ++calls;
    return Status::Internal("boom");
  };

  auto first = cache.GetOrCompute("k", failing);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInternal);

  // The failure left no entry: the next call runs the factory again.
  auto second = cache.GetOrCompute("k", [&calls]() {
    ++calls;
    return MakeState(3.0);
  });
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ClusterIndexCacheTest, LruEvictsLeastRecentlyUsed) {
  ClusterIndexCache cache(2);
  int calls = 0;
  auto factory = [&calls]() {
    ++calls;
    return MakeState(4.0);
  };

  ASSERT_TRUE(cache.GetOrCompute("a", factory).ok());  // miss: {a}
  ASSERT_TRUE(cache.GetOrCompute("b", factory).ok());  // miss: {b, a}
  ASSERT_TRUE(cache.GetOrCompute("a", factory).ok());  // hit:  {a, b}
  ASSERT_TRUE(cache.GetOrCompute("c", factory).ok());  // miss: {c, a}, b out
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(cache.stats().evictions, 1u);

  ASSERT_TRUE(cache.GetOrCompute("a", factory).ok());  // still resident
  EXPECT_EQ(calls, 3);
  ASSERT_TRUE(cache.GetOrCompute("b", factory).ok());  // evicted: recompute
  EXPECT_EQ(calls, 4);
}

TEST(ClusterIndexCacheTest, ZeroCapacityDisablesCaching) {
  ClusterIndexCache cache(0);
  int calls = 0;
  auto factory = [&calls]() {
    ++calls;
    return MakeState(5.0);
  };
  ASSERT_TRUE(cache.GetOrCompute("k", factory).ok());
  ASSERT_TRUE(cache.GetOrCompute("k", factory).ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ClusterIndexCacheTest, ClearDropsEntriesButKeepsHandedOutStates) {
  ClusterIndexCache cache(4);
  auto result = cache.GetOrCompute("k", []() { return MakeState(6.0); });
  ASSERT_TRUE(result.ok());
  ClusterStatePtr held = *result;

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(held->time_matching_seconds, 6.0);  // still alive

  int calls = 0;
  ASSERT_TRUE(cache.GetOrCompute("k", [&calls]() {
                     ++calls;
                     return MakeState(7.0);
                   }).ok());
  EXPECT_EQ(calls, 1);  // rebuilt after Clear
}

TEST(ClusterIndexCacheTest, PeekReadyCountsNothingAndKeepsLruOrder) {
  ClusterIndexCache cache(2);
  ASSERT_TRUE(cache.GetOrCompute("a", []() { return MakeState(8.0); }).ok());
  ASSERT_TRUE(cache.GetOrCompute("b", []() { return MakeState(9.0); }).ok());
  const ClusterIndexCache::Stats before = cache.stats();

  // "a" is least recently used; peeking it must not promote it.
  ClusterStatePtr peeked = cache.PeekReady("a");
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(peeked->time_matching_seconds, 8.0);
  EXPECT_EQ(cache.PeekReady("absent"), nullptr);
  const ClusterIndexCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.shared, before.shared);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(cache.PeekReady("absent"), nullptr);  // still no entry made

  // A third key evicts the least recently used entry: still "a".
  ASSERT_TRUE(cache.GetOrCompute("c", []() { return MakeState(10.0); }).ok());
  EXPECT_EQ(cache.PeekReady("a"), nullptr);
  EXPECT_NE(cache.PeekReady("b"), nullptr);
  EXPECT_EQ(peeked->time_matching_seconds, 8.0);  // the handle stays alive
}

TEST(ClusterIndexCacheTest, PeekReadyIgnoresAnEntryStillBeingBuilt) {
  ClusterIndexCache cache(4);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread builder([&]() {
    ASSERT_TRUE(cache.GetOrCompute("k", [&]() {
                       started.set_value();
                       released.wait();
                       return MakeState(11.0);
                     }).ok());
  });
  started.get_future().wait();
  EXPECT_EQ(cache.PeekReady("k"), nullptr);
  EXPECT_EQ(cache.stats().shared, 0u);
  release.set_value();
  builder.join();
  ClusterStatePtr ready = cache.PeekReady("k");
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->time_matching_seconds, 11.0);
}

TEST(ClusterCacheSetTest, PeekReadyFindsRetainedNamespacesOnly) {
  ClusterCacheSet set(4);
  set.Publish(1);
  ASSERT_TRUE(
      set.Get(1)->GetOrCompute("k", []() { return MakeState(12.0); }).ok());
  set.Publish(2);  // namespace 1 is retained beside the current one

  ClusterStatePtr retained = set.PeekReady(1, "k");
  ASSERT_NE(retained, nullptr);
  EXPECT_EQ(retained->time_matching_seconds, 12.0);
  EXPECT_EQ(set.PeekReady(1, "other"), nullptr);
  EXPECT_EQ(set.PeekReady(2, "k"), nullptr);
  EXPECT_EQ(set.PeekReady(99, "k"), nullptr);  // unknown namespace
  EXPECT_EQ(set.namespaces(), 2u);             // the peeks created none
  const ClusterIndexCache::Stats stats = set.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  set.Publish(3);  // retires namespace 1
  EXPECT_EQ(set.PeekReady(1, "k"), nullptr);
  EXPECT_EQ(set.namespaces(), 2u);
}

TEST(ClusterCacheSetTest, PeekReadyWithZeroCapacityFindsNothing) {
  ClusterCacheSet set(0);
  set.Publish(1);
  ASSERT_TRUE(
      set.Get(1)->GetOrCompute("k", []() { return MakeState(13.0); }).ok());
  set.Publish(2);
  EXPECT_EQ(set.PeekReady(1, "k"), nullptr);
}

}  // namespace
}  // namespace xsm::service
