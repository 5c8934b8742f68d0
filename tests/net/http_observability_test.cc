// Observability over the HTTP surface: GET /metrics serves Prometheus
// text covering the service, cache, HTTP and WAL families; /v1/stats
// carries the hardening counters (sheds by reason, drain save failures,
// WAL recovery tallies); and the server's stats() reads back from the
// same registry the scrape renders.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/tenant_registry.h"
#include "repo/synthetic.h"

namespace xsm::net {
namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr const char* kQueryLine =
    "person(name,phone) id=q1 delta=0.6 top=5";

schema::SchemaForest MakeForest() {
  repo::SyntheticRepoOptions options;
  options.target_elements = 1500;
  options.seed = 5;
  auto forest = repo::GenerateSyntheticRepository(options);
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

struct RunningServer {
  std::unique_ptr<TenantRegistry> registry;
  std::unique_ptr<HttpServer> server;
};

RunningServer StartServer() {
  TenantRegistryOptions registry_options;
  registry_options.service.num_threads = 2;
  RunningServer running;
  running.registry =
      std::make_unique<TenantRegistry>(std::move(registry_options));
  auto tenant = running.registry->Create("t1", MakeForest());
  EXPECT_TRUE(tenant.ok()) << tenant.status().ToString();
  running.server = std::make_unique<HttpServer>(running.registry.get(),
                                                HttpServerOptions());
  Status status = running.server->StartBackground();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return running;
}

TEST(HttpObservabilityTest, MetricsEndpointServesExposition) {
  auto running = StartServer();
  uint16_t port = running.server->port();

  // Run one query so the service families have non-zero samples.
  auto match = FetchOnce(kHost, port, "POST", "/v1/tenants/t1/match",
                         kQueryLine);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->status_code, 200);

  auto metrics = FetchOnce(kHost, port, "GET", "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status_code, 200);
  ASSERT_NE(metrics->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*metrics->FindHeader("content-type"),
            "text/plain; version=0.0.4");

  const std::string& text = metrics->body;
  // Service + cache families, labeled by tenant.
  EXPECT_NE(text.find("# TYPE xsm_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("xsm_queries_total{tenant=\"t1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("xsm_cluster_cache_misses_total{tenant=\"t1\"}"),
            std::string::npos);
  // No delta yet, so no build could carry a predecessor's matching.
  EXPECT_NE(text.find("# TYPE xsm_element_matching_reused_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("xsm_element_matching_reused_total{tenant=\"t1\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xsm_query_duration_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("xsm_query_duration_ms_bucket{tenant=\"t1\",le=\"+Inf\"} 1"),
            std::string::npos);
  // Live/WAL durability families registered per tenant.
  EXPECT_NE(text.find("xsm_wal_appends_total{tenant=\"t1\"} 0"),
            std::string::npos);
  // Registry-wide WAL recovery + tenants series.
  EXPECT_NE(text.find("xsm_wal_recoveries_total 0"), std::string::npos);
  EXPECT_NE(text.find("xsm_tenants 1"), std::string::npos);
  // HTTP server families on the same surface; the /metrics request
  // itself has already been routed, so requests >= 2.
  EXPECT_NE(text.find("xsm_http_requests_total"), std::string::npos);
  EXPECT_NE(text.find("xsm_http_requests_shed_total{reason=\"capacity\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("xsm_http_request_duration_ms_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("xsm_http_inflight 0"), std::string::npos);

  // Wrong method is a typed 405, not a crash.
  auto post = FetchOnce(kHost, port, "POST", "/metrics");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status_code, 405);

  running.server->RequestShutdown();
}

TEST(HttpObservabilityTest, ServerStatsCarriesHardeningCounters) {
  auto running = StartServer();
  uint16_t port = running.server->port();

  auto stats = FetchOnce(kHost, port, "GET", "/v1/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status_code, 200);
  const std::string& body = stats->body;
  EXPECT_NE(body.find("\"type\":\"server_stats\""), std::string::npos);
  // The PR-6..8 hardening counters, previously missing from /v1/stats.
  EXPECT_NE(body.find("\"sheds\":{\"capacity\":0}"), std::string::npos);
  EXPECT_NE(body.find("\"drain_save_failures\":0"), std::string::npos);
  EXPECT_NE(body.find("\"wal\":{\"recoveries\":0,\"records_replayed\":0,"
                      "\"records_skipped\":0,\"torn_tail_truncations\":0}"),
            std::string::npos);

  // stats() and the JSON read from the same registry handles.
  HttpServerStats server_stats = running.server->stats();
  EXPECT_EQ(server_stats.requests_shed, 0u);
  EXPECT_GE(server_stats.requests, 1u);
  EXPECT_EQ(running.registry->metrics().CounterValue(
                "xsm_http_requests_total"),
            server_stats.requests);

  // Tenant stats expose the registry-backed WAL/service counters too.
  auto tenant_stats = FetchOnce(kHost, port, "GET", "/v1/tenants/t1/stats");
  ASSERT_TRUE(tenant_stats.ok());
  EXPECT_NE(tenant_stats->body.find("\"slow_queries\":0"),
            std::string::npos);
  EXPECT_NE(tenant_stats->body.find("\"wal_appends\":0"),
            std::string::npos);

  running.server->RequestShutdown();
}

TEST(HttpObservabilityTest, TraceEventsOverHttpWhenEnabled) {
  TenantRegistryOptions registry_options;
  registry_options.service.num_threads = 2;
  registry_options.session.trace_events = true;
  RunningServer running;
  running.registry =
      std::make_unique<TenantRegistry>(std::move(registry_options));
  auto tenant = running.registry->Create("t1", MakeForest());
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  running.server = std::make_unique<HttpServer>(running.registry.get(),
                                                HttpServerOptions());
  ASSERT_TRUE(running.server->StartBackground().ok());
  uint16_t port = running.server->port();

  auto match = FetchOnce(kHost, port, "POST", "/v1/tenants/t1/match",
                         kQueryLine);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->status_code, 200);
  EXPECT_NE(match->body.find("\"type\":\"trace\",\"id\":\"q1\""),
            std::string::npos);
  EXPECT_NE(match->body.find("\"name\":\"cluster_cache\""),
            std::string::npos);
  EXPECT_NE(match->body.find("\"name\":\"queue_wait\""), std::string::npos);

  // After a one-tree delta the same query misses the cache, and its
  // element_match span says the matching was carried, not recomputed.
  auto ingest = FetchOnce(kHost, port, "POST", "/v1/tenants/t1/ingest",
                          "!replace 0 invoice(total,customer(name))\n");
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  EXPECT_EQ(ingest->status_code, 200) << ingest->body;
  auto carried = FetchOnce(kHost, port, "POST", "/v1/tenants/t1/match",
                           kQueryLine);
  ASSERT_TRUE(carried.ok()) << carried.status().ToString();
  EXPECT_EQ(carried->status_code, 200);
  EXPECT_NE(carried->body.find("\"note\":\"miss\""), std::string::npos)
      << carried->body;
  EXPECT_NE(carried->body.find("\"note\":\"carried "), std::string::npos)
      << carried->body;
  auto metrics = FetchOnce(kHost, port, "GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find(
                "xsm_element_matching_reused_total{tenant=\"t1\"} 1"),
            std::string::npos);

  running.server->RequestShutdown();
}

}  // namespace
}  // namespace xsm::net
