// Service load harness: drives xsm::net's HTTP front-end with many
// concurrent keep-alive connections and reports end-to-end request
// latency quantiles (exact nearest-rank p50/p95/p99, per-thread
// QuantileAccumulators merged at the end).
//
// Two phases, each against its own in-process server:
//
//   sustained — `connections` keep-alive connections are all established
//     before the first request, then driver threads issue streamed match
//     queries over every connection. Shedding is disabled; the gate is
//     zero failed requests while ≥ 1000 connections (full mode) are open
//     at once.
//
//   overload — a deliberately tiny admission cap (max_inflight) with a
//     per-query default deadline. Drivers hammer one-shot requests far
//     past the cap: shed requests must come back as typed NDJSON 503s
//     ("code":"unavailable", retryable), accepted requests must keep
//     completing within the deadline budget (the soft→hard band tightens
//     their deadlines rather than queueing them to death).
//
// Emits BENCH_service_load.json for the CI regression tripwire
// (headline: sustained_qps; correctness: zero_failed, shed_all_typed).
//
// Usage: bench_service_load [--smoke] [--no-timing-gate] [--out PATH]
//   --smoke           small corpus / 64 connections (CI per-commit lane)
//   --no-timing-gate  report the deadline verdict but never fail on it
//                     (sanitizer builds distort wall-clock)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "experiment_common.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/tenant_registry.h"
#include "repo/synthetic.h"
#include "util/histogram.h"
#include "util/timer.h"

namespace xsm {
namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr const char* kTenant = "bench";

const char* kSpecs[] = {
    "person(name,phone)",
    "name(address,email)",
    "book(title,author)",
    "customer(name,address(city,zip))",
};
constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);

struct PhaseResult {
  uint64_t requests = 0;
  uint64_t accepted = 0;   ///< HTTP 200 with a terminal done event
  uint64_t shed = 0;       ///< HTTP 503
  uint64_t shed_typed = 0; ///< 503s whose body is the typed NDJSON error
  uint64_t failed = 0;     ///< anything else (transport error, bad body)
  double seconds = 0;
  QuantileAccumulator latency_ms;          ///< all completed requests
  QuantileAccumulator accepted_latency_ms; ///< 200s only
};

std::string QueryLine(size_t conn, size_t round) {
  const char* spec = kSpecs[(conn + round) % kNumSpecs];
  return std::string(spec) + " id=c" + std::to_string(conn) + "r" +
         std::to_string(round) + " delta=0.75 top=5";
}

bool LooksCompleted(const std::string& body) {
  return body.find("\"type\":\"done\"") != std::string::npos;
}

bool LooksTypedShed(const std::string& body) {
  return body.find("\"type\":\"error\"") != std::string::npos &&
         body.find("\"code\":\"unavailable\"") != std::string::npos &&
         body.find("\"retryable\":true") != std::string::npos;
}

std::unique_ptr<net::TenantRegistry> MakeRegistry(
    const schema::SchemaForest& forest, double deadline_seconds) {
  net::TenantRegistryOptions options;
  options.service.default_deadline_seconds = deadline_seconds;
  auto registry = std::make_unique<net::TenantRegistry>(options);
  auto tenant = registry->Create(kTenant, forest);
  if (!tenant.ok()) {
    std::fprintf(stderr, "tenant create failed: %s\n",
                 tenant.status().ToString().c_str());
    std::exit(2);
  }
  return registry;
}

/// Phase 1: all `num_connections` connections open simultaneously, then
/// `num_drivers` threads sweep them with `rounds` keep-alive match
/// requests each.
PhaseResult RunSustained(uint16_t port, size_t num_connections,
                         size_t num_drivers, size_t rounds) {
  std::vector<net::HttpClient> clients(num_connections);
  for (size_t i = 0; i < num_connections; ++i) {
    Status status = clients[i].Connect(kHost, port);
    if (!status.ok()) {
      std::fprintf(stderr, "connect %zu/%zu failed: %s\n", i,
                   num_connections, status.ToString().c_str());
      std::exit(2);
    }
  }

  PhaseResult result;
  std::vector<QuantileAccumulator> latencies(num_drivers);
  std::vector<uint64_t> failures(num_drivers, 0);
  std::vector<uint64_t> counts(num_drivers, 0);

  Timer timer;
  std::vector<std::thread> drivers;
  for (size_t d = 0; d < num_drivers; ++d) {
    drivers.emplace_back([&, d] {
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t i = d; i < num_connections; i += num_drivers) {
          const std::string query = QueryLine(i, round);
          Timer request_timer;
          auto response = clients[i].Fetch(
              "POST", std::string("/v1/tenants/") + kTenant + "/match",
              query);
          const double ms = 1e3 * request_timer.ElapsedSeconds();
          ++counts[d];
          if (!response.ok() || response->status_code != 200 ||
              !LooksCompleted(response->body)) {
            ++failures[d];
            continue;
          }
          latencies[d].Add(ms);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  result.seconds = timer.ElapsedSeconds();

  for (size_t d = 0; d < num_drivers; ++d) {
    result.requests += counts[d];
    result.failed += failures[d];
    result.latency_ms.Merge(latencies[d]);
  }
  result.accepted = result.requests - result.failed;
  return result;
}

/// Phase 2: `num_drivers` threads each fire `per_driver` one-shot
/// requests at a server whose admission cap is far below the offered
/// concurrency. The query is deliberately heavy so accepted requests
/// lean on the deadline (anytime contract) instead of finishing early.
PhaseResult RunOverload(uint16_t port, size_t num_drivers,
                        size_t per_driver) {
  PhaseResult result;
  std::mutex mu;

  Timer timer;
  std::vector<std::thread> drivers;
  for (size_t d = 0; d < num_drivers; ++d) {
    drivers.emplace_back([&, d] {
      for (size_t r = 0; r < per_driver; ++r) {
        // Heavy on CPU (tiny element threshold explodes the candidate
        // space) but light on emission (high δ keeps the stream small) —
        // the accepted request must hold its admission slot until the
        // deadline without ballooning the response body.
        const std::string query =
            "person(name,phone) id=o" + std::to_string(d) + "r" +
            std::to_string(r) +
            " delta=0.95 threshold=0.05 top=5";
        Timer request_timer;
        auto response = net::FetchOnce(
            kHost, port, "POST",
            std::string("/v1/tenants/") + kTenant + "/match", query);
        const double ms = 1e3 * request_timer.ElapsedSeconds();

        std::lock_guard<std::mutex> lock(mu);
        ++result.requests;
        if (!response.ok()) {
          if (++result.failed <= 5) {
            std::fprintf(stderr, "overload transport failure: %s\n",
                         response.status().ToString().c_str());
          }
          continue;
        }
        result.latency_ms.Add(ms);
        if (response->status_code == 503) {
          ++result.shed;
          if (LooksTypedShed(response->body)) ++result.shed_typed;
        } else if (response->status_code == 200 &&
                   LooksCompleted(response->body)) {
          ++result.accepted;
          result.accepted_latency_ms.Add(ms);
        } else {
          if (++result.failed <= 5) {
            std::fprintf(stderr, "overload bad response: code=%d body=%.*s\n",
                         response->status_code,
                         static_cast<int>(
                             std::min<size_t>(response->body.size(), 160)),
                         response->body.c_str());
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace
}  // namespace xsm

int main(int argc, char** argv) {
  using namespace xsm;

  bool smoke = false;
  bool timing_gate = true;
  std::string out_path = "BENCH_service_load.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-timing-gate") == 0) {
      timing_gate = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_service_load [--smoke] [--no-timing-gate] "
                   "[--out PATH]\n");
      return 2;
    }
  }

  const size_t elements = smoke ? 600 : 3000;
  const size_t connections = smoke ? 64 : 1000;
  const size_t drivers = smoke ? 4 : 8;
  const size_t rounds = 2;
  const double overload_deadline = smoke ? 0.3 : 1.0;
  const size_t overload_drivers = smoke ? 12 : 24;
  const size_t overload_per_driver = smoke ? 3 : 4;

  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = elements;
  repo_options.seed = bench::kExperimentSeed;
  auto forest = repo::GenerateSyntheticRepository(repo_options);
  if (!forest.ok()) {
    std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
    return 2;
  }

  std::printf("service load (%s): %zu elements / %zu trees, "
              "%zu connections x %zu rounds, %zu drivers\n\n",
              smoke ? "smoke" : "full", forest->total_nodes(),
              forest->num_trees(), connections, rounds, drivers);

  // --- phase 1: sustained ---------------------------------------------------
  PhaseResult sustained;
  {
    auto registry = MakeRegistry(*forest, /*deadline_seconds=*/0);
    net::HttpServerOptions options;
    options.num_workers = 8;
    options.admission.max_inflight = 0;  // shedding off: every request counts
    options.max_connections = connections + 16;
    net::HttpServer server(registry.get(), options);
    Status status = server.StartBackground();
    if (!status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    sustained = RunSustained(server.port(), connections, drivers, rounds);
    server.RequestShutdown();
  }
  const double sustained_qps =
      sustained.seconds > 0
          ? static_cast<double>(sustained.requests - sustained.failed) /
                sustained.seconds
          : 0;
  std::printf("sustained: %llu requests over %zu connections in %.2fs "
              "(%.1f qps), %llu failed\n",
              static_cast<unsigned long long>(sustained.requests),
              connections, sustained.seconds, sustained_qps,
              static_cast<unsigned long long>(sustained.failed));
  std::printf("  latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  "
              "(min %.2f, max %.2f)\n\n",
              sustained.latency_ms.P50(), sustained.latency_ms.P95(),
              sustained.latency_ms.P99(), sustained.latency_ms.min(),
              sustained.latency_ms.max());

  // --- phase 2: overload ----------------------------------------------------
  PhaseResult overload;
  uint64_t server_shed = 0;
  {
    auto registry = MakeRegistry(*forest, overload_deadline);
    net::HttpServerOptions options;
    options.num_workers = 16;
    options.admission.max_inflight = 4;
    options.admission.soft_inflight = 2;
    net::HttpServer server(registry.get(), options);
    Status status = server.StartBackground();
    if (!status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    overload =
        RunOverload(server.port(), overload_drivers, overload_per_driver);
    server_shed = server.stats().requests_shed;
    server.RequestShutdown();
  }
  // Accepted requests ride the (possibly tightened) default deadline; the
  // budget allows the full deadline plus scheduling/streaming slack.
  const double deadline_budget_ms = 1e3 * overload_deadline + 2000.0;
  const double p99_accepted = overload.accepted_latency_ms.P99();
  const bool zero_failed = sustained.failed == 0 && overload.failed == 0;
  const bool shed_all_typed =
      overload.shed > 0 && overload.shed_typed == overload.shed;
  const bool deadlines_met =
      overload.accepted > 0 && p99_accepted <= deadline_budget_ms;

  std::printf("overload: %llu requests (%zu drivers vs cap 4): "
              "%llu accepted, %llu shed (%llu typed, server counted %llu), "
              "%llu failed\n",
              static_cast<unsigned long long>(overload.requests),
              overload_drivers,
              static_cast<unsigned long long>(overload.accepted),
              static_cast<unsigned long long>(overload.shed),
              static_cast<unsigned long long>(overload.shed_typed),
              static_cast<unsigned long long>(server_shed),
              static_cast<unsigned long long>(overload.failed));
  std::printf("  accepted p99 %.2f ms against budget %.0f ms "
              "(deadline %.1fs)%s\n\n",
              p99_accepted, deadline_budget_ms, overload_deadline,
              timing_gate ? "" : "  [timing gate off]");

  std::printf("verdicts: zero_failed=%s shed_all_typed=%s "
              "deadlines_met=%s\n",
              zero_failed ? "yes" : "NO", shed_all_typed ? "yes" : "NO",
              deadlines_met ? "yes" : "NO");

  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"service_load\",\n"
      "  \"mode\": \"%s\",\n"
      "  \"elements\": %zu,\n"
      "  \"connections\": %zu,\n"
      "  \"sustained\": {\"requests\": %llu, \"failed\": %llu, "
      "\"seconds\": %.3f, \"qps\": %.2f, \"p50_ms\": %.3f, "
      "\"p95_ms\": %.3f, \"p99_ms\": %.3f},\n"
      "  \"overload\": {\"requests\": %llu, \"accepted\": %llu, "
      "\"shed\": %llu, \"shed_typed\": %llu, \"failed\": %llu, "
      "\"deadline_seconds\": %.2f, \"p99_accepted_ms\": %.3f, "
      "\"deadline_budget_ms\": %.1f},\n"
      "  \"sustained_qps\": %.2f,\n"
      "  \"p99_ms_under_shedding\": %.3f,\n"
      "  \"zero_failed\": %s,\n"
      "  \"shed_all_typed\": %s,\n"
      "  \"deadlines_met\": %s,\n"
      "  \"timing_gate\": %s\n"
      "}\n",
      smoke ? "smoke" : "full", elements, connections,
      static_cast<unsigned long long>(sustained.requests),
      static_cast<unsigned long long>(sustained.failed), sustained.seconds,
      sustained_qps, sustained.latency_ms.P50(), sustained.latency_ms.P95(),
      sustained.latency_ms.P99(),
      static_cast<unsigned long long>(overload.requests),
      static_cast<unsigned long long>(overload.accepted),
      static_cast<unsigned long long>(overload.shed),
      static_cast<unsigned long long>(overload.shed_typed),
      static_cast<unsigned long long>(overload.failed), overload_deadline,
      p99_accepted, deadline_budget_ms, sustained_qps, p99_accepted,
      zero_failed ? "true" : "false", shed_all_typed ? "true" : "false",
      deadlines_met ? "true" : "false", timing_gate ? "true" : "false");

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(buf, 1, std::strlen(buf), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }

  if (!zero_failed || !shed_all_typed) return 1;
  if (timing_gate && !deadlines_met) return 1;
  return 0;
}
