// End-to-end tests for the xsm::net HTTP front end: event-identity with
// the in-process ServeSession, tenant lifecycle over REST, graceful drain
// with warm restart resuming the generation chain, mid-stream client
// disconnect mapping to query cancellation, admission shedding, and
// hostile bytes arriving over a real socket.
#include "net/http_server.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/http_client.h"
#include "net/tenant_registry.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "service/serve_session.h"

namespace xsm::net {
namespace {

namespace fs = std::filesystem;

constexpr const char* kHost = "127.0.0.1";

// The serve/batch query grammar lines used across the tests.
constexpr const char* kQueryLine =
    "person(name,phone) id=q1 delta=0.6 top=5";
constexpr const char* kBatchBody =
    "person(name,phone) id=b1 delta=0.6 top=3\n"
    "book(title,author) id=b2 delta=0.6 top=3\n";

std::vector<std::string> SplitLines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Wall-clock fields differ run to run; everything else must match exactly.
std::string NormalizeMs(const std::string& line) {
  static const std::regex kMs("\"ms\":[0-9.eE+-]+");
  return std::regex_replace(line, kMs, "\"ms\":0");
}

std::vector<std::string> NormalizeAll(std::vector<std::string> lines) {
  for (std::string& line : lines) line = NormalizeMs(line);
  return lines;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_http_test_" + tag + "_" +
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

class HttpServerTest : public ::testing::Test {
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

  static TenantRegistryOptions RegistryOptions() {
    TenantRegistryOptions options;
    options.service.num_threads = 2;
    return options;
  }

  // Registry with one tenant "t1" over a copy of the shared forest.
  static std::unique_ptr<TenantRegistry> MakeRegistry(
      TenantRegistryOptions options = RegistryOptions()) {
    auto registry = std::make_unique<TenantRegistry>(std::move(options));
    auto tenant = registry->Create("t1", *forest_);
    EXPECT_TRUE(tenant.ok()) << tenant.status().ToString();
    return registry;
  }

  static schema::SchemaForest* forest_;
};

schema::SchemaForest* HttpServerTest::forest_ = nullptr;

struct RunningServer {
  std::unique_ptr<TenantRegistry> registry;
  std::unique_ptr<HttpServer> server;
};

RunningServer StartServer(std::unique_ptr<TenantRegistry> registry,
                          HttpServerOptions options = HttpServerOptions()) {
  RunningServer running;
  running.registry = std::move(registry);
  running.server =
      std::make_unique<HttpServer>(running.registry.get(), options);
  Status status = running.server->StartBackground();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return running;
}

// --- event identity --------------------------------------------------------

TEST_F(HttpServerTest, StreamedMatchIsEventIdenticalToInProcessRun) {
  auto running = StartServer(MakeRegistry());

  auto response = FetchOnce(kHost, running.server->port(), "POST",
                            "/v1/tenants/t1/match", kQueryLine);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  ASSERT_NE(response->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*response->FindHeader("content-type"), "application/x-ndjson");
  std::vector<std::string> http_events = SplitLines(response->body);
  ASSERT_FALSE(http_events.empty());

  // The same query against a fresh in-process service + session. Identical
  // forest, identical options, identical seeds — the events must be
  // byte-identical modulo wall-clock "ms" fields.
  TenantRegistryOptions options = RegistryOptions();
  auto service = service::MatchService::Create(*forest_, options.service);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  service::ServeSession session(service->get(), options.session);
  auto query = session.ParseQuery(kQueryLine, 0);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::vector<std::string> direct_events;
  auto result = session.RunQuery(
      *query, [&](const std::string& line) { direct_events.push_back(line); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(NormalizeAll(http_events), NormalizeAll(direct_events));
  // Terminal event is a completed "done".
  EXPECT_NE(http_events.back().find("\"type\":\"done\""), std::string::npos);
  EXPECT_NE(http_events.back().find("\"status\":\"completed\""),
            std::string::npos);

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, BatchMatchesInProcessBatch) {
  auto running = StartServer(MakeRegistry());

  auto response = FetchOnce(kHost, running.server->port(), "POST",
                            "/v1/tenants/t1/batch", kBatchBody);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  std::vector<std::string> http_events = SplitLines(response->body);

  TenantRegistryOptions options = RegistryOptions();
  auto service = service::MatchService::Create(*forest_, options.service);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  service::ServeSession session(service->get(), options.session);
  std::vector<service::MatchRequest> queries;
  size_t index = 0;
  for (const std::string& line : SplitLines(kBatchBody)) {
    auto query = session.ParseQuery(line, index++);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(std::move(*query));
  }
  std::vector<std::string> direct_events;
  session.RunBatch(queries, [&](const std::string& line) {
    direct_events.push_back(line);
  });

  // Batch interleaving is nondeterministic across pool threads, so compare
  // as sorted multisets — and verify the ordered tail contract (done
  // events arrive in input order) on the HTTP side directly.
  auto http_sorted = NormalizeAll(http_events);
  auto direct_sorted = NormalizeAll(direct_events);
  std::sort(http_sorted.begin(), http_sorted.end());
  std::sort(direct_sorted.begin(), direct_sorted.end());
  EXPECT_EQ(http_sorted, direct_sorted);
  ASSERT_GE(http_events.size(), 2u);
  EXPECT_NE(http_events[http_events.size() - 2].find("\"id\":\"b1\""),
            std::string::npos);
  EXPECT_NE(http_events.back().find("\"id\":\"b2\""), std::string::npos);

  running.server->RequestShutdown();
}

// --- REST lifecycle --------------------------------------------------------

TEST_F(HttpServerTest, HealthTenantsStatsEndpoints) {
  auto running = StartServer(MakeRegistry());
  uint16_t port = running.server->port();

  auto health = FetchOnce(kHost, port, "GET", "/v1/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_NE(health->body.find("\"type\":\"health\""), std::string::npos);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health->body.find("\"tenants\":1"), std::string::npos);

  // The retired pre-/v1 alias answers a typed 410 naming the new path.
  auto gone = FetchOnce(kHost, port, "GET", "/healthz");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->status_code, 410);
  EXPECT_NE(gone->body.find("\"code\":\"gone\""), std::string::npos);
  EXPECT_NE(gone->body.find("\"migrate_to\":\"/v1/healthz\""),
            std::string::npos);

  auto tenants = FetchOnce(kHost, port, "GET", "/v1/tenants");
  ASSERT_TRUE(tenants.ok());
  EXPECT_NE(tenants->body.find("\"type\":\"tenant\""), std::string::npos);
  EXPECT_NE(tenants->body.find("\"name\":\"t1\""), std::string::npos);

  auto tenant_stats = FetchOnce(kHost, port, "GET", "/v1/tenants/t1/stats");
  ASSERT_TRUE(tenant_stats.ok());
  EXPECT_EQ(tenant_stats->status_code, 200);
  EXPECT_NE(tenant_stats->body.find("\"type\":\"stats\""), std::string::npos);

  auto server_stats = FetchOnce(kHost, port, "GET", "/v1/stats");
  ASSERT_TRUE(server_stats.ok());
  EXPECT_EQ(server_stats->status_code, 200);
  EXPECT_NE(server_stats->body.find("\"type\":\"server_stats\""),
            std::string::npos);

  auto missing = FetchOnce(kHost, port, "POST", "/v1/tenants/nope/match",
                           kQueryLine);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
  EXPECT_NE(missing->body.find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(missing->body.find("\"code\":\"not_found\""), std::string::npos);

  auto bad_method = FetchOnce(kHost, port, "POST", "/v1/healthz");
  ASSERT_TRUE(bad_method.ok());
  EXPECT_EQ(bad_method->status_code, 405);

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, CreateTenantIngestAndMatch) {
  auto running = StartServer(MakeRegistry());
  uint16_t port = running.server->port();

  auto created = FetchOnce(kHost, port, "PUT", "/v1/tenants/fresh",
                           "# two trees\n"
                           "person(name,phone)  source=seed1\n"
                           "book(title,author)\n");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->status_code, 201);
  EXPECT_NE(created->body.find("\"type\":\"tenant\""), std::string::npos);
  EXPECT_NE(created->body.find("\"trees\":2"), std::string::npos);

  auto duplicate = FetchOnce(kHost, port, "PUT", "/v1/tenants/fresh",
                             "person(name)\n");
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->status_code, 409);

  auto bad_name = FetchOnce(kHost, port, "PUT", "/v1/tenants/.hidden",
                            "person(name)\n");
  ASSERT_TRUE(bad_name.ok());
  EXPECT_EQ(bad_name->status_code, 400);

  auto ingested = FetchOnce(kHost, port, "POST", "/v1/tenants/fresh/ingest",
                            "!ingest customer(name,address(city,zip))\n"
                            "!generation\n");
  ASSERT_TRUE(ingested.ok());
  EXPECT_EQ(ingested->status_code, 200);
  std::vector<std::string> events = SplitLines(ingested->body);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].find("\"type\":\"generation\""), std::string::npos);
  EXPECT_NE(events[0].find("\"generation\":1"), std::string::npos);
  EXPECT_NE(events[1].find("\"generation\":1"), std::string::npos);

  // Filesystem commands must be refused over HTTP whatever the registry
  // was configured with.
  auto blocked = FetchOnce(kHost, port, "POST", "/v1/tenants/fresh/ingest",
                           "!save /tmp/evil.snap\n");
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->status_code, 409);
  EXPECT_NE(blocked->body.find("\"code\":\"failed_precondition\""),
            std::string::npos);

  auto match = FetchOnce(kHost, port, "POST", "/v1/tenants/fresh/match",
                         "person(name,phone) id=m1 delta=0.8 top=5");
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->status_code, 200);
  EXPECT_NE(match->body.find("\"type\":\"done\""), std::string::npos);

  // A match body with two query lines is a client error.
  auto two_lines = FetchOnce(kHost, port, "POST", "/v1/tenants/fresh/match",
                             "person(name) id=a\nbook(title) id=b\n");
  ASSERT_TRUE(two_lines.ok());
  EXPECT_EQ(two_lines->status_code, 400);

  running.server->RequestShutdown();
}

// --- drain + warm restart --------------------------------------------------

TEST_F(HttpServerTest, DrainSavesTenantsAndWarmRestartResumesGenerations) {
  TempDir state_dir("drain");

  std::string first_run_events;
  uint16_t first_port = 0;
  {
    TenantRegistryOptions options = RegistryOptions();
    options.state_dir = state_dir.path();
    auto running = StartServer(MakeRegistry(std::move(options)));
    first_port = running.server->port();

    // Advance t1 to generation 2 so the warm restart has a chain to resume.
    auto ingested = FetchOnce(kHost, first_port, "POST",
                              "/v1/tenants/t1/ingest",
                              "!ingest invoice(number,total)\n"
                              "!ingest shipment(code,destination)\n");
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    ASSERT_EQ(ingested->status_code, 200);

    auto reference = FetchOnce(kHost, first_port, "POST",
                               "/v1/tenants/t1/match", kQueryLine);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(reference->status_code, 200);
    first_run_events = reference->body;

    // Kill: graceful drain saves every tenant into the state directory.
    running.server->RequestShutdown();
    running.server.reset();  // joins the serve thread
    ASSERT_TRUE(fs::exists(fs::path(state_dir.path()) / "t1.snap"));
  }

  // Warm restart: a brand-new registry boots every tenant from disk.
  TenantRegistryOptions options = RegistryOptions();
  options.state_dir = state_dir.path();
  auto registry = std::make_unique<TenantRegistry>(std::move(options));
  ASSERT_EQ(registry->WarmStartAll(), 1u);
  ASSERT_NE(registry->Find("t1"), nullptr);
  auto running = StartServer(std::move(registry));

  // The generation chain resumes where the drain left it.
  auto generation = FetchOnce(kHost, running.server->port(), "POST",
                              "/v1/tenants/t1/ingest", "!generation\n");
  ASSERT_TRUE(generation.ok());
  EXPECT_NE(generation->body.find("\"generation\":2"), std::string::npos)
      << generation->body;

  // And queries answer byte-identically to the pre-drain server.
  auto replay = FetchOnce(kHost, running.server->port(), "POST",
                          "/v1/tenants/t1/match", kQueryLine);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->status_code, 200);
  EXPECT_EQ(NormalizeAll(SplitLines(replay->body)),
            NormalizeAll(SplitLines(first_run_events)));

  // Continuing the chain after restart lands on generation 3.
  auto advanced = FetchOnce(kHost, running.server->port(), "POST",
                            "/v1/tenants/t1/ingest",
                            "!ingest receipt(id,amount)\n");
  ASSERT_TRUE(advanced.ok());
  EXPECT_NE(advanced->body.find("\"generation\":3"), std::string::npos)
      << advanced->body;

  running.server->RequestShutdown();
}

// --- disconnect → cancellation ---------------------------------------------

TEST_F(HttpServerTest, MidStreamDisconnectCancelsTheQuery) {
  auto running = StartServer(MakeRegistry());

  service::Matcher* service = running.registry->Find("t1")->service.get();
  const uint64_t cancelled_before = service->stats().cancelled;

  // A wide-open query that streams thousands of mappings: read the first
  // one, then vanish. The loop sees EOF while the worker is mid-query and
  // cancels its token; the engine winds down with kCancelled.
  HttpClient client;
  ASSERT_TRUE(client.Connect(kHost, running.server->port()).ok());
  ASSERT_TRUE(client
                  .SendRequest("POST", "/v1/tenants/t1/match",
                               "person(name,phone) id=gone delta=0.0 threshold=0.01 "
                               "top=1000000")
                  .ok());
  auto seen = client.ReadUntil("\"type\":\"mapping\"");
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  client.Close();

  // Cancellation is cooperative — poll for the counter to tick.
  bool cancelled = false;
  for (int i = 0; i < 200 && !cancelled; ++i) {
    cancelled = service->stats().cancelled > cancelled_before;
    if (!cancelled) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_TRUE(cancelled) << "query did not cancel after client disconnect";

  bool observed = false;
  for (int i = 0; i < 200 && !observed; ++i) {
    observed = running.server->stats().disconnect_cancels > 0;
    if (!observed) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_TRUE(observed);

  running.server->RequestShutdown();
}

// --- admission control -----------------------------------------------------

TEST_F(HttpServerTest, AdmissionShedsWithTypedErrorAtTheHardCap) {
  HttpServerOptions options;
  options.admission.max_inflight = 1;
  // One worker must stay free to answer the shed request while the slow
  // query occupies a slot (this box may have a single core).
  options.num_workers = 4;
  auto running = StartServer(MakeRegistry(), options);

  // Occupy the only slot with a long-running streamed query.
  HttpClient slow;
  ASSERT_TRUE(slow.Connect(kHost, running.server->port()).ok());
  ASSERT_TRUE(slow.SendRequest("POST", "/v1/tenants/t1/match",
                               "person(name,phone) id=slow delta=0.0 threshold=0.01 "
                               "top=1000000")
                  .ok());
  auto started = slow.ReadUntil("\"type\":\"mapping\"");
  ASSERT_TRUE(started.ok()) << started.status().ToString();

  // While it runs, the next request is shed with a typed NDJSON 503.
  bool saw_shed = false;
  std::string last_body;
  for (int i = 0; i < 40 && !saw_shed; ++i) {
    auto shed = FetchOnce(kHost, running.server->port(), "POST",
                          "/v1/tenants/t1/match", kQueryLine);
    ASSERT_TRUE(shed.ok()) << shed.status().ToString();
    last_body = shed->body;
    if (shed->status_code == 503) {
      saw_shed = true;
      EXPECT_NE(shed->body.find("\"type\":\"error\""), std::string::npos);
      EXPECT_NE(shed->body.find("\"code\":\"unavailable\""),
                std::string::npos);
      EXPECT_NE(shed->body.find("\"retryable\":true"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_shed) << "never shed; last body: " << last_body;
  EXPECT_GE(running.server->stats().requests_shed, 1u);

  slow.Close();
  running.server->RequestShutdown();
}

// --- wire-level hostility --------------------------------------------------

TEST_F(HttpServerTest, MalformedRequestGetsTypedErrorAndClose) {
  auto running = StartServer(MakeRegistry());

  HttpClient client;
  ASSERT_TRUE(client.Connect(kHost, running.server->port()).ok());
  ASSERT_TRUE(client.SendRaw("THIS IS NOT HTTP\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 400);
  EXPECT_FALSE(response->keep_alive);
  EXPECT_NE(response->body.find("\"type\":\"error\""), std::string::npos);
  EXPECT_GE(running.server->stats().parse_failures, 1u);

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, OversizedHeadersGet413) {
  HttpServerOptions options;
  options.limits.max_header_bytes = 256;
  auto running = StartServer(MakeRegistry(), options);

  HttpClient client;
  ASSERT_TRUE(client.Connect(kHost, running.server->port()).ok());
  std::string request = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  request.append(1024, 'a');
  request += "\r\n\r\n";
  ASSERT_TRUE(client.SendRaw(request).ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 413);

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, TruncatedRequestBodyGets400OnHalfClose) {
  auto running = StartServer(MakeRegistry());

  HttpClient client;
  ASSERT_TRUE(client.Connect(kHost, running.server->port()).ok());
  ASSERT_TRUE(client
                  .SendRaw("POST /v1/tenants/t1/match HTTP/1.1\r\n"
                           "Content-Length: 100\r\n\r\nonly this")
                  .ok());
  client.CloseWrite();
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 400);

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  auto running = StartServer(MakeRegistry());

  HttpClient client;
  ASSERT_TRUE(client.Connect(kHost, running.server->port()).ok());
  std::string two = BuildRequest("GET", "/v1/healthz", "") +
                    BuildRequest("GET", "/v1/tenants", "");
  ASSERT_TRUE(client.SendRaw(two).ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status_code, 200);
  EXPECT_NE(first->body.find("\"type\":\"health\""), std::string::npos);
  auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status_code, 200);
  EXPECT_NE(second->body.find("\"type\":\"tenant\""), std::string::npos);

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, SlowReaderGetsTheWholeStreamThenThePipelinedNext) {
  auto running = StartServer(MakeRegistry());

  // About 15k mapping events, 6.4 MB: more than the server's socket send
  // buffer can grow to (4 MB by default on Linux) plus the client's capped
  // receive buffer, so the loop's sends hit EAGAIN and only POLLOUT can
  // resume them: the events queued while bytes were pending woke nothing.
  // (The cap stays above the loopback MSS: a smaller window stalls the
  // sender on its persist timer.)
  const std::string big_query =
      "person(name,address,phone,email) id=big delta=0.75 top=0";
  HttpClient client;
  ASSERT_TRUE(client.Connect(kHost, running.server->port()).ok());
  int rcvbuf = 256 * 1024;
  ASSERT_EQ(setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf)),
            0);
  ASSERT_TRUE(client
                  .SendRaw(BuildRequest("POST", "/v1/tenants/t1/match",
                                        big_query) +
                           BuildRequest("POST", "/v1/tenants/t1/match",
                                        kQueryLine))
                  .ok());

  // Read nothing until the pipelined request is routed: the server takes
  // it up only after the big response is wholly queued.
  for (int i = 0; i < 1200 && running.server->stats().requests < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_GE(running.server->stats().requests, 2u);

  HttpLimits limits;
  limits.max_body_bytes = 64u << 20;
  auto big = client.ReadResponse(limits, /*timeout_seconds=*/60);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(big->status_code, 200);
  auto next = client.ReadResponse(limits, /*timeout_seconds=*/60);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->status_code, 200);

  TenantRegistryOptions options = RegistryOptions();
  auto service = service::MatchService::Create(*forest_, options.service);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  service::ServeSession session(service->get(), options.session);
  for (const auto& [line, response] :
       {std::pair<std::string, const HttpMessage*>(big_query, &*big),
        std::pair<std::string, const HttpMessage*>(kQueryLine, &*next)}) {
    auto query = session.ParseQuery(line, 0);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    std::vector<std::string> direct_events;
    auto result = session.RunQuery(*query, [&](const std::string& event) {
      direct_events.push_back(event);
    });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(NormalizeAll(SplitLines(response->body)),
              NormalizeAll(direct_events))
        << line;
  }
  EXPECT_GT(SplitLines(big->body).size(), 10000u);

  running.server->RequestShutdown();
}

// A top=0 match that streams about 46k mapping events, 21 MB: more than
// the output high-water mark plus what the server's send buffer (4 MB by
// default on Linux) and the client's capped receive buffer can hold, so a
// client that reads nothing stalls the query's worker at the mark.
constexpr const char* kStallQuery =
    "person(name,address,phone,email) id=stall delta=0.6 top=0";

// Opens a connection with a capped receive buffer, sends the stall query
// on it without reading anything back, and waits for the worker to stall.
HttpClient SendStallQuery(const HttpServer& server) {
  const uint64_t stalls_before = server.stats().output_stalls;
  HttpClient client;
  EXPECT_TRUE(client.Connect(kHost, server.port()).ok());
  int rcvbuf = 256 * 1024;
  EXPECT_EQ(setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf)),
            0);
  EXPECT_TRUE(client
                  .SendRaw(BuildRequest("POST", "/v1/tenants/t1/match",
                                        kStallQuery))
                  .ok());
  for (int i = 0; i < 2400 && server.stats().output_stalls == stalls_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_GT(server.stats().output_stalls, stalls_before)
      << "the worker never waited at the output high-water mark";
  return client;
}

TEST_F(HttpServerTest, ClientThatStopsReadingStallsOnlyItsOwnQuery) {
  auto running = StartServer(MakeRegistry());

  // The in-process run: its events are the expected body.
  TenantRegistryOptions options = RegistryOptions();
  auto service = service::MatchService::Create(*forest_, options.service);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  service::ServeSession session(service->get(), options.session);
  auto query = session.ParseQuery(kStallQuery, 0);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::vector<std::string> direct_events;
  auto result = session.RunQuery(*query, [&](const std::string& event) {
    direct_events.push_back(event);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  size_t direct_bytes = 0;
  for (const std::string& event : direct_events) {
    direct_bytes += event.size() + 1;
  }
  ASSERT_GT(direct_bytes, 2 * HttpServer::kOutputHighWaterBytes);

  HttpClient client = SendStallQuery(*running.server);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // The query is still in flight (its worker waits at the mark), and the
  // server still answers other connections.
  auto stats = FetchOnce(kHost, running.server->port(), "GET", "/v1/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status_code, 200);
  EXPECT_NE(stats->body.find("\"inflight\":1,"), std::string::npos)
      << stats->body;
  EXPECT_EQ(stats->body.find("\"output_stalls\":0,"), std::string::npos)
      << stats->body;
  auto health = FetchOnce(kHost, running.server->port(), "GET", "/v1/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);

  // Once the client reads, it gets the whole stream.
  HttpLimits limits;
  limits.max_body_bytes = 64u << 20;
  auto response = client.ReadResponse(limits, /*timeout_seconds=*/120);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(NormalizeAll(SplitLines(response->body)),
            NormalizeAll(direct_events));

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, DisconnectWakesAWorkerStalledAtTheMark) {
  auto running = StartServer(MakeRegistry());
  service::Matcher* service = running.registry->Find("t1")->service.get();
  const uint64_t cancelled_before = service->stats().cancelled;

  HttpClient client = SendStallQuery(*running.server);
  client.Close();

  // The disconnect wakes the worker, which drops its output; the query
  // stops through its CancelToken and the slot frees.
  bool cancelled = false;
  for (int i = 0; i < 800 && !cancelled; ++i) {
    cancelled = service->stats().cancelled > cancelled_before &&
                running.server->stats().inflight == 0;
    if (!cancelled) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_TRUE(cancelled) << "stalled query did not stop after disconnect";
  EXPECT_GT(running.server->stats().disconnect_cancels, 0u);

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, DrainCancelWakesAWorkerStalledAtTheMark) {
  HttpServerOptions options;
  options.drain_cancel_seconds = 0.2;
  options.drain_hard_seconds = 60;
  auto running = StartServer(MakeRegistry(), options);

  HttpClient client = SendStallQuery(*running.server);

  // The drain's cancel wakes the stalled worker, which drops the rest of
  // its response; the connection closes and the drain ends long before
  // its hard deadline, with the client still reading nothing.
  const auto started = std::chrono::steady_clock::now();
  running.server->RequestShutdown();
  running.server.reset();  // joins the drained loop
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(30));
}

TEST_F(HttpServerTest, ClientThatNeverReadsIsCutOffAfterTheStallTimeout) {
  auto running = StartServer(MakeRegistry());
  service::Matcher* service = running.registry->Find("t1")->service.get();
  const uint64_t cancelled_before = service->stats().cancelled;

  HttpClient client = SendStallQuery(*running.server);
  const auto stalled = std::chrono::steady_clock::now();

  // Meanwhile the server answers other connections.
  auto health = FetchOnce(kHost, running.server->port(), "GET", "/v1/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_EQ(running.server->stats().inflight, 1u);

  // With no drain progress the worker gives up: the query stops through
  // its CancelToken and the admission slot frees.
  bool freed = false;
  const auto limit = HttpServer::kOutputStallTimeout + std::chrono::seconds(10);
  while (!freed && std::chrono::steady_clock::now() - stalled < limit) {
    freed = service->stats().cancelled > cancelled_before &&
            running.server->stats().inflight == 0;
    if (!freed) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  const auto waited = std::chrono::steady_clock::now() - stalled;
  ASSERT_TRUE(freed) << "stalled query was not cut off";
  EXPECT_GE(waited, HttpServer::kOutputStallTimeout - std::chrono::seconds(1));
  EXPECT_EQ(running.server->stats().output_stall_timeouts, 1u);
  EXPECT_EQ(running.server->stats().disconnect_cancels, 0u);
  auto stats = FetchOnce(kHost, running.server->port(), "GET", "/v1/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->body.find("\"output_stall_timeouts\":1,"),
            std::string::npos)
      << stats->body;

  // The connection is closed: the client reads what was already sent, then
  // EOF before the response ends.
  HttpLimits limits;
  limits.max_body_bytes = 64u << 20;
  auto response = client.ReadResponse(limits, /*timeout_seconds=*/30);
  EXPECT_FALSE(response.ok());

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, HalfSentRequestIsClosedAfterTheReadTimeout) {
  auto running = StartServer(MakeRegistry());
  const uint16_t port = running.server->port();

  // An idle keep-alive connection holds no partial request.
  HttpClient idle;
  ASSERT_TRUE(idle.Connect(kHost, port).ok());
  auto before = idle.Fetch("GET", "/v1/healthz");
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  HttpClient half;
  ASSERT_TRUE(half.Connect(kHost, port).ok());
  ASSERT_TRUE(half.SendRaw("POST /v1/tenants/t1/match HTTP/1.1\r\n"
                           "Content-Length: 100\r\n\r\nonly this")
                  .ok());
  const auto sent = std::chrono::steady_clock::now();
  // A second handle on the socket outlives the client's close, so the
  // server's close can be observed after the response is read.
  const int observer = dup(half.fd());
  ASSERT_GE(observer, 0);
  auto response = half.ReadResponse(HttpLimits(), /*timeout_seconds=*/30);
  const auto waited = std::chrono::steady_clock::now() - sent;
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 408);
  EXPECT_FALSE(response->keep_alive);
  EXPECT_NE(response->body.find("\"code\":\"deadline_exceeded\""),
            std::string::npos)
      << response->body;
  EXPECT_GE(waited, HttpServer::kRequestReadTimeout - std::chrono::seconds(1));
  pollfd eof{observer, POLLIN, 0};
  ASSERT_EQ(poll(&eof, 1, /*timeout_ms=*/5000), 1) << "connection not closed";
  char byte;
  EXPECT_EQ(read(observer, &byte, 1), 0);
  close(observer);

  EXPECT_EQ(running.server->stats().read_timeouts, 1u);
  auto stats = FetchOnce(kHost, port, "GET", "/v1/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->body.find("\"read_timeouts\":1,"), std::string::npos)
      << stats->body;

  // The idle connection outlived the timeout and still serves.
  auto after = idle.Fetch("GET", "/v1/healthz");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->status_code, 200);

  running.server->RequestShutdown();
}

// --- holistic integration --------------------------------------------------

TEST_F(HttpServerTest, IntegrateStreamIsEventIdenticalToInProcessRun) {
  auto running = StartServer(MakeRegistry());

  auto response = FetchOnce(kHost, running.server->port(), "POST",
                            "/v1/tenants/t1/integrate", "min_linkage=2\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  ASSERT_NE(response->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*response->FindHeader("content-type"), "application/x-ndjson");
  std::vector<std::string> http_events = SplitLines(response->body);
  ASSERT_FALSE(http_events.empty());

  // The same integration against a fresh in-process service + session:
  // identical forest, options, and seeds — events must be byte-identical
  // modulo wall-clock "ms" fields.
  TenantRegistryOptions options = RegistryOptions();
  auto service = service::MatchService::Create(*forest_, options.service);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  service::ServeSession session(service->get(), options.session);
  std::vector<std::string> direct_events;
  Status status = session.RunIntegrate(
      "min_linkage=2",
      [&](const std::string& line) { direct_events.push_back(line); });
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(NormalizeAll(http_events), NormalizeAll(direct_events));
  EXPECT_NE(http_events.back().find("\"type\":\"mediated\""),
            std::string::npos);
  EXPECT_NE(http_events.back().find("\"status\":\"completed\""),
            std::string::npos);

  // More than one option line is a malformed request, caught pre-stream.
  auto malformed = FetchOnce(kHost, running.server->port(), "POST",
                             "/v1/tenants/t1/integrate", "a=1\nb=2\n");
  ASSERT_TRUE(malformed.ok()) << malformed.status().ToString();
  EXPECT_EQ(malformed->status_code, 400);

  auto wrong_method = FetchOnce(kHost, running.server->port(), "GET",
                                "/v1/tenants/t1/integrate", "");
  ASSERT_TRUE(wrong_method.ok()) << wrong_method.status().ToString();
  EXPECT_EQ(wrong_method->status_code, 405);

  running.server->RequestShutdown();
}

TEST_F(HttpServerTest, DrainStopsAcceptingNewConnections) {
  auto running = StartServer(MakeRegistry());
  uint16_t port = running.server->port();

  running.server->RequestShutdown();
  for (int i = 0; i < 200 && !running.server->draining(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(running.server->draining());

  // Once the listener closes, new connections are refused (or accepted by
  // nothing and immediately reset — either way no request completes).
  bool refused = false;
  for (int i = 0; i < 200 && !refused; ++i) {
    HttpClient probe;
    if (!probe.Connect(kHost, port).ok()) {
      refused = true;
      break;
    }
    auto response = probe.Fetch("GET", "/healthz");
    refused = !response.ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(refused);
}

}  // namespace
}  // namespace xsm::net
