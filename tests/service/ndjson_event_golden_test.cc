// Golden bytes for every NDJSON event the serving surfaces emit: the serve
// and observer events rendered in-process from fixed inputs, the HTTP-only
// events through a loopback HttpServer, and the CLI's `diff` event through
// xsm_cli itself. Each line is compared byte for byte against a literal;
// only wall-clock values ("ms", "build_ms") are masked, and only after
// checking that they keep their three-decimal format. On a mismatch the
// actual line is printed as a C++ literal, ready to paste.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
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

#include "core/execution_control.h"
#include "generate/schema_mapping.h"
#include "integrate/integration_engine.h"
#include "integrate/integration_io.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/tenant_registry.h"
#include "obs/trace.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "schema/serialization.h"
#include "service/match_service.h"
#include "service/repository_snapshot.h"
#include "service/serve_session.h"
#include "util/io.h"

namespace xsm::service {
namespace {

namespace fs = std::filesystem;

constexpr const char* kHost = "127.0.0.1";

// Replaces every wall-clock value with MS, after checking it has the
// "%.3f" shape.
std::string MaskMs(const std::string& line) {
  static const std::regex kMs("\"(ms|build_ms)\":[0-9]+\\.[0-9]{3}([,}])");
  return std::regex_replace(line, kMs, "\"$1\":MS$2");
}

std::string CLiteral(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20 || c >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x\"\"", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

void ExpectGolden(const std::vector<std::string>& actual,
                  const std::vector<std::string>& expected,
                  bool mask = true) {
  std::vector<std::string> masked;
  for (const std::string& line : actual) {
    masked.push_back(mask ? MaskMs(line) : line);
  }
  EXPECT_EQ(masked, expected) << [&masked] {
    std::string dump = "actual lines:\n";
    for (const std::string& line : masked) {
      dump += "  " + CLiteral(line) + ",\n";
    }
    return dump;
  }();
}

std::vector<std::string> SplitLines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t at = s->find(from); at != std::string::npos;
       at = s->find(from, at + to.size())) {
    s->replace(at, from.size(), to);
  }
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_golden_" + tag + "_" +
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

schema::NodeProperties Named(std::string name) {
  schema::NodeProperties props;
  props.name = std::move(name);
  return props;
}

// Three small trees; tree 0's names hold a quote, a backslash and a
// control byte.
schema::SchemaForest SmallForest() {
  schema::SchemaForest forest;
  schema::SchemaTree odd;
  schema::NodeId root = odd.AddNode(schema::kInvalidNode, Named("pers\"on"));
  odd.AddNode(root, Named("na\\me"));
  odd.AddNode(root, Named("ph\x01one"));
  odd.AddNode(root, Named("email"));
  forest.AddTree(std::move(odd), "s0");
  for (const char* spec : {"customer(name,phone)",
                           "person(name,phone,address(city,zip))"}) {
    auto tree = schema::ParseTreeSpec(spec);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    forest.AddTree(std::move(*tree), spec);
  }
  return forest;
}

EventSink Collect(std::vector<std::string>* events) {
  return [events](const std::string& line) { events->push_back(line); };
}

// --- match events ----------------------------------------------------------

TEST(NdjsonEventGoldenTest, MappingAndClusterEvents) {
  auto snapshot = RepositorySnapshot::Create(SmallForest());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  RepositoryPinPtr pin = *snapshot;
  schema::SchemaTree personal;
  schema::NodeId root =
      personal.AddNode(schema::kInvalidNode, Named("pers\"on"));
  personal.AddNode(root, Named("na\\me"));
  personal.AddNode(root, Named("phone"));

  std::vector<std::string> events;
  const EventSink sink = Collect(&events);
  NdjsonEventObserver observer("q\"\\\x01", &personal, pin, sink,
                               /*cluster_events=*/true);
  generate::SchemaMapping odd;
  odd.tree = 0;
  odd.images = {0, 1, 2};
  odd.delta = 0.8765435;
  odd.delta_sim = 1.0 / 3;
  odd.delta_path = 0.9999995;
  observer.OnMapping(odd, 3);
  // The reused buffer holds nothing of the previous event.
  generate::SchemaMapping plain;
  plain.tree = 2;
  plain.images = {0, 1, 2};
  plain.delta = 0.5;
  plain.delta_sim = 0.25;
  plain.delta_path = 0.75;
  observer.OnMapping(plain, 1);
  core::ClusterSummary summary;
  summary.tree = -1;
  core::MatchStats so_far;
  so_far.num_mappings = 12;
  so_far.generator.partial_mappings = 1ull << 40;
  observer.OnClusterFinish(2, 5, summary, so_far);

  NdjsonEventObserver quiet("q", &personal, pin, sink,
                            /*cluster_events=*/false);
  quiet.OnClusterFinish(0, 1, summary, so_far);  // emits nothing

  ExpectGolden(events, {
      "{\"type\":\"mapping\",\"id\":\"q\\\"\\\\\\u0001\",\"ran"
      "k\":3,\"tree\":0,\"delta\":0.876544,\"delta_sim\":0.333"
      "333,\"delta_path\":1.000000,\"ms\":MS,\"map\":\"tree=0 "
      "\xce\x94=0.8765 (sim=0.3333 path=1.0000) [pers\\\"on"
      "\xe2\x86\x92pers\\\"on, na\\\\me\xe2\x86\x92pers\\\"on/"
      "na\\\\me, phone\xe2\x86\x92pers\\\"on/ph\\u0001one]\"}",
      "{\"type\":\"mapping\",\"id\":\"q\\\"\\\\\\u0001\",\"ran"
      "k\":1,\"tree\":2,\"delta\":0.500000,\"delta_sim\":0.250"
      "000,\"delta_path\":0.750000,\"ms\":MS,\"map\":\"tree=2 "
      "\xce\x94=0.5000 (sim=0.2500 path=0.7500) [pers\\\"on"
      "\xe2\x86\x92person, na\\\\me\xe2\x86\x92person/name, ph"
      "one\xe2\x86\x92person/phone]\"}",
      "{\"type\":\"cluster\",\"id\":\"q\\\"\\\\\\u0001\",\"seq"
      "\":2,\"total\":5,\"tree\":-1,\"mappings\":12,\"partials"
      "_generated\":1099511627776,\"ms\":MS}",
  });
}

TEST(NdjsonEventGoldenTest, TerminalEvents) {
  std::vector<std::string> events;
  const EventSink sink = Collect(&events);

  core::MatchResult result;
  result.mappings.resize(2);
  result.partial_mappings.resize(1);
  result.stats.num_mappings = 1234567;
  result.stats.num_clusters = 7;
  result.stats.num_useful_clusters = 3;
  result.execution = core::ExecutionStatus::kEarlyStopped;
  ServeSession::EmitDoneEvent("d\"one", result, 12.3456, sink);
  ServeSession::EmitDoneEvent(
      "bad", Result<core::MatchResult>(Status::DeadlineExceeded("t\"oo\nslow")),
      1.0, sink);
  ServeSession::EmitSlowQueryEvent("s\\low", 15.2505, 0.001, sink);
  ServeSession::EmitErrorEvent("", Status::InvalidArgument("a\tb\x1f"), sink);
  ServeSession::EmitErrorEvent("e1", Status::IOError("disk"), sink);

  live::ApplyReport report;
  report.generation = 18446744073709551615ull;
  report.fingerprint = 0xfedcba9876543210ull;
  report.trees_total = 3;
  report.trees_reused = 2;
  report.trees_rebuilt = 1;
  report.name_entries_copied = 40;
  report.name_entries_computed = 5;
  report.build_seconds = 0.0123456;
  ServeSession::EmitGenerationEvent(report, sink);

  obs::TraceContext trace;
  trace.AddSpan("cluster_cache", "mi\"ss", 0.5, 1.25);
  trace.AddSpan("gen\\", "", 2.0004, 0.0005);
  ServeSession::EmitTraceEvent("t\x02", trace, sink);
  obs::TraceContext empty;
  ServeSession::EmitTraceEvent("none", empty, sink);

  // Every value is fixed here, wall-clock fields included.
  ExpectGolden(events, {
      "{\"type\":\"done\",\"id\":\"d\\\"one\",\"status\":\"ear"
      "ly_stopped\",\"mappings\":1234567,\"kept\":2,\"partial_"
      "mappings\":1,\"clusters\":7,\"useful\":3,\"ms\":12.346}",
      "{\"type\":\"error\",\"id\":\"bad\",\"code\":\"deadline_"
      "exceeded\",\"message\":\"DeadlineExceeded: t\\\"oo\\nsl"
      "ow\"}",
      "{\"type\":\"slow_query\",\"id\":\"s\\\\low\",\"ms\":15."
      "251,\"threshold_ms\":0.001}",
      "{\"type\":\"error\",\"code\":\"invalid_argument\",\"mes"
      "sage\":\"InvalidArgument: a\\tb\\u001f\"}",
      "{\"type\":\"error\",\"id\":\"e1\",\"code\":\"io_error\""
      ",\"message\":\"IOError: disk\"}",
      "{\"type\":\"generation\",\"generation\":184467440737095"
      "51615,\"fingerprint\":\"fedcba9876543210\",\"trees\":3,"
      "\"trees_reused\":2,\"trees_rebuilt\":1,\"names_copied\""
      ":40,\"names_computed\":5,\"build_ms\":12.346}",
      "{\"type\":\"trace\",\"id\":\"t\\u0002\",\"spans\":[{\"n"
      "ame\":\"cluster_cache\",\"note\":\"mi\\\"ss\",\"start_m"
      "s\":0.500,\"ms\":1.250},{\"name\":\"gen\\\\\",\"note\":"
      "\"\",\"start_ms\":2.000,\"ms\":0.001}]}",
      "{\"type\":\"trace\",\"id\":\"none\",\"spans\":[]}",
  }, /*mask=*/false);
}

// --- serve commands --------------------------------------------------------

TEST(NdjsonEventGoldenTest, ServeCommands) {
  MatchServiceOptions options;
  options.num_threads = 1;
  auto service = MatchService::Create(SmallForest(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ServeSession session(service->get(), ServeSessionOptions());
  TempDir dir("serve");

  std::vector<std::string> events;
  const EventSink sink = Collect(&events);
  session.RunCommand("!generation", sink);
  session.RunCommand("!ingest order(sku,qty)", sink);
  session.RunCommand("!replace 1 client(name,phone)", sink);
  session.RunCommand("!remove 3", sink);
  session.RunCommand("!remove 99", sink);
  session.RunCommand("!save " + dir.path() + "/sn\"ap.snap", sink);
  session.RunCommand("!stats", sink);
  session.RunCommand("!bogus", sink);
  std::vector<std::string> metrics;
  session.RunCommand("!metrics", Collect(&metrics));

  for (std::string& line : events) ReplaceAll(&line, dir.path(), "@DIR@");
  ExpectGolden(events, {
      "{\"type\":\"generation\",\"generation\":0,\"fingerprint"
      "\":\"5b65bef62acb9fe5\",\"trees\":3}",
      "{\"type\":\"generation\",\"generation\":1,\"fingerprint"
      "\":\"06cd6b23aeeff4e3\",\"trees\":4,\"trees_reused\":3,"
      "\"trees_rebuilt\":1,\"names_copied\":11,\"names_compute"
      "d\":3,\"build_ms\":MS}",
      "{\"type\":\"generation\",\"generation\":2,\"fingerprint"
      "\":\"9508377f51b13007\",\"trees\":4,\"trees_reused\":3,"
      "\"trees_rebuilt\":1,\"names_copied\":13,\"names_compute"
      "d\":1,\"build_ms\":MS}",
      "{\"type\":\"generation\",\"generation\":3,\"fingerprint"
      "\":\"24ed28befd78c758\",\"trees\":3,\"trees_reused\":3,"
      "\"trees_rebuilt\":0,\"names_copied\":11,\"names_compute"
      "d\":0,\"build_ms\":MS}",
      "{\"type\":\"error\",\"code\":\"invalid_argument\",\"mes"
      "sage\":\"InvalidArgument: delta targets tree 99 but the"
      " repository has 3 trees\"}",
      "{\"type\":\"saved\",\"path\":\"@DIR@/sn\\\"ap.snap\",\""
      "format\":1,\"generation\":3,\"fingerprint\":\"24ed28bef"
      "d78c758\",\"trees\":3,\"elements\":13,\"bytes\":2079}",
      "{\"type\":\"stats\",\"generation\":3,\"deltas_applied\""
      ":3,\"queries\":0,\"batches\":0,\"cancelled\":0,\"deadli"
      "ne_exceeded\":0,\"early_stopped\":0,\"slow_queries\":0,"
      "\"cache_hits\":0,\"cache_shared\":0,\"cache_misses\":0,"
      "\"cache_evictions\":0,\"cache_entries\":0,\"cache_names"
      "paces\":2,\"wal_appends\":0,\"wal_compactions\":0,\"sna"
      "pshot_saves\":1}",
      "{\"type\":\"error\",\"code\":\"invalid_argument\",\"mes"
      "sage\":\"InvalidArgument: unknown command !bogus (try !"
      "ingest, !replace, !remove, !save, !reload, !integrate, "
      "!generation, !stats, !metrics)\"}",
  });

  // The exposition is the same bytes GET /metrics serves, escaped.
  ASSERT_EQ(metrics.size(), 1u);
  std::string exposition = (*service)->metrics().RenderPrometheusText();
  ReplaceAll(&exposition, "\\", "\\\\");
  ReplaceAll(&exposition, "\"", "\\\"");
  ReplaceAll(&exposition, "\n", "\\n");
  EXPECT_EQ(metrics[0],
            "{\"type\":\"metrics\",\"exposition\":\"" + exposition + "\"}");
}

// --- integration events ----------------------------------------------------

TEST(NdjsonEventGoldenTest, IntegrationEvents) {
  std::vector<std::string> events;
  const EventSink sink = Collect(&events);
  NdjsonIntegrationObserver observer(sink);

  integrate::PairProgress pair;
  pair.a = -1;
  pair.b = 2147483647;
  pair.links = 9;
  pair.best_score = 0.1234565;
  pair.sources_done = 1;
  pair.sources_total = 4;
  observer.OnPair(pair);

  integrate::CorrespondenceCluster big;
  for (int i = 0; i < 70; ++i) big.members.push_back({i % 3 - 1, i});
  big.links = 91;
  big.schemas = 3;
  big.confidence = 0.75;
  big.severity = integrate::Severity::kStrong;
  integrate::MediatedElement odd;
  odd.name = "na\"me\\\x02";
  odd.representative = {-1, 4};
  observer.OnMediatedElement(1, odd, big);

  integrate::CorrespondenceCluster small;
  small.members = {{0, 1}, {2, 3}};
  small.links = 1;
  small.schemas = 2;
  small.confidence = 2.0 / 3;
  small.severity = integrate::Severity::kWeak;
  integrate::MediatedElement plain;
  plain.name = "phone";
  plain.representative = {0, 1};
  observer.OnMediatedElement(2, plain, small);

  integrate::IntegrationResult result;
  result.generation = 5;
  result.fingerprint = 0x8000000000000001ull;
  result.seed = 18446744073709551615ull;
  result.execution = core::ExecutionStatus::kDeadlineExceeded;
  result.stats.trees = 4;
  result.stats.slices = 6;
  result.stats.pairs_total = 6;
  result.stats.pairs_linked = 5;
  result.stats.correspondences = 17;
  result.clusters.resize(3);
  result.mediated.elements.resize(2);
  observer.OnFinish(result);

  ExpectGolden(events, {
      "{\"type\":\"pair\",\"a\":-1,\"b\":2147483647,\"links\":"
      "9,\"score\":0.123456,\"done\":1,\"of\":4}",
      "{\"type\":\"cluster\",\"rank\":1,\"name\":\"na\\\"me\\"
      "\\\\u0002\",\"tree\":-1,\"node\":4,\"size\":70,\"schema"
      "s\":3,\"links\":91,\"confidence\":0.750000,\"severity\""
      ":\"strong\",\"members\":[\"-1:0\",\"0:1\",\"1:2\",\"-1:"
      "3\",\"0:4\",\"1:5\",\"-1:6\",\"0:7\",\"1:8\",\"-1:9\","
      "\"0:10\",\"1:11\",\"-1:12\",\"0:13\",\"1:14\",\"-1:15\""
      ",\"0:16\",\"1:17\",\"-1:18\",\"0:19\",\"1:20\",\"-1:21"
      "\",\"0:22\",\"1:23\",\"-1:24\",\"0:25\",\"1:26\",\"-1:2"
      "7\",\"0:28\",\"1:29\",\"-1:30\",\"0:31\",\"1:32\",\"-1:"
      "33\",\"0:34\",\"1:35\",\"-1:36\",\"0:37\",\"1:38\",\"-1"
      ":39\",\"0:40\",\"1:41\",\"-1:42\",\"0:43\",\"1:44\",\"-"
      "1:45\",\"0:46\",\"1:47\",\"-1:48\",\"0:49\",\"1:50\",\""
      "-1:51\",\"0:52\",\"1:53\",\"-1:54\",\"0:55\",\"1:56\","
      "\"-1:57\",\"0:58\",\"1:59\",\"-1:60\",\"0:61\",\"1:62\""
      ",\"-1:63\"],\"members_truncated\":6}",
      "{\"type\":\"cluster\",\"rank\":2,\"name\":\"phone\",\"t"
      "ree\":0,\"node\":1,\"size\":2,\"schemas\":2,\"links\":1"
      ",\"confidence\":0.666667,\"severity\":\"weak\",\"member"
      "s\":[\"0:1\",\"2:3\"]}",
      "{\"type\":\"mediated\",\"status\":\"deadline_exceeded\""
      ",\"generation\":5,\"fingerprint\":\"8000000000000001\","
      "\"seed\":18446744073709551615,\"trees\":4,\"slices\":6,"
      "\"pairs\":6,\"pairs_linked\":5,\"correspondences\":17,"
      "\"clusters\":3,\"elements\":2,\"ms\":MS}",
  });
}

// --- HTTP-only events ------------------------------------------------------

net::TenantRegistryOptions RegistryOptions(const std::string& state_dir) {
  net::TenantRegistryOptions options;
  options.service.num_threads = 1;
  options.shards = 2;
  options.state_dir = state_dir;
  return options;
}

std::string Fetch(uint16_t port, const std::string& method,
                  const std::string& target, const std::string& body = "") {
  auto response = net::FetchOnce(kHost, port, method, target, body);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return "";
  return std::to_string(response->status_code) + " " + response->body;
}

TEST(NdjsonEventGoldenTest, HttpEvents) {
  TempDir dir("http");
  net::TenantRegistry registry(RegistryOptions(dir.path()));
  ASSERT_TRUE(registry.Create("t1", SmallForest()).ok());
  net::HttpServerOptions options;
  options.num_workers = 2;
  net::HttpServer server(&registry, options);
  ASSERT_TRUE(server.StartBackground().ok());
  const uint16_t port = server.port();

  std::string bodies;
  // First, so no request latency has been observed yet.
  bodies += Fetch(port, "GET", "/v1/stats");
  bodies += Fetch(port, "GET", "/v1/healthz");
  bodies += Fetch(port, "GET", "/healthz");
  bodies += Fetch(port, "PUT", "/v1/tenants/fresh",
                  "person(name,phone) source=a\nbook(title)\n");
  bodies += Fetch(port, "GET", "/v1/tenants");
  bodies += Fetch(port, "GET", "/v1/tenants/t1/shards");
  bodies += Fetch(port, "POST", "/v1/tenants/t1/save");
  bodies += Fetch(port, "GET", "/v1/tenants/t1/stats");
  bodies += Fetch(port, "POST", "/v1/tenants/nope/match", "person(name)");
  server.RequestShutdown();

  ExpectGolden(SplitLines(bodies), {
      "200 {\"type\":\"server_stats\",\"connections_accepted\""
      ":1,\"connections_rejected\":0,\"requests\":1,\"requests"
      "_shed\":0,\"sheds\":{\"capacity\":0},\"parse_failures\""
      ":0,\"disconnect_cancels\":0,\"output_stalls\":0,\"outpu"
      "t_stall_timeouts\":0,\"read_timeouts\":0,\"drain_save_f"
      "ailures\":0,\"inflight\":0,\"tenants\":1,\"draining\":f"
      "alse,\"wal\":{\"recoveries\":0,\"records_replayed\":0,"
      "\"records_skipped\":0,\"torn_tail_truncations\":0},\"la"
      "tency_ms\":{\"count\":0,\"p50\":0.000,\"p95\":0.000,\"p"
      "99\":0.000}}",
      "200 {\"type\":\"health\",\"status\":\"ok\",\"tenants\":"
      "1}",
      "410 {\"type\":\"error\",\"code\":\"gone\",\"message\":"
      "\"/healthz moved under the versioned API; use GET /v1/h"
      "ealthz\",\"migrate_to\":\"/v1/healthz\"}",
      "201 {\"type\":\"tenant\",\"name\":\"fresh\",\"generatio"
      "n\":0,\"trees\":2,\"shards\":2}",
      "200 {\"type\":\"tenant\",\"name\":\"fresh\",\"generatio"
      "n\":0,\"trees\":2,\"shards\":2}",
      "{\"type\":\"tenant\",\"name\":\"t1\",\"generation\":0,"
      "\"trees\":3,\"shards\":2}",
      "200 {\"type\":\"shard\",\"shard\":0,\"generation\":0,\""
      "fingerprint\":\"14d82aeda9ef520c\",\"trees\":2,\"nodes"
      "\":7,\"first_tree\":0}",
      "{\"type\":\"shard\",\"shard\":1,\"generation\":0,\"fing"
      "erprint\":\"57de637aaf3c2d59\",\"trees\":1,\"nodes\":6,"
      "\"first_tree\":2}",
      "200 {\"type\":\"saved\",\"tenant\":\"t1\",\"format\":1,"
      "\"generation\":0,\"fingerprint\":\"5b65bef62acb9fe5\","
      "\"trees\":3,\"elements\":13,\"bytes\":2402}",
      "200 {\"type\":\"stats\",\"generation\":0,\"deltas_appli"
      "ed\":0,\"queries\":0,\"batches\":0,\"cancelled\":0,\"de"
      "adline_exceeded\":0,\"early_stopped\":0,\"slow_queries"
      "\":0,\"cache_hits\":0,\"cache_shared\":0,\"cache_misses"
      "\":0,\"cache_evictions\":0,\"cache_entries\":0,\"cache_"
      "namespaces\":3,\"wal_appends\":0,\"wal_compactions\":1,"
      "\"snapshot_saves\":2}",
      "404 {\"type\":\"error\",\"code\":\"not_found\",\"messag"
      "e\":\"NotFound: no tenant named 'nope'\"}",
  });
}

TEST(NdjsonEventGoldenTest, HttpShedEvent) {
  repo::SyntheticRepoOptions synthetic;
  synthetic.target_elements = 2000;
  synthetic.seed = 7;
  auto forest = repo::GenerateSyntheticRepository(synthetic);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  net::TenantRegistryOptions registry_options;
  registry_options.service.num_threads = 2;
  net::TenantRegistry registry(registry_options);
  ASSERT_TRUE(registry.Create("t1", std::move(*forest)).ok());
  net::HttpServerOptions options;
  options.admission.max_inflight = 1;
  options.num_workers = 4;
  net::HttpServer server(&registry, options);
  ASSERT_TRUE(server.StartBackground().ok());

  // Occupy the only slot with a long-running streamed query.
  net::HttpClient slow;
  ASSERT_TRUE(slow.Connect(kHost, server.port()).ok());
  ASSERT_TRUE(slow.SendRequest("POST", "/v1/tenants/t1/match",
                               "person(name,phone) id=slow delta=0.0 "
                               "threshold=0.01 top=1000000")
                  .ok());
  ASSERT_TRUE(slow.ReadUntil("\"type\":\"mapping\"").ok());
  std::string shed;
  for (int i = 0; i < 40 && shed.rfind("503 ", 0) != 0; ++i) {
    shed = Fetch(server.port(), "POST", "/v1/tenants/t1/match",
                 "person(name) id=x");
  }
  slow.Close();
  server.RequestShutdown();

  ExpectGolden(SplitLines(shed), {
      "503 {\"type\":\"error\",\"code\":\"unavailable\",\"mess"
      "age\":\"admission capacity reached (1 requests in fligh"
      "t); retry later\",\"retryable\":true}",
  });
}

TEST(NdjsonEventGoldenTest, DrainSaveFailureLine) {
  TempDir dir("drain");
  util::io::FaultPlan plan;
  // Renames 0 and 1 are the creation checkpoint and journal; 2 is the
  // drain's save.
  plan.fail_rename_at = 2;
  util::io::FaultInjectionEnv env(plan);
  net::TenantRegistryOptions registry_options;
  registry_options.service.num_threads = 1;
  registry_options.state_dir = dir.path();
  registry_options.env = &env;
  net::TenantRegistry registry(registry_options);
  auto created = registry.Create("t1", SmallForest());
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  testing::internal::CaptureStderr();
  {
    net::HttpServer server(&registry, net::HttpServerOptions());
    ASSERT_TRUE(server.StartBackground().ok());
    server.RequestShutdown();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().drain_save_failures == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::string err = testing::internal::GetCapturedStderr();
  ReplaceAll(&err, dir.path(), "@DIR@");
  std::vector<std::string> lines;
  for (const std::string& line : SplitLines(err)) {
    if (line.rfind("{", 0) == 0) lines.push_back(line);
  }
  ExpectGolden(lines, {
      "{\"type\":\"error\",\"code\":\"save_failed\",\"tenant\""
      ":\"t1\",\"status\":\"io_error\",\"message\":\"IOError: "
      "injected rename failure (injected) on @DIR@/t1.snap\"}",
  });
}

// --- CLI diff event --------------------------------------------------------

TEST(NdjsonEventGoldenTest, CliDiffEvent) {
  TempDir dir("diff");
  const std::string forest_path = dir.path() + "/small.forest";
  ASSERT_TRUE(schema::SaveForestToFile(SmallForest(), forest_path).ok());

  // A saved "before" run whose clusters match nothing of the fresh run, so
  // every one of its names lands in removed_names.
  integrate::IntegrationResult before;
  before.tree_fingerprints = {1, 2};
  before.stats.trees = 2;
  int node = 0;
  for (const char* name : {"gone\"one", "back\\slash", "ctl\x03"}) {
    integrate::CorrespondenceCluster cluster;
    cluster.name = name;
    cluster.members = {{0, node}, {1, node}};
    cluster.representative = {0, node++};
    cluster.links = 1;
    cluster.schemas = 2;
    before.clusters.push_back(cluster);
  }
  const std::string before_path = dir.path() + "/before.intg";
  ASSERT_TRUE(integrate::SaveIntegrationToFile(before, before_path).ok());

  const std::string command = std::string(XSM_CLI_PATH) +
                              " integrate --forest " + forest_path +
                              " --diff " + before_path + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 4096> buf;
  size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), n);
  }
  ASSERT_EQ(pclose(pipe), 0) << out;
  std::vector<std::string> lines;
  for (const std::string& line : SplitLines(out)) {
    if (line.rfind("{\"type\":\"diff\"", 0) == 0) lines.push_back(line);
  }
  ExpectGolden(lines, {
      "{\"type\":\"diff\",\"before\":3,\"after\":3,\"kept\":0,"
      "\"added\":3,\"removed\":3,\"added_names\":[\"phone\",\""
      "name\",\"pers\\\"on\"],\"removed_names\":[\"gone\\\"one"
      "\",\"back\\\\slash\",\"ctl\\u0003\"]}",
  });
}

}  // namespace
}  // namespace xsm::service
