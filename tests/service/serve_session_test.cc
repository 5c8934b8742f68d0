// ServeSession is the transport-shared serving core; these tests pin down
// its query grammar, event stream shapes, command surface, and the
// filesystem gate the HTTP front end depends on.
#include "service/serve_session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <regex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/execution_control.h"
#include "generate/schema_mapping.h"
#include "repo/synthetic.h"
#include "service/match_service.h"
#include "service/repository_snapshot.h"
#include "schema/schema_tree.h"

namespace xsm::service {
namespace {

class ServeSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo::SyntheticRepoOptions options;
    options.target_elements = 800;
    options.seed = 7;
    auto forest = repo::GenerateSyntheticRepository(options);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    forest_ = new schema::SchemaForest(std::move(*forest));
  }

  static void TearDownTestSuite() {
    delete forest_;
    forest_ = nullptr;
  }

  void SetUp() override {
    MatchServiceOptions options;
    options.num_threads = 2;
    auto service = MatchService::Create(*forest_, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
  }

  std::unique_ptr<ServeSession> MakeSession(
      ServeSessionOptions options = ServeSessionOptions()) {
    return std::make_unique<ServeSession>(service_.get(), options);
  }

  static EventSink Collect(std::vector<std::string>* events) {
    return [events](const std::string& line) { events->push_back(line); };
  }

  std::unique_ptr<MatchService> service_;
  static schema::SchemaForest* forest_;
};

schema::SchemaForest* ServeSessionTest::forest_ = nullptr;

// --- ParseQuery ------------------------------------------------------------

TEST_F(ServeSessionTest, ParseQueryDefaultsAndOverrides) {
  ServeSessionOptions options;
  options.defaults.delta = 0.5;
  options.defaults.top_n = 7;
  auto session = MakeSession(options);

  auto plain = session->ParseQuery("person(name,phone)", 3);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->id, "q3");  // fallback id numbers from the index
  EXPECT_EQ(plain->options.delta, 0.5);
  EXPECT_EQ(plain->options.top_n, 7u);

  auto tuned = session->ParseQuery(
      "book(title,author) id=mine delta=0.9 top=2 cluster=kmeans join=3 "
      "threshold=0.4 alpha=0.7",
      0);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  EXPECT_EQ(tuned->id, "mine");
  EXPECT_EQ(tuned->options.delta, 0.9);
  EXPECT_EQ(tuned->options.top_n, 2u);
  EXPECT_EQ(tuned->options.clustering, core::ClusteringMode::kKMeans);
  EXPECT_EQ(tuned->options.kmeans.join_distance, 3);
  EXPECT_EQ(tuned->options.element.threshold, 0.4);
  EXPECT_EQ(tuned->options.objective.alpha, 0.7);
}

TEST_F(ServeSessionTest, ParseQueryRejectsBadInput) {
  auto session = MakeSession();
  for (const char* bad :
       {"", "   ", "person( id=x", "person(name) top",
        "person(name) nonsense=1", "person(name) cluster=blob",
        // Numbers must be whole tokens: no prefix reads, no empty zeros.
        "person(name) delta=abc", "person(name) threshold=0.5x",
        "person(name) top=ten", "person(name) alpha=", "person(name) join=x",
        "person(name) top=1.5", "person(name) delta=nan",
        "person(name) cluster=kmeans join=4294967297"}) {
    auto query = session->ParseQuery(bad, 0);
    EXPECT_FALSE(query.ok()) << "'" << bad << "'";
  }
}

// --- RunQuery / RunBatch ---------------------------------------------------

TEST_F(ServeSessionTest, RunQueryStreamsMappingsThenDone) {
  auto session = MakeSession();
  auto query = session->ParseQuery("person(name,phone) id=s1 delta=0.8 top=4",
                                   0);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  std::vector<std::string> events;
  auto result = session->RunQuery(*query, Collect(&events));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_FALSE(events.empty());
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_NE(events[i].find("\"type\":\"mapping\""), std::string::npos)
        << events[i];
    EXPECT_NE(events[i].find("\"id\":\"s1\""), std::string::npos);
  }
  EXPECT_NE(events.back().find("\"type\":\"done\""), std::string::npos);
  EXPECT_NE(events.back().find("\"status\":\"completed\""),
            std::string::npos);
  // Streaming reports every mapping that entered the running top 4, which
  // includes each of the final 4.
  EXPECT_EQ(result->mappings.size(), 4u);
  EXPECT_GE(events.size() - 1, result->mappings.size());
}

TEST(ServeSessionStreamBoundTest, EightNodeTopTenStreamIsBounded) {
  // An 8-node schema whose one useful cluster holds about 40k mappings with
  // Δ ≥ 0.7 (the adaptive floor rises only between clusters, so the run
  // still finds them all). With top=10 only the mappings that enter the
  // running top 10 stream: a bounded handful, not one event per mapping.
  constexpr size_t kMaxMappingEvents = 200;
  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = 3000;
  repo_options.seed = 11;
  auto forest = repo::GenerateSyntheticRepository(repo_options);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  MatchServiceOptions service_options;
  service_options.num_threads = 1;
  auto service = MatchService::Create(*forest, service_options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ServeSession session(service->get(), ServeSessionOptions());
  auto query = session.ParseQuery(
      "order(item(price),customer(name,address),date,total) delta=0.7 "
      "top=10",
      0);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->personal.size(), 8u);

  size_t mapping_events = 0;
  std::string done;
  auto result = session.RunQuery(*query, [&](const std::string& event) {
    if (event.find("\"type\":\"mapping\"") != std::string::npos) {
      ++mapping_events;
    } else if (event.find("\"type\":\"done\"") != std::string::npos) {
      done = event;
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->execution, core::ExecutionStatus::kCompleted);
  EXPECT_GE(mapping_events, 10u);
  EXPECT_LE(mapping_events, kMaxMappingEvents);
  EXPECT_GT(result->stats.num_mappings, 100 * kMaxMappingEvents);
  EXPECT_NE(done.find("\"mappings\":" +
                      std::to_string(result->stats.num_mappings) + ","),
            std::string::npos)
      << done;
  EXPECT_NE(done.find("\"kept\":10,"), std::string::npos) << done;
}

TEST_F(ServeSessionTest, HugeTopCompletesLikeNoLimit) {
  // top=-1 parses to SIZE_MAX; neither it nor a merely large N may
  // allocate in proportion to N.
  auto session = MakeSession();
  auto unlimited = session->ParseQuery("person(name,phone) delta=0.8 top=0",
                                       0);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  std::vector<std::string> events;
  auto expected = session->RunQuery(*unlimited, Collect(&events));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_FALSE(expected->mappings.empty());
  for (const char* top : {"-1", "1000000000000"}) {
    SCOPED_TRACE(top);
    auto query = session->ParseQuery(
        std::string("person(name,phone) delta=0.8 top=") + top, 0);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    events.clear();
    auto result = session->RunQuery(*query, Collect(&events));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(events.empty());
    EXPECT_NE(events.back().find("\"status\":\"completed\""),
              std::string::npos);
    EXPECT_EQ(result->mappings.size(), expected->mappings.size());
  }
}

TEST_F(ServeSessionTest, FirstNStopsEarlyWithTypedStatus) {
  // The streaming test above observes >10 mappings for this query shape,
  // so a budget of one must stop the run early.
  const char* line = "person(name,phone) id=s2 delta=0.8 top=50";

  ServeSessionOptions options;
  options.first_n = 1;
  auto session = MakeSession(options);
  auto query = session->ParseQuery(line, 0);
  ASSERT_TRUE(query.ok());

  std::vector<std::string> events;
  auto result = session->RunQuery(*query, Collect(&events));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->execution, core::ExecutionStatus::kEarlyStopped);
  EXPECT_NE(events.back().find("\"status\":\"early_stopped\""),
            std::string::npos);
}

TEST_F(ServeSessionTest, CancelledQueryEmitsCancelledDone) {
  auto session = MakeSession();
  auto query = session->ParseQuery("person(name,phone) id=c1 delta=0.0",
                                   0);
  ASSERT_TRUE(query.ok());

  core::ExecutionControl control;
  control.cancel = core::CancelToken();
  control.cancel.Cancel();  // already cancelled at submission
  std::vector<std::string> events;
  auto result = session->RunQuery(*query, Collect(&events), control);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->execution, core::ExecutionStatus::kCancelled);
  EXPECT_NE(events.back().find("\"status\":\"cancelled\""),
            std::string::npos);
}

TEST_F(ServeSessionTest, RunBatchEmitsDoneEventsInInputOrder) {
  auto session = MakeSession();
  std::vector<MatchRequest> queries;
  const char* lines[] = {
      "person(name,phone) id=b1 delta=0.6 top=3",
      "book(title,author) id=b2 delta=0.6 top=3",
      "customer(name) id=b3 delta=0.6 top=3",
  };
  for (size_t i = 0; i < 3; ++i) {
    auto query = session->ParseQuery(lines[i], i);
    ASSERT_TRUE(query.ok());
    queries.push_back(std::move(*query));
  }

  std::vector<std::string> events;
  size_t failed = session->RunBatch(queries, Collect(&events));
  EXPECT_EQ(failed, 0u);

  std::vector<std::string> done_ids;
  for (const std::string& line : events) {
    if (line.find("\"type\":\"done\"") == std::string::npos) continue;
    size_t at = line.find("\"id\":\"");
    ASSERT_NE(at, std::string::npos);
    at += 6;
    done_ids.push_back(line.substr(at, line.find('"', at) - at));
  }
  EXPECT_EQ(done_ids, (std::vector<std::string>{"b1", "b2", "b3"}));
}

// --- RunCommand ------------------------------------------------------------

TEST_F(ServeSessionTest, IngestReplaceRemoveAdvanceGenerations) {
  auto session = MakeSession();
  std::vector<std::string> events;

  EXPECT_TRUE(session
                  ->RunCommand("!ingest invoice(number,total) source=erp",
                               Collect(&events))
                  .ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"type\":\"generation\""), std::string::npos);
  EXPECT_NE(events[0].find("\"generation\":1"), std::string::npos);

  events.clear();
  EXPECT_TRUE(
      session->RunCommand("!replace 0 person(name,email)", Collect(&events))
          .ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"generation\":2"), std::string::npos);

  events.clear();
  EXPECT_TRUE(session->RunCommand("!remove 1", Collect(&events)).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"generation\":3"), std::string::npos);

  events.clear();
  EXPECT_TRUE(session->RunCommand("!generation", Collect(&events)).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"generation\":3"), std::string::npos);
  EXPECT_NE(events[0].find("\"fingerprint\":\""), std::string::npos);

  events.clear();
  EXPECT_TRUE(session->RunCommand("!stats", Collect(&events)).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"type\":\"stats\""), std::string::npos);
  EXPECT_NE(events[0].find("\"deltas_applied\":3"), std::string::npos);
}

TEST_F(ServeSessionTest, CommandErrorsAreTypedEvents) {
  auto session = MakeSession();
  struct Case {
    const char* line;
    StatusCode code;
  };
  const Case cases[] = {
      {"!remove", StatusCode::kInvalidArgument},
      {"!remove notanumber", StatusCode::kInvalidArgument},
      {"!remove 1000000", StatusCode::kInvalidArgument},  // no such tree
      {"!replace xyz person(name)", StatusCode::kInvalidArgument},
      // Ids are whole tokens: "1junk" is not tree 1, "0x" not tree 0.
      {"!remove 1junk", StatusCode::kInvalidArgument},
      {"!replace 0x person(name)", StatusCode::kInvalidArgument},
      {"!ingest", StatusCode::kInvalidArgument},
      {"!ingest bad((spec", StatusCode::kParseError},
      {"!frobnicate", StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    std::vector<std::string> events;
    Status status = session->RunCommand(c.line, Collect(&events));
    EXPECT_EQ(status.code(), c.code) << c.line << ": " << status.ToString();
    ASSERT_EQ(events.size(), 1u) << c.line;
    EXPECT_NE(events[0].find("\"type\":\"error\""), std::string::npos)
        << events[0];
  }
}

TEST_F(ServeSessionTest, FilesystemCommandsGatedByOption) {
  ServeSessionOptions options;
  options.allow_filesystem = false;  // the HTTP front end's configuration
  auto session = MakeSession(options);
  for (const char* line : {"!save /tmp/x.snap", "!reload /tmp/nowhere"}) {
    std::vector<std::string> events;
    Status status = session->RunCommand(line, Collect(&events));
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << line;
    ASSERT_EQ(events.size(), 1u);
    EXPECT_NE(events[0].find("\"code\":\"failed_precondition\""),
              std::string::npos)
        << events[0];
  }
}

// --- HandleLine ------------------------------------------------------------

TEST_F(ServeSessionTest, HandleLineSkipsCommentsAndNumbersQueries) {
  auto session = MakeSession();
  std::vector<std::string> events;

  session->HandleLine("# a comment", Collect(&events));
  session->HandleLine("   ", Collect(&events));
  session->HandleLine("", Collect(&events));
  EXPECT_TRUE(events.empty());

  session->HandleLine("person(name,phone) delta=0.8 top=1  # inline",
                      Collect(&events));
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.back().find("\"id\":\"q0\""), std::string::npos);

  events.clear();
  session->HandleLine("does not parse", Collect(&events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(events[0].find("\"id\":\"q1\""), std::string::npos);

  events.clear();
  session->HandleLine("  !generation  ", Collect(&events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"type\":\"generation\""), std::string::npos);
}

// --- !integrate ------------------------------------------------------------

TEST_F(ServeSessionTest, IntegrateStreamsPairsThenClustersThenMediated) {
  auto session = MakeSession();
  std::vector<std::string> events;
  Status status = session->RunCommand("!integrate", Collect(&events));
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().rfind(
                "{\"type\":\"mediated\",\"status\":\"completed\"", 0),
            0u)
      << events.back();
  size_t pairs = 0;
  size_t clusters = 0;
  bool seen_cluster = false;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    if (events[i].rfind("{\"type\":\"pair\"", 0) == 0) {
      EXPECT_FALSE(seen_cluster) << "pair event after cluster events";
      ++pairs;
    } else if (events[i].rfind("{\"type\":\"cluster\"", 0) == 0) {
      seen_cluster = true;
      ++clusters;
    } else {
      ADD_FAILURE() << "unexpected event: " << events[i];
    }
  }
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(clusters, 0u);
}

TEST_F(ServeSessionTest, IntegrateArgsReachTheEngine) {
  auto session = MakeSession();
  std::vector<std::string> events;
  // A linkage floor no cluster passes: pair events still stream, no
  // cluster events, and the terminal summary records the seed and the
  // empty mediated schema.
  Status status = session->RunCommand("!integrate min_linkage=999999 seed=5",
                                      Collect(&events));
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_FALSE(events.empty());
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].rfind("{\"type\":\"pair\"", 0), 0u) << events[i];
  }
  EXPECT_NE(events.back().find("\"seed\":5"), std::string::npos);
  EXPECT_NE(events.back().find("\"elements\":0"), std::string::npos);
}

TEST_F(ServeSessionTest, IntegrateBadArgsEmitTypedErrors) {
  auto session = MakeSession();
  for (const char* bad :
       {"!integrate bogus=1", "!integrate threshold",
        "!integrate severity=medium", "!integrate threshold=2",
        "!integrate threshold=0.5x", "!integrate min_linkage=two",
        "!integrate strong=", "!integrate probable=high",
        "!integrate seed=7s"}) {
    std::vector<std::string> events;
    Status status = session->RunCommand(bad, Collect(&events));
    EXPECT_FALSE(status.ok()) << bad;
    ASSERT_EQ(events.size(), 1u) << bad;
    EXPECT_NE(events[0].find("\"type\":\"error\""), std::string::npos)
        << bad;
    EXPECT_NE(events[0].find("\"id\":\"integrate\""), std::string::npos)
        << bad;
  }
}

// An interrupted integration is not a transport error: the command returns
// OK and the terminal mediated event carries the typed partial status.
TEST_F(ServeSessionTest, IntegrateHonorsControlWithTypedPartial) {
  auto session = MakeSession();
  core::ExecutionControl control;
  control.cancel.Cancel();
  std::vector<std::string> events;
  Status status =
      session->RunCommand("!integrate", Collect(&events), control);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.back().find("\"type\":\"mediated\""), std::string::npos);
  EXPECT_NE(events.back().find("\"status\":\"cancelled\""),
            std::string::npos);
}

TEST_F(ServeSessionTest, UnknownCommandUsageMentionsIntegrate) {
  auto session = MakeSession();
  std::vector<std::string> events;
  Status status = session->RunCommand("!nope", Collect(&events));
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("!integrate"), std::string::npos);
}

// --- static emitters -------------------------------------------------------

TEST_F(ServeSessionTest, EmitErrorEventShape) {
  std::vector<std::string> events;
  ServeSession::EmitErrorEvent("qx", Status::NotFound("no \"such\" tree"),
                               Collect(&events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0],
            "{\"type\":\"error\",\"id\":\"qx\",\"code\":\"not_found\","
            "\"message\":\"NotFound: no \\\"such\\\" tree\"}");
}

std::string Escaped(std::string_view s) {
  std::string out;
  AppendJsonEscaped(&out, s);
  return out;
}

TEST_F(ServeSessionTest, JsonEscapeControlsAndQuotes) {
  EXPECT_EQ(Escaped("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(Escaped(std::string(1, '\x01')), "\\u0001");
}

// --- formatter byte identity ---------------------------------------------

// The mapping formatters as first written — snprintf into fixed buffers,
// a per-image path vector, escaping as a second pass over a copy — kept as
// an independent reference for the in-place ones.
std::string ReferenceJsonEscape(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string ReferenceMappingToString(const generate::SchemaMapping& mapping,
                                     const schema::SchemaTree& personal,
                                     const schema::SchemaForest& repo) {
  char head[128];
  std::snprintf(head, sizeof(head),
                "tree=%d \xCE\x94=%.4f (sim=%.4f path=%.4f) ", mapping.tree,
                mapping.delta, mapping.delta_sim, mapping.delta_path);
  std::string out = head;
  out += '[';
  const schema::SchemaTree& t = repo.tree(mapping.tree);
  for (size_t i = 0; i < mapping.images.size(); ++i) {
    if (i > 0) out += ", ";
    out += personal.name(static_cast<schema::NodeId>(i));
    out += "\xE2\x86\x92";
    std::vector<schema::NodeId> path;
    for (schema::NodeId n = mapping.images[i]; n != schema::kInvalidNode;
         n = t.parent(n)) {
      path.push_back(n);
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (it != path.rbegin()) out += '/';
      out += t.name(*it);
    }
  }
  out += ']';
  return out;
}

// The mapping event with its wall-clock "ms" field written as 0.000.
std::string ReferenceMappingEvent(const std::string& id,
                                  const generate::SchemaMapping& mapping,
                                  size_t rank,
                                  const schema::SchemaTree& personal,
                                  const schema::SchemaForest& repo) {
  char nums[224];
  std::snprintf(nums, sizeof(nums),
                "\",\"rank\":%zu,\"tree\":%d,\"delta\":%.6f,"
                "\"delta_sim\":%.6f,\"delta_path\":%.6f,\"ms\":%.3f,"
                "\"map\":\"",
                rank, mapping.tree, mapping.delta, mapping.delta_sim,
                mapping.delta_path, 0.0);
  return "{\"type\":\"mapping\",\"id\":\"" + ReferenceJsonEscape(id) + nums +
         ReferenceJsonEscape(ReferenceMappingToString(mapping, personal,
                                                      repo)) +
         "\"}";
}

schema::NodeProperties Named(std::string name) {
  schema::NodeProperties props;
  props.name = std::move(name);
  return props;
}

std::string ZeroMs(const std::string& line) {
  static const std::regex kMs(",\"ms\":[0-9.]+,\"map\":\"");
  return std::regex_replace(line, kMs, ",\"ms\":0.000,\"map\":\"",
                            std::regex_constants::format_first_only);
}

TEST(MappingFormatTest, InPlaceFormattersMatchTheSnprintfReference) {
  // Names with every byte class the escaper distinguishes: quotes,
  // backslashes, control bytes, multi-byte UTF-8, DEL and the empty name.
  const std::vector<std::string> names = {
      "plain",      "q\"uote",         "back\\slash",
      "",           "c\x01\x1f\n\r\tl", "na\xC3\xAFve\xE2\x86\x92\xE5\x90\x8D",
      "del\x7f",    "\"\\\"",          "tail\x02"};
  schema::SchemaTree personal;
  schema::NodeId root = personal.AddNode(schema::kInvalidNode, Named(names[0]));
  for (size_t i = 1; i < names.size(); ++i) {
    personal.AddNode(root, Named(names[i]));
  }

  // Tree 0 is one chain 260 nodes deep, deeper than any fixed path buffer;
  // tree 1 is shallow with an empty root name.
  schema::SchemaForest forest;
  schema::SchemaTree chain;
  schema::NodeId parent = schema::kInvalidNode;
  for (int depth = 0; depth < 260; ++depth) {
    parent = chain.AddNode(
        parent, Named(names[depth % names.size()] + std::to_string(depth)));
  }
  forest.AddTree(std::move(chain));
  schema::SchemaTree shallow;
  schema::NodeId shallow_root =
      shallow.AddNode(schema::kInvalidNode, Named(""));
  for (size_t i = 1; i < names.size(); ++i) {
    shallow.AddNode(shallow_root, Named(names[i]));
  }
  forest.AddTree(std::move(shallow));
  auto snapshot = RepositorySnapshot::Create(std::move(forest));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  RepositoryPinPtr pin = *snapshot;
  const schema::SchemaForest& repo = pin->forest();

  // Rounding edges of the 4th and 6th decimal, exact 0 and 1.
  const std::vector<double> deltas = {
      0.12345650, 0.99999995, 0.0,        1.0,       0.00005,
      0.00004999, 0.9999995,  0.12344999, 0.5,       1.0 / 3.0,
      2.0 / 3.0,  0.0000005,  0.9999,     0.99995,   0.125};
  std::vector<generate::SchemaMapping> mappings;
  for (size_t d = 0; d < deltas.size(); ++d) {
    generate::SchemaMapping mapping;
    mapping.tree = static_cast<schema::TreeId>(d % 2);
    const schema::SchemaTree& t = repo.tree(mapping.tree);
    for (size_t i = 0; i < names.size(); ++i) {
      // Images at every depth, the deepest node included.
      const size_t node = (d * 37 + i * 53) % t.size();
      mapping.images.push_back(static_cast<schema::NodeId>(
          i == 0 && mapping.tree == 0 ? t.size() - 1 : node));
    }
    mapping.delta = deltas[d];
    mapping.delta_sim = deltas[(d + 1) % deltas.size()];
    mapping.delta_path = deltas[(d + 7) % deltas.size()];
    mappings.push_back(std::move(mapping));
  }

  for (const std::string& id :
       {std::string("q1"), std::string("id \"with\" \\ and \n")}) {
    std::vector<std::string> events;
    const EventSink sink = [&events](const std::string& line) {
      events.push_back(line);
    };
    NdjsonEventObserver observer(id, &personal, pin, sink,
                                 /*cluster_events=*/false);
    for (size_t m = 0; m < mappings.size(); ++m) {
      observer.OnMapping(mappings[m], m + 1);
    }
    ASSERT_EQ(events.size(), mappings.size());
    for (size_t m = 0; m < mappings.size(); ++m) {
      EXPECT_EQ(ZeroMs(events[m]),
                ReferenceMappingEvent(id, mappings[m], m + 1, personal, repo))
          << "mapping " << m;
    }
  }
  for (const generate::SchemaMapping& mapping : mappings) {
    EXPECT_EQ(generate::MappingToString(mapping, personal, repo),
              ReferenceMappingToString(mapping, personal, repo));
  }

  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte.push_back(static_cast<char>(c));
  EXPECT_EQ(Escaped(every_byte), ReferenceJsonEscape(every_byte));
  EXPECT_EQ(Escaped(""), "");
}

// The done / cluster / slow_query / generation events as first written
// (snprintf around an escaped id), kept as an independent reference for
// the in-place composers. The buffers are larger than the originals, which
// cut a huge "ms" value (1e300 prints 304 digits) short and so broke the
// line; the in-place composers never truncate.
std::string ReferenceDoneEvent(const std::string& id,
                               const core::MatchResult& result,
                               double elapsed_ms) {
  const core::MatchStats& stats = result.stats;
  char nums[1024];
  std::snprintf(
      nums, sizeof(nums),
      "\",\"mappings\":%zu,\"kept\":%zu,\"partial_mappings\":%zu,"
      "\"clusters\":%zu,\"useful\":%zu,\"ms\":%.3f}",
      stats.num_mappings, result.mappings.size(),
      result.partial_mappings.size(), stats.num_clusters,
      stats.num_useful_clusters, elapsed_ms);
  return "{\"type\":\"done\",\"id\":\"" + ReferenceJsonEscape(id) +
         "\",\"status\":\"" +
         std::string(core::ExecutionStatusName(result.execution)) + nums;
}

std::string ReferenceClusterEvent(const std::string& id, size_t sequence,
                                  size_t total,
                                  const core::ClusterSummary& summary,
                                  const core::MatchStats& so_far,
                                  double ms) {
  char nums[1024];
  std::snprintf(nums, sizeof(nums),
                "\",\"seq\":%zu,\"total\":%zu,\"tree\":%d,"
                "\"mappings\":%zu,\"partials_generated\":%llu,"
                "\"ms\":%.3f}",
                sequence, total, summary.tree, so_far.num_mappings,
                static_cast<unsigned long long>(
                    so_far.generator.partial_mappings),
                ms);
  return "{\"type\":\"cluster\",\"id\":\"" + ReferenceJsonEscape(id) +
         nums;
}

std::string ReferenceSlowQueryEvent(const std::string& id, double ms,
                                    double threshold_ms) {
  char nums[1024];
  std::snprintf(nums, sizeof(nums), "\",\"ms\":%.3f,\"threshold_ms\":%.3f}",
                ms, threshold_ms);
  return "{\"type\":\"slow_query\",\"id\":\"" + ReferenceJsonEscape(id) +
         nums;
}

std::string ReferenceGenerationEvent(const live::ApplyReport& report) {
  char nums[1024];
  std::snprintf(
      nums, sizeof(nums),
      "{\"type\":\"generation\",\"generation\":%llu,"
      "\"fingerprint\":\"%016llx\",\"trees\":%zu,\"trees_reused\":%zu,"
      "\"trees_rebuilt\":%zu,\"names_copied\":%zu,\"names_computed\":%zu,"
      "\"build_ms\":%.3f}",
      static_cast<unsigned long long>(report.generation),
      static_cast<unsigned long long>(report.fingerprint), report.trees_total,
      report.trees_reused, report.trees_rebuilt, report.name_entries_copied,
      report.name_entries_computed, 1e3 * report.build_seconds);
  return nums;
}

TEST(EventFormatTest, InPlaceEventsMatchTheSnprintfReference) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::string> ids = {
      "q1", "", "id \"with\" \\ and \n", "c\x01\x1f\tl",
      "na\xC3\xAFve\x7f"};
  // Wall-clock values at the edges: zero, rounding edges of the third
  // decimal, huge, infinite and not-a-number.
  const std::vector<double> ms_values = {
      0.0,   -0.0,     0.0005, 0.0004999, 1234.5675, 1.0 / 3.0,
      1e300, -1e300,  kInf,   -kInf,     kNaN,      -kNaN,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min()};
  std::vector<std::string> events;
  const EventSink sink = [&events](const std::string& line) {
    events.push_back(line);
  };

  // done: every terminal status, counts at 0 and SIZE_MAX.
  for (const std::string& id : ids) {
    for (size_t v = 0; v < ms_values.size(); ++v) {
      core::MatchResult result;
      result.execution = static_cast<core::ExecutionStatus>(v % 4);
      result.stats.num_mappings = v % 2 == 0 ? kMax : 0;
      result.stats.num_clusters = v % 3 == 0 ? kMax : v;
      result.stats.num_useful_clusters = v % 2 == 1 ? kMax : 0;
      result.mappings.resize(v % 3);
      result.partial_mappings.resize(v % 2);
      events.clear();
      ServeSession::EmitDoneEvent(id, result, ms_values[v], sink);
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0], ReferenceDoneEvent(id, result, ms_values[v]))
          << v;

      events.clear();
      ServeSession::EmitSlowQueryEvent(
          id, ms_values[v], ms_values[(v + 5) % ms_values.size()], sink);
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0],
                ReferenceSlowQueryEvent(
                    id, ms_values[v], ms_values[(v + 5) % ms_values.size()]))
          << v;
    }
  }

  // cluster: its "ms" is the observer's own clock, so it is compared as
  // written into the reference and everything else byte for byte.
  static const std::regex kTrailingMs(",\"ms\":([^,}]*)\\}$");
  for (const std::string& id : ids) {
    NdjsonEventObserver observer(id, /*personal=*/nullptr, /*pin=*/nullptr,
                                 sink, /*cluster_events=*/true);
    for (schema::TreeId tree : {std::numeric_limits<schema::TreeId>::min(),
                                -1, 0, 7,
                                std::numeric_limits<schema::TreeId>::max()}) {
      core::ClusterSummary summary;
      summary.tree = tree;
      core::MatchStats so_far;
      so_far.num_mappings = tree < 0 ? kMax : 0;
      so_far.generator.partial_mappings =
          tree > 0 ? std::numeric_limits<uint64_t>::max() : 0;
      const size_t sequence = tree == 0 ? kMax : 3;
      const size_t total = tree == 7 ? 0 : kMax;
      events.clear();
      observer.OnClusterFinish(sequence, total, summary, so_far);
      ASSERT_EQ(events.size(), 1u);
      std::smatch ms;
      ASSERT_TRUE(std::regex_search(events[0], ms, kTrailingMs)) << events[0];
      EXPECT_EQ(events[0],
                ReferenceClusterEvent(id, sequence, total, summary, so_far,
                                      std::stod(ms[1].str())));
    }
  }

  // generation: 64-bit extremes, fingerprints of every hex width.
  const std::vector<uint64_t> u64 = {
      0, 1, 0xabcdef, 0x0123456789abcdefull,
      std::numeric_limits<uint64_t>::max()};
  for (size_t v = 0; v < ms_values.size(); ++v) {
    live::ApplyReport report;
    report.generation = u64[v % u64.size()];
    report.fingerprint = u64[(v + 2) % u64.size()];
    report.trees_total = v % 2 == 0 ? kMax : 0;
    report.trees_reused = v;
    report.trees_rebuilt = v % 3 == 0 ? kMax : 1;
    report.name_entries_copied = kMax - v;
    report.name_entries_computed = 0;
    report.build_seconds = ms_values[v];
    events.clear();
    ServeSession::EmitGenerationEvent(report, sink);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], ReferenceGenerationEvent(report)) << v;
  }
}

}  // namespace
}  // namespace xsm::service
