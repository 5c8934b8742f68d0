// The fault-continuation sweep. The crash sweeps kill the process at a
// write boundary; this one fails exactly one write operation and lets the
// script go on, as a serving process does. The script (attach, a base
// checkpoint, deltas, a checkpoint, a rebalancing add, more deltas, a
// second checkpoint, more deltas) runs once fault-free to list its
// boundaries: every append (torn at 0, 1 and frame size - 1 bytes), every
// fsync, every rename and every open. Each boundary then gets one injected
// failure. A delta that fails is retried at every later delta step, so it
// lands after the next successful checkpoint re-bases a closed journal.
// Recovery on a clean Env must land on the last acknowledged generation
// and fingerprint, and answer queries as the chain that never failed does.
// Both backends run the same script and must write the same journal bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "shard/sharded_match_service.h"
#include "util/io.h"
#include "wal/wal.h"

namespace xsm::shard {
namespace {

namespace fs = std::filesystem;
using live::DeltaBuilder;
using live::RepositoryDelta;
using service::Matcher;
using service::MatchServiceOptions;
using util::io::Env;
using util::io::FaultInjectionEnv;
using util::io::FaultPlan;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_fault_continuation_" + tag + "_" +
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

/// FaultInjectionEnv plus one scheduled failure of the Nth file open,
/// which FaultPlan has no rule for.
class OpenFaultEnv : public Env {
 public:
  OpenFaultEnv(FaultPlan plan, int64_t fail_open_at)
      : inner_(std::move(plan)), fail_open_at_(fail_open_at) {}

  Result<std::unique_ptr<util::io::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    if (opens_++ == fail_open_at_) {
      return Status::IOError("injected open failure on " + path);
    }
    return inner_.NewWritableFile(path, truncate);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return inner_.ReadFileToString(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return inner_.RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return inner_.RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return inner_.TruncateFile(path, size);
  }
  Status SyncDir(const std::string& path) override {
    return inner_.SyncDir(path);
  }
  bool FileExists(const std::string& path) override {
    return inner_.FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return inner_.FileSize(path);
  }

  const util::io::FaultStats& stats() const { return inner_.stats(); }
  int64_t opens() const { return opens_; }

 private:
  FaultInjectionEnv inner_;
  int64_t fail_open_at_;
  int64_t opens_ = 0;
};

schema::SchemaTree Spec(const std::string& spec) {
  auto tree = schema::ParseTreeSpec(spec);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

RepositoryDelta Build(DeltaBuilder&& builder) {
  auto delta = builder.Build();
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  return std::move(*delta);
}

/// Nine small trees, three per shard at K = 3.
schema::SchemaForest MakeBase() {
  schema::SchemaForest base;
  for (const char* spec :
       {"person(name,email,phone)", "book(title,author,isbn)",
        "order(item,qty,price)", "customer(id,name,address)",
        "invoice(number,total,date)", "product(sku,name,price)",
        "employee(id,name,dept)", "account(id,owner,balance)",
        "ticket(id,title,status)"}) {
    base.AddTree(Spec(spec), spec);
  }
  return base;
}

/// d2 is the bulk add that skews the node balance past the sharded
/// backend's rebalance threshold.
std::vector<RepositoryDelta> MakeDeltas() {
  std::vector<RepositoryDelta> deltas;
  DeltaBuilder d0;
  d0.ReplaceTree(0, Spec("vendor(id,name,address(street,city))"), "d0");
  deltas.push_back(Build(std::move(d0)));
  DeltaBuilder d1;
  d1.ReplaceTree(4, Spec("payment(amount,method,@currency)"), "d1");
  d1.ReplaceTree(8, Spec("invoice(total,customer(name,address))"), "d1");
  deltas.push_back(Build(std::move(d1)));
  DeltaBuilder d2;
  for (int i = 0; i < 8; ++i) {
    d2.AddTree(Spec("bulk(a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p)"),
               "bulk" + std::to_string(i));
  }
  deltas.push_back(Build(std::move(d2)));
  DeltaBuilder d3;
  d3.RemoveTree(1);
  deltas.push_back(Build(std::move(d3)));
  DeltaBuilder d4;
  d4.ReplaceTree(2, Spec("order(id,lines(line(sku,qty)))"), "d4");
  deltas.push_back(Build(std::move(d4)));
  DeltaBuilder d5;
  d5.RemoveTree(0);
  d5.AddTree(Spec("shipment(id,carrier,@tracking)"), "d5");
  deltas.push_back(Build(std::move(d5)));
  return deltas;
}

/// After the attach and the base checkpoint: 'd' applies the next delta
/// not yet acknowledged, 's' checkpoints.
constexpr const char kScript[] = "ddsddsdd";

MatchServiceOptions LightOptions() {
  MatchServiceOptions options;
  options.num_threads = 1;
  return options;
}

/// One backend under test: how to create it and how to recover it.
struct Backend {
  std::string name;
  std::function<std::unique_ptr<Matcher>(const schema::SchemaForest&, Env*)>
      create;
  std::function<Result<std::unique_ptr<Matcher>>(
      const std::string& snap, const std::string& wal)>
      recover;
};

Backend Unsharded() {
  return {"unsharded",
          [](const schema::SchemaForest& base,
             Env* env) -> std::unique_ptr<Matcher> {
            auto service =
                service::MatchService::Create(base, LightOptions(), env);
            EXPECT_TRUE(service.ok()) << service.status().ToString();
            return std::move(*service);
          },
          [](const std::string& snap,
             const std::string& wal) -> Result<std::unique_ptr<Matcher>> {
            XSM_ASSIGN_OR_RETURN(
                std::unique_ptr<service::MatchService> service,
                service::MatchService::Recover(Env::Default(), snap, wal,
                                               LightOptions()));
            return std::unique_ptr<Matcher>(std::move(service));
          }};
}

Backend Sharded() {
  return {"sharded",
          [](const schema::SchemaForest& base,
             Env* env) -> std::unique_ptr<Matcher> {
            auto service = ShardedMatchService::Create(
                base, LightOptions(), ShardedOptions{3}, env);
            EXPECT_TRUE(service.ok()) << service.status().ToString();
            return std::move(*service);
          },
          [](const std::string& snap,
             const std::string& wal) -> Result<std::unique_ptr<Matcher>> {
            XSM_ASSIGN_OR_RETURN(
                std::unique_ptr<ShardedMatchService> service,
                ShardedMatchService::Recover(Env::Default(), snap, wal,
                                             LightOptions()));
            return std::unique_ptr<Matcher>(std::move(service));
          }};
}

struct ScriptOutcome {
  bool booted = false;            ///< journal attached, base checkpoint saved
  uint64_t acked_generation = 0;  ///< last generation ApplyDelta returned
  uint64_t acked_fingerprint = 0;
  /// Journal bytes read just before each checkpoint step.
  std::vector<std::string> journals;
};

/// Runs kScript on a fresh backend with every write through `env`.
ScriptOutcome RunScript(const Backend& backend, Env* env,
                        const schema::SchemaForest& base,
                        const std::vector<RepositoryDelta>& deltas,
                        const std::string& snap, const std::string& wal) {
  ScriptOutcome outcome;
  std::unique_ptr<Matcher> matcher = backend.create(base, env);
  outcome.acked_fingerprint = matcher->Pin()->fingerprint();
  // A tenant serves only once its journal and base checkpoint exist, so
  // each is retried once (one fault per run).
  auto twice = [](const std::function<bool()>& step) {
    return step() || step();
  };
  if (!twice([&] { return matcher->AttachWal(wal).ok(); }) ||
      !twice([&] { return matcher->SaveSnapshot(snap).ok(); })) {
    return outcome;
  }
  outcome.booted = true;
  size_t next = 0;
  for (const char step : std::string(kScript)) {
    if (step == 's') {
      auto journal = Env::Default()->ReadFileToString(wal);
      outcome.journals.push_back(journal.ok() ? *journal : "");
      (void)matcher->SaveSnapshot(snap);
      continue;
    }
    auto report = matcher->ApplyDelta(deltas[next]);
    if (!report.ok()) continue;  // retried at the next delta step
    outcome.acked_generation = report->generation;
    outcome.acked_fingerprint = report->fingerprint;
    ++next;
  }
  return outcome;
}

/// The chain that never failed: one snapshot per generation.
std::vector<std::shared_ptr<const service::RepositorySnapshot>> ReferenceChain(
    const schema::SchemaForest& base,
    const std::vector<RepositoryDelta>& deltas) {
  auto manager = live::RepositoryManager::Create(base);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  std::vector<std::shared_ptr<const service::RepositorySnapshot>> chain = {
      (*manager)->Current()};
  for (const RepositoryDelta& delta : deltas) {
    auto report = (*manager)->Apply(delta);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    chain.push_back((*manager)->Current());
  }
  return chain;
}

/// Every mapping of a few queries, as text: tree, images and Δ.
std::string Answers(Matcher* matcher) {
  std::string out;
  for (const char* spec :
       {"person(name,email)", "order(id,item)", "bulk(a,b,c)"}) {
    service::MatchRequest request;
    request.id = spec;
    request.personal = Spec(spec);
    request.options.delta = 0.5;
    auto outcome = matcher->Run(request);
    if (!outcome.ok()) return spec + (": " + outcome.status().ToString());
    out += spec;
    for (const generate::SchemaMapping& m : outcome->result.mappings) {
      out += " [" + std::to_string(m.tree) + ":";
      for (schema::NodeId image : m.images) {
        out += std::to_string(image) + ",";
      }
      out += std::to_string(m.delta) + "]";
    }
    out += "\n";
  }
  return out;
}

/// One boundary of the fault-free run.
struct Fault {
  std::string label;
  FaultPlan plan;
  int64_t fail_open_at = -1;
};

std::vector<Fault> Boundaries(const OpenFaultEnv& probe) {
  const util::io::FaultStats& stats = probe.stats();
  std::vector<Fault> faults;
  for (int64_t i = 0; i < stats.appends; ++i) {
    for (size_t torn : {size_t{0}, size_t{1}, wal::kWalRecordFrameSize - 1}) {
      Fault fault;
      fault.label = "append " + std::to_string(i) + " torn at " +
                    std::to_string(torn);
      fault.plan.fail_append_at = i;
      fault.plan.append_persist_bytes = torn;
      faults.push_back(fault);
    }
  }
  for (int64_t i = 0; i < stats.syncs; ++i) {
    Fault fault;
    fault.label = "fsync " + std::to_string(i);
    fault.plan.fail_sync_at = i;
    faults.push_back(fault);
  }
  for (int64_t i = 0; i < stats.renames; ++i) {
    Fault fault;
    fault.label = "rename " + std::to_string(i);
    fault.plan.fail_rename_at = i;
    faults.push_back(fault);
  }
  for (int64_t i = 0; i < probe.opens(); ++i) {
    Fault fault;
    fault.label = "open " + std::to_string(i);
    fault.fail_open_at = i;
    faults.push_back(fault);
  }
  return faults;
}

/// The sweep for one backend: fails listing every boundary whose recovery
/// lost, invented or changed an acknowledged generation.
void Sweep(const Backend& backend) {
  const schema::SchemaForest base = MakeBase();
  const std::vector<RepositoryDelta> deltas = MakeDeltas();
  const auto chain = ReferenceChain(base, deltas);
  std::map<uint64_t, std::string> expected_answers;
  auto expected = [&](uint64_t generation) -> const std::string& {
    auto it = expected_answers.find(generation);
    if (it == expected_answers.end()) {
      service::MatchService reference(chain[generation], LightOptions());
      it = expected_answers.emplace(generation, Answers(&reference)).first;
    }
    return it->second;
  };

  TempDir probe_dir(backend.name + "_probe");
  OpenFaultEnv probe(FaultPlan{}, -1);
  const ScriptOutcome full =
      RunScript(backend, &probe, base, deltas, probe_dir.File("t.snap"),
                probe_dir.File("t.wal"));
  ASSERT_TRUE(full.booted);
  ASSERT_EQ(full.acked_generation, deltas.size());
  const std::vector<Fault> faults = Boundaries(probe);
  ASSERT_GT(faults.size(), 50u) << "suspiciously few write boundaries";

  std::vector<std::string> failing;
  for (size_t f = 0; f < faults.size(); ++f) {
    const Fault& fault = faults[f];
    TempDir dir(backend.name + "_" + std::to_string(f));
    const std::string snap = dir.File("t.snap");
    const std::string wal = dir.File("t.wal");
    OpenFaultEnv env(fault.plan, fault.fail_open_at);
    const ScriptOutcome outcome =
        RunScript(backend, &env, base, deltas, snap, wal);
    const bool fired = fault.fail_open_at >= 0
                           ? env.opens() > fault.fail_open_at
                           : env.stats().appends > fault.plan.fail_append_at &&
                                 env.stats().syncs > fault.plan.fail_sync_at &&
                                 env.stats().renames > fault.plan.fail_rename_at;
    EXPECT_TRUE(fired) << fault.label << ": the fault never fired";
    EXPECT_TRUE(outcome.booted) << fault.label;
    if (!outcome.booted) continue;

    std::string problem;
    auto recovered = backend.recover(snap, wal);
    if (!recovered.ok()) {
      problem = "recovery failed: " + recovered.status().ToString();
    } else if ((*recovered)->CurrentGeneration() != outcome.acked_generation ||
               (*recovered)->Pin()->fingerprint() !=
                   outcome.acked_fingerprint) {
      problem = "recovered generation " +
                std::to_string((*recovered)->CurrentGeneration()) +
                ", acknowledged " + std::to_string(outcome.acked_generation);
    } else if (Answers(recovered->get()) !=
               expected(outcome.acked_generation)) {
      problem = "recovered chain answers queries differently";
    }
    if (!problem.empty()) failing.push_back(fault.label + ": " + problem);
  }
  EXPECT_TRUE(failing.empty()) << [&] {
    std::string all = std::to_string(failing.size()) + " of " +
                      std::to_string(faults.size()) +
                      " boundaries lost acknowledged state:\n";
    for (const std::string& line : failing) all += "  " + line + "\n";
    return all;
  }();
}

TEST(FaultContinuationTest, UnshardedSweepKeepsEveryAcknowledgedDelta) {
  Sweep(Unsharded());
}

TEST(FaultContinuationTest, ShardedSweepKeepsEveryAcknowledgedDelta) {
  Sweep(Sharded());
}

TEST(FaultContinuationTest, BackendsWriteByteIdenticalJournals) {
  const schema::SchemaForest base = MakeBase();
  const std::vector<RepositoryDelta> deltas = MakeDeltas();
  std::vector<std::vector<std::string>> journals;
  for (const Backend& backend : {Unsharded(), Sharded()}) {
    TempDir dir(backend.name + "_journal");
    const ScriptOutcome outcome =
        RunScript(backend, Env::Default(), base, deltas, dir.File("t.snap"),
                  dir.File("t.wal"));
    ASSERT_EQ(outcome.acked_generation, deltas.size()) << backend.name;
    auto last = Env::Default()->ReadFileToString(dir.File("t.wal"));
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    journals.push_back(outcome.journals);
    journals.back().push_back(*last);
  }
  ASSERT_EQ(journals[0].size(), 3u);
  for (size_t i = 0; i < journals[0].size(); ++i) {
    EXPECT_GT(journals[0][i].size(), wal::kWalHeaderSize) << "journal " << i;
    EXPECT_EQ(journals[0][i], journals[1][i]) << "journal " << i;
  }
}

}  // namespace
}  // namespace xsm::shard
