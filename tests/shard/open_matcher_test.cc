// The one boot path: CreateMatcher picks the backend by shard count,
// OpenMatcher by the checkpoint on disk. A store snapshot and a shard
// manifest each boot with and without a journal, at the saved (or
// replayed) generation and fingerprint, on the backend that saved them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "live/repository_delta.h"
#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "shard/sharded_match_service.h"
#include "util/io.h"

namespace xsm::shard {
namespace {

namespace fs = std::filesystem;
using service::Matcher;
using util::io::Env;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_open_matcher_" + tag + "_" +
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

service::MatchServiceOptions LightOptions() {
  service::MatchServiceOptions options;
  options.num_threads = 1;
  return options;
}

schema::SchemaForest MakeCorpus() {
  repo::SyntheticRepoOptions options;
  options.target_elements = 400;
  options.seed = 17;
  auto forest = repo::GenerateSyntheticRepository(options);
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

live::RepositoryDelta AddDelta(int i) {
  live::DeltaBuilder builder;
  std::string spec = "extra" + std::to_string(i);
  spec += "(a,b,c)";
  auto tree = schema::ParseTreeSpec(spec);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  builder.AddTree(std::move(*tree), "feed://extra");
  auto delta = builder.Build();
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  return std::move(*delta);
}

void ExpectBoots(size_t num_shards) {
  SCOPED_TRACE(std::to_string(num_shards) + " shard(s)");
  TempDir dir(num_shards == 1 ? "unsharded" : "sharded");
  const std::string snap = dir.File("t.snap");
  const std::string wal = dir.File("t.wal");

  auto created = CreateMatcher(MakeCorpus(), LightOptions(), num_shards);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Matcher> matcher = std::move(*created);
  EXPECT_EQ(matcher->Shards().size(), num_shards);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(matcher->ApplyDelta(AddDelta(i)).ok());
  }
  auto saved = matcher->SaveSnapshot(snap);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->generation, 2u);
  ASSERT_TRUE(matcher->AttachWal(wal).ok());
  auto acked = matcher->ApplyDelta(AddDelta(2));
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  matcher.reset();  // no save after the journaled delta

  // Without a journal: the checkpoint alone, at the saved generation.
  auto warm = OpenMatcher(Env::Default(), snap, /*wal_path=*/"",
                          LightOptions());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ((*warm)->Shards().size(), num_shards);
  EXPECT_EQ((*warm)->CurrentGeneration(), saved->generation);
  EXPECT_EQ((*warm)->Pin()->fingerprint(), saved->fingerprint);
  EXPECT_FALSE((*warm)->wal_attached());

  // With the journal: the checkpoint plus the replayed delta, journaling on.
  live::RecoveryReport report;
  auto recovered =
      OpenMatcher(Env::Default(), snap, wal, LightOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Shards().size(), num_shards);
  EXPECT_EQ((*recovered)->CurrentGeneration(), acked->generation);
  EXPECT_EQ((*recovered)->Pin()->fingerprint(), acked->fingerprint);
  EXPECT_EQ(report.snapshot_generation, saved->generation);
  EXPECT_EQ(report.records_replayed, 1u);
  EXPECT_TRUE((*recovered)->wal_attached());
}

TEST(OpenMatcherTest, StoreSnapshotBootsUnshardedWithAndWithoutJournal) {
  ExpectBoots(1);
}

TEST(OpenMatcherTest, ShardManifestBootsShardedWithAndWithoutJournal) {
  ExpectBoots(3);
}

TEST(OpenMatcherTest, MissingCheckpointIsTyped) {
  TempDir dir("missing");
  auto opened = OpenMatcher(Env::Default(), dir.File("absent.snap"), "",
                            LightOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError)
      << opened.status().ToString();
}

}  // namespace
}  // namespace xsm::shard
