// Seeded inputs of the end-to-end benchmark: the repositories, the personal
// schemas, and the request script of every workload.
//
// The script fixes every cluster-cache outcome: each match op declares
// whether it must hit or miss, and the benchmark verifies the backend's
// cache counters against those declarations. Timing never decides an
// outcome — a warm set is warmed before the clock starts, a cold stream
// never repeats a cache key, a round delta always produces repository
// content no earlier generation had, and a durability block restores what
// it replaced.
#ifndef XSM_E2EBENCH_INPUTS_H_
#define XSM_E2EBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/bellflower.h"
#include "schema/schema_forest.h"
#include "util/random.h"

namespace xsm::e2e {

/// Seed used when --seed is not given; the paper's experiment seed.
inline constexpr uint64_t kDefaultSeed = 2006;
/// The paper-sized repository is always the §5 one (seed 2006), so the
/// Table 1 gate holds whatever traffic seed a run uses.
inline constexpr uint64_t kPaperRepoSeed = 2006;
inline constexpr size_t kPaperRepoElements = 9759;
inline constexpr uint64_t kLargeRepoSeed = 2006;
inline constexpr size_t kLargeRepoElements = 100000;

/// Seed of the warm set, which every run seed shares.
inline constexpr uint64_t kWarmSetSeed = 2006;

/// The timed phase runs in kBlocks segments. After each one, with the
/// clients idle, a durability block checkpoints the tenant, ingests
/// kBlockPairs pairs of deltas — a tree replaced by a variant, then
/// restored — and recovers the tenant from disk kRecoveriesPerBlock times.
/// Spreading ingests and recoveries over the run keeps one slow moment of a
/// shared machine from deciding their medians. Restoring each tree brings
/// back the repository's fingerprint, and with it the warm cache namespace,
/// so the scripted cache outcomes of the next segment hold.
inline constexpr size_t kBlocks = 10;
inline constexpr size_t kBlockPairs = 4;
inline constexpr size_t kRecoveriesPerBlock = 2;

enum class OpKind { kMatch, kIngest };

struct Op {
  OpKind kind = OpKind::kMatch;
  /// HTTP body: one query line, or one `!replace` command line.
  std::string line;
  /// Match ops: index of the personal schema.
  size_t schema = 0;
  /// Match ops: the scripted cluster-cache outcome.
  bool expect_hit = false;
  /// Ingest ops: the replaced tree and its replacement spec.
  schema::TreeId target = -1;
  std::string tree_spec;
  /// Round of the timed phase this op belongs to; -1 for set-up warm-up
  /// ops and durability-block ops.
  long round = -1;
  /// The tenant is checkpointed right before this op (the first op of a
  /// durability block).
  bool checkpoint = false;
};

struct WorkloadConfig {
  std::string name;
  size_t repo_elements = kPaperRepoElements;
  uint64_t repo_seed = kPaperRepoSeed;
  size_t connections = 1;
  size_t shards = 1;
  /// Personal schemas warmed during set-up; 0 for the cold stream. An odd
  /// multiple of 5 (15, 45) puts the nearest-rank p50 and p90 of a round
  /// mid-way through one schema's samples rather than on the step between
  /// two schemas.
  size_t warm_set = 0;
  /// Passes over the warm set after each round delta (ingest_mix).
  size_t passes_per_delta = 0;
};

/// The four workloads, or nullptr for an unknown name.
const WorkloadConfig* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The session defaults every request runs with: the paper's §5 "small"
/// configuration (element threshold 0.5, α 0.5, δ 0.75, k-means with join
/// distance 2).
core::MatchOptions PaperOptions();

/// The paper's three clustered variants plus the tree baseline.
core::MatchOptions Table1Options(int join_distance /* 0 = tree */);

/// The synthetic repository of `config`, exactly as generated.
schema::SchemaForest GenerateRepository(const WorkloadConfig& config);

/// The workload repository: GenerateRepository with the durability blocks'
/// target trees in tree-spec form (deterministic in `config`).
schema::SchemaForest MakeRepository(const WorkloadConfig& config);

/// The request script of one run: set-up warm-up ops, an unbounded
/// sequence of timed rounds, and the durability blocks. Rounds must be
/// requested in order 0, 1, 2, ... (the cold stream draws fresh schemas);
/// callers serialize access.
class Script {
 public:
  /// `repository` is MakeRepository(config); it must outlive the script.
  Script(const WorkloadConfig& config, uint64_t seed,
         const schema::SchemaForest& repository);

  const std::vector<Op>& warmup() const { return warmup_; }
  /// The ops of timed round `r`.
  std::vector<Op> Round(size_t r);
  /// The ingest ops of durability block `k`.
  std::vector<Op> Block(size_t k) const;

 private:
  size_t round_length() const;
  /// A personal schema of 3–5 nodes whose cache key no earlier schema of
  /// this script has.
  size_t NewSchema(Rng& rng);
  /// Registers `spec`; kDuplicate if it is malformed or its cache key is
  /// taken.
  size_t AddSchema(std::string spec);
  static constexpr size_t kDuplicate = static_cast<size_t>(-1);
  Op MatchOp(size_t schema, bool expect_hit, long round) const;
  Op ReplaceOp(schema::TreeId target, std::string tree_spec, long round) const;

  WorkloadConfig config_;
  uint64_t seed_;
  const schema::SchemaForest* repository_;
  /// Delta targets of ingest_mix's rounds and of the durability blocks
  /// (disjoint, so a block target always holds its original content).
  std::vector<schema::TreeId> targets_;
  std::vector<schema::TreeId> block_targets_;
  std::vector<Op> warmup_;

  std::vector<std::string> specs_;
  std::set<std::string> keys_;
  Rng cold_rng_;
};

}  // namespace xsm::e2e

#endif  // XSM_E2EBENCH_INPUTS_H_
