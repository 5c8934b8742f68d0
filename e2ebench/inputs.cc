#include "inputs.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "repo/synthetic.h"
#include "schema/schema_tree.h"
#include "service/matcher.h"

namespace xsm::e2e {

namespace {

const WorkloadConfig kWorkloads[] = {
    {.name = "paper_cold", .connections = 1},
    {.name = "warm_hits", .connections = 2, .warm_set = 45},
    {.name = "ingest_mix",
     .connections = 1,
     .warm_set = 15,
     .passes_per_delta = 3},
    {.name = "fanout_100k",
     .repo_elements = kLargeRepoElements,
     .repo_seed = kLargeRepoSeed,
     .connections = 1,
     .shards = 4,
     .warm_set = 45},
};

// Record-like roots and the fields the synthetic repository's domains
// (contact, publication, commerce, organization, geo) spell in many ways.
const char* const kRoots[] = {
    "person",  "customer", "contact", "employee",  "order",
    "invoice", "book",     "library", "company",   "shipment",
    "member",  "user",     "article", "catalog",   "publication",
};
const char* const kFields[] = {
    "name",      "address",  "email",     "phone",   "id",
    "date",      "description", "url",    "status",  "type",
    "title",     "gender",   "age",       "company", "department",
    "city",      "street",   "zip",       "country", "author",
    "isbn",      "publisher", "year",     "chapter", "page",
    "edition",   "item",     "price",     "quantity", "total",
    "currency",  "sku",      "discount",
};

template <size_t N>
const char* Pick(Rng& rng, const char* const (&words)[N]) {
  return words[rng.Uniform(N)];
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return SeedForQuery(seed, std::to_string(salt));
}

// A personal schema: a record root with 2–4 fields, some nested one level
// under another field ("customer(name,address(city))"). Personal schemas
// are small by design; past five nodes a few schemas stream tens of
// megabytes of mapping events and one request can outlast a whole run.
std::string RandomPersonalSpec(Rng& rng) {
  const size_t nodes = static_cast<size_t>(rng.UniformInt(3, 5));
  struct Node {
    std::string name;
    std::vector<size_t> children;
  };
  std::vector<Node> tree(1);
  tree[0].name = Pick(rng, kRoots);
  for (size_t i = 1; i < nodes; ++i) {
    size_t parent = 0;
    if (tree[0].children.size() >= 2 && rng.WithProbability(0.3)) {
      parent = tree[0].children[rng.Uniform(tree[0].children.size())];
    }
    tree[parent].children.push_back(tree.size());
    std::string name = Pick(rng, kFields);
    if (rng.WithProbability(0.1)) name = "@" + name;
    tree.push_back({std::move(name), {}});
  }
  // An attribute cannot have children: demote parents back to elements.
  for (Node& node : tree) {
    if (!node.children.empty() && node.name[0] == '@') {
      node.name.erase(0, 1);
    }
  }
  std::string out;
  auto emit = [&](auto&& self, size_t n) -> void {
    out += tree[n].name;
    if (tree[n].children.empty()) return;
    out += '(';
    for (size_t c = 0; c < tree[n].children.size(); ++c) {
      if (c > 0) out += ',';
      self(self, tree[n].children[c]);
    }
    out += ')';
  };
  emit(emit, 0);
  return out;
}

// Same shape as `spec`, every name redrawn from the field vocabulary: a
// replacement that keeps the repository size level.
std::string RenamedSpec(const std::string& spec, Rng& rng) {
  std::string out;
  size_t i = 0;
  while (i < spec.size()) {
    const char c = spec[i];
    if (c == '(' || c == ')' || c == ',') {
      out += c;
      ++i;
      continue;
    }
    if (c == '@') {
      out += c;
      ++i;
    }
    while (i < spec.size() && spec[i] != '(' && spec[i] != ')' &&
           spec[i] != ',') {
      ++i;
    }
    out += Pick(rng, kFields);
  }
  return out;
}

// Trees a delta may target: moderate size, so a replacement exercises the
// incremental path rather than a bulk rebuild. Every fourth one (by id) is
// reserved for the durability blocks, the rest for ingest_mix's rounds.
enum class TargetUse { kRound, kBlock };
bool IsTarget(const schema::SchemaForest& forest, schema::TreeId t,
              TargetUse use) {
  const size_t size = forest.tree(t).size();
  return size >= 5 && size <= 40 &&
         ((t % 4 == 1) == (use == TargetUse::kBlock));
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& config : kWorkloads) {
    if (config.name == name) return &config;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& config : kWorkloads) names.push_back(config.name);
  return names;
}

core::MatchOptions PaperOptions() { return Table1Options(2); }

core::MatchOptions Table1Options(int join_distance) {
  core::MatchOptions options;
  options.element.threshold = 0.5;
  options.objective.alpha = 0.5;
  options.objective.k_norm = 0.0;  // K = repository diameter − 1
  options.delta = 0.75;
  options.kmeans.min_cluster_size = 4;
  options.kmeans.max_iterations = 25;
  if (join_distance == 0) {
    options.clustering = core::ClusteringMode::kTreeClusters;
  } else {
    options.clustering = core::ClusteringMode::kKMeans;
    options.kmeans.join_distance = join_distance;
  }
  return options;
}

schema::SchemaForest GenerateRepository(const WorkloadConfig& config) {
  repo::SyntheticRepoOptions options;
  options.target_elements = config.repo_elements;
  options.seed = config.repo_seed;
  auto forest = repo::GenerateSyntheticRepository(options);
  if (!forest.ok()) {
    std::fprintf(stderr, "repository generation failed: %s\n",
                 forest.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*forest);
}

schema::SchemaForest MakeRepository(const WorkloadConfig& config) {
  const schema::SchemaForest generated = GenerateRepository(config);
  // Block targets hold exactly what their tree spec says (properties the
  // spec notation cannot carry are dropped), so a block's restoring
  // `!replace` brings back the identical content and fingerprint.
  schema::SchemaForest forest;
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(generated.num_trees()); ++t) {
    if (IsTarget(generated, t, TargetUse::kBlock)) {
      forest.AddTree(
          *schema::ParseTreeSpec(schema::ToTreeSpec(generated.tree(t))),
          "serve:replace");
    } else {
      forest.AddTree(generated.tree_ptr(t), generated.source(t));
    }
  }
  return forest;
}

Script::Script(const WorkloadConfig& config, uint64_t seed,
               const schema::SchemaForest& repository)
    : config_(config),
      seed_(seed),
      repository_(&repository),
      cold_rng_(Mix(seed, 1)) {
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(repository.num_trees()); ++t) {
    if (IsTarget(repository, t, TargetUse::kRound)) targets_.push_back(t);
    if (IsTarget(repository, t, TargetUse::kBlock)) {
      block_targets_.push_back(t);
    }
  }
  if (config_.warm_set > 0) {
    // The warm set is the same for every run seed, so warm-workload
    // figures do not hinge on which schemas a seed happens to draw; the
    // run seed orders it within each round. It opens with the paper's
    // query.
    Rng warm_rng(kWarmSetSeed);
    for (size_t i = 0; i < config_.warm_set; ++i) {
      warmup_.push_back(
          MatchOp(i == 0 ? AddSchema("name(address,email)") : NewSchema(warm_rng),
                  false, -1));
    }
  } else {
    // The cold stream warms the connection and code paths with schemas
    // of its own, so timed requests still never repeat a cache key.
    for (size_t i = 0; i < 4; ++i) {
      warmup_.push_back(MatchOp(NewSchema(cold_rng_), false, -1));
    }
  }
}

size_t Script::round_length() const {
  if (config_.warm_set == 0) return 16;
  if (config_.passes_per_delta > 0) {
    return 1 + config_.warm_set * config_.passes_per_delta;
  }
  return config_.warm_set;
}

std::vector<Op> Script::Round(size_t r) {
  std::vector<Op> ops;
  const long round = static_cast<long>(r);
  if (config_.warm_set == 0) {
    for (size_t i = 0; i < round_length(); ++i) {
      ops.push_back(MatchOp(NewSchema(cold_rng_), false, round));
    }
    return ops;
  }
  Rng rng(Mix(seed_, 1000 + r));
  // A seeded order of the warm set.
  auto pass_order = [&]() {
    std::vector<size_t> order(config_.warm_set);
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    return order;
  };
  if (config_.passes_per_delta > 0) {
    const schema::TreeId target = targets_[rng.Uniform(targets_.size())];
    ops.push_back(ReplaceOp(
        target, RenamedSpec(schema::ToTreeSpec(repository_->tree(target)), rng),
        round));
    for (size_t pass = 0; pass < config_.passes_per_delta; ++pass) {
      for (size_t i : pass_order()) {
        ops.push_back(MatchOp(i, pass > 0, round));
      }
    }
    return ops;
  }
  for (size_t i : pass_order()) ops.push_back(MatchOp(i, true, round));
  return ops;
}

std::vector<Op> Script::Block(size_t k) const {
  Rng rng(Mix(seed_, 5000 + k));
  std::vector<Op> ops;
  for (size_t p = 0; p < kBlockPairs; ++p) {
    // The targets are the same for every seed (the seed draws the
    // variants), so ingest and recovery costs do not hinge on which tree
    // sizes a seed picks.
    const schema::TreeId target =
        block_targets_[(k * kBlockPairs + p) * 7 % block_targets_.size()];
    const std::string original = schema::ToTreeSpec(repository_->tree(target));
    ops.push_back(ReplaceOp(target, RenamedSpec(original, rng), -1));
    ops.push_back(ReplaceOp(target, original, -1));
  }
  ops.front().checkpoint = true;
  return ops;
}

size_t Script::NewSchema(Rng& rng) {
  for (;;) {
    const size_t schema = AddSchema(RandomPersonalSpec(rng));
    if (schema != kDuplicate) return schema;
  }
}

size_t Script::AddSchema(std::string spec) {
  auto tree = schema::ParseTreeSpec(spec);
  if (!tree.ok()) return kDuplicate;
  std::string key = service::BuildClusterStateKey(
      *tree, core::ClusterStateOptions::From(PaperOptions()));
  if (!keys_.insert(std::move(key)).second) return kDuplicate;
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

Op Script::MatchOp(size_t schema, bool expect_hit, long round) const {
  Op op;
  op.kind = OpKind::kMatch;
  op.schema = schema;
  op.expect_hit = expect_hit;
  op.round = round;
  op.line = specs_[schema] + " id=s" + std::to_string(schema) + " top=10";
  return op;
}

Op Script::ReplaceOp(schema::TreeId target, std::string tree_spec,
                     long round) const {
  Op op;
  op.kind = OpKind::kIngest;
  op.round = round;
  op.target = target;
  op.tree_spec = std::move(tree_spec);
  op.line = "!replace " + std::to_string(op.target) + " " + op.tree_spec;
  return op;
}

}  // namespace xsm::e2e
