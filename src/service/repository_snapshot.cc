#include "service/repository_snapshot.h"

#include <utility>

#include "util/random.h"

namespace xsm::service {

namespace {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

/// Content hash of one tree: structure (parent links) plus every node
/// property. Independent of the tree's position in the forest, so a
/// successor snapshot can carry fingerprints of shared trees over even
/// when removals renumber them.
uint64_t FingerprintTree(const schema::SchemaTree& tree) {
  uint64_t h = Mix(0x5CA1AB1Eu, tree.size());
  for (schema::NodeId n = 0; n < static_cast<schema::NodeId>(tree.size());
       ++n) {
    const schema::NodeProperties& props = tree.props(n);
    h = Mix(h, Fnv1a(props.name));
    h = Mix(h, Fnv1a(props.datatype));
    h = Mix(h, static_cast<uint64_t>(props.kind));
    h = Mix(h, (props.repeatable ? 2u : 0u) | (props.optional ? 1u : 0u));
    h = Mix(h, static_cast<uint64_t>(tree.parent(n)) + 1);
  }
  return h;
}

uint64_t CombineForestFingerprint(size_t num_trees, size_t total_nodes,
                                  const std::vector<uint64_t>& tree_fps) {
  uint64_t h = Mix(num_trees, total_nodes);
  for (uint64_t tree_fp : tree_fps) {
    h = Mix(h, tree_fp);
  }
  return h;
}

void RepositorySnapshot::FinishFingerprint() {
  fingerprint_ = CombineForestFingerprint(
      forest_.num_trees(), forest_.total_nodes(), tree_fingerprints_);
}

Result<std::shared_ptr<const RepositorySnapshot>> RepositorySnapshot::Create(
    schema::SchemaForest forest) {
  XSM_RETURN_NOT_OK(forest.Validate());
  // Not make_shared: the constructor is private and the forest must be in
  // its final location before the matcher indexes it.
  std::shared_ptr<const RepositorySnapshot> snapshot(
      new RepositorySnapshot(std::move(forest)));
  return snapshot;
}

Result<std::shared_ptr<const RepositorySnapshot>>
RepositorySnapshot::CreateSuccessor(
    const std::shared_ptr<const RepositorySnapshot>& previous,
    schema::SchemaForest forest,
    const std::vector<schema::TreeId>& reuse_map) {
  if (previous == nullptr) {
    return Status::InvalidArgument("successor requires a previous snapshot");
  }
  if (reuse_map.size() != forest.num_trees()) {
    return Status::InvalidArgument(
        "reuse map must name every tree of the new forest");
  }
  const schema::SchemaForest& base = previous->forest();
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
    schema::TreeId prev = reuse_map[static_cast<size_t>(t)];
    if (prev < 0) continue;
    if (static_cast<size_t>(prev) >= base.num_trees()) {
      return Status::InvalidArgument("reuse map names a nonexistent tree");
    }
    // Reuse is only sound for the identical frozen payload: pointer
    // equality is the certificate (a content-equal copy would still be
    // safe, but the copy-on-write contract is sharing, so demand it).
    if (forest.tree_ptr(t) != base.tree_ptr(prev)) {
      return Status::InvalidArgument(
          "reuse map entry does not share the previous tree's payload");
    }
  }
  // Validate only the new payloads: shared trees were validated when they
  // first entered the chain, and the pointer check above certifies they
  // are those very objects.
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
    if (reuse_map[static_cast<size_t>(t)] < 0) {
      XSM_RETURN_NOT_OK(forest.tree(t).Validate());
    }
  }
  std::shared_ptr<const RepositorySnapshot> snapshot(
      new RepositorySnapshot(std::move(forest), *previous, reuse_map));
  return snapshot;
}

Result<std::shared_ptr<const RepositorySnapshot>>
RepositorySnapshot::FromParts(
    schema::SchemaForest forest, label::ForestIndex index,
    match::NameDictionary dictionary, uint64_t generation,
    uint64_t expected_fingerprint,
    const std::vector<uint64_t>& expected_tree_fingerprints) {
  XSM_RETURN_NOT_OK(forest.Validate());
  if (index.num_trees() != forest.num_trees()) {
    return Status::InvalidArgument(
        "adopted index does not describe the forest");
  }
  if (dictionary.total_nodes() != forest.total_nodes()) {
    return Status::InvalidArgument(
        "adopted dictionary does not describe the forest");
  }
  if (expected_tree_fingerprints.size() != forest.num_trees()) {
    return Status::Corruption(
        "per-tree fingerprint count does not match the forest");
  }
  std::shared_ptr<const RepositorySnapshot> snapshot(new RepositorySnapshot(
      std::move(forest), std::move(index), std::move(dictionary),
      generation));
  // The constructor recomputed fingerprints from the adopted forest; the
  // expected values came from the persisted file. Equality proves the
  // loaded snapshot carries exactly the content that was saved.
  if (snapshot->fingerprint() != expected_fingerprint) {
    return Status::Corruption(
        "loaded forest fingerprint does not match the saved one");
  }
  for (size_t t = 0; t < expected_tree_fingerprints.size(); ++t) {
    if (snapshot->tree_fingerprints_[t] != expected_tree_fingerprints[t]) {
      return Status::Corruption("tree " + std::to_string(t) +
                                " fingerprint does not match the saved one");
    }
  }
  return snapshot;
}

RepositorySnapshot::RepositorySnapshot(schema::SchemaForest forest)
    : forest_(std::move(forest)) {
  matcher_ = std::make_unique<core::Bellflower>(&forest_);
  name_dict_ = match::NameDictionary::Build(forest_);
  build_stats_.trees_rebuilt = forest_.num_trees();
  build_stats_.name_entries_computed = name_dict_.size();
  tree_fingerprints_.reserve(forest_.num_trees());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest_.num_trees()); ++t) {
    tree_fingerprints_.push_back(FingerprintTree(forest_.tree(t)));
  }
  FinishFingerprint();
}

RepositorySnapshot::RepositorySnapshot(schema::SchemaForest forest,
                                       label::ForestIndex index,
                                       match::NameDictionary dictionary,
                                       uint64_t generation)
    : forest_(std::move(forest)),
      name_dict_(std::move(dictionary)),
      generation_(generation) {
  matcher_ = std::make_unique<core::Bellflower>(&forest_, std::move(index));
  // The dictionary was deserialized against the pre-move forest; its
  // content (refs, entries) is address-free, only the back-pointer moves.
  name_dict_.BindForest(&forest_);
  // Nothing was rebuilt: the whole point of a warm start.
  build_stats_.trees_reused = forest_.num_trees();
  build_stats_.name_entries_copied = name_dict_.size();
  tree_fingerprints_.reserve(forest_.num_trees());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest_.num_trees()); ++t) {
    tree_fingerprints_.push_back(FingerprintTree(forest_.tree(t)));
  }
  FinishFingerprint();
}

RepositorySnapshot::RepositorySnapshot(
    schema::SchemaForest forest, const RepositorySnapshot& previous,
    const std::vector<schema::TreeId>& reuse_map)
    : forest_(std::move(forest)),
      generation_(previous.generation_ + 1),
      has_predecessor_(true),
      predecessor_fingerprint_(previous.fingerprint_),
      reuse_map_(reuse_map) {
  label::ForestIndex::IncrementalStats index_stats;
  label::ForestIndex index = label::ForestIndex::BuildIncremental(
      forest_, previous.index(), reuse_map, &index_stats);
  matcher_ = std::make_unique<core::Bellflower>(&forest_, std::move(index));

  match::NameDictionary::IncrementalStats dict_stats;
  name_dict_ = match::NameDictionary::BuildIncremental(
      forest_, previous.name_dictionary(), reuse_map, &dict_stats);

  build_stats_.trees_reused = index_stats.trees_reused;
  build_stats_.trees_rebuilt = index_stats.trees_rebuilt;
  build_stats_.name_entries_copied = dict_stats.entries_copied;
  build_stats_.name_entries_computed = dict_stats.entries_computed;

  tree_fingerprints_.reserve(forest_.num_trees());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest_.num_trees()); ++t) {
    schema::TreeId prev = reuse_map[static_cast<size_t>(t)];
    tree_fingerprints_.push_back(prev >= 0
                                     ? previous.tree_fingerprint(prev)
                                     : FingerprintTree(forest_.tree(t)));
  }
  FinishFingerprint();
}

}  // namespace xsm::service
