// RepositorySnapshot: an immutable view of one loaded repository — the
// schema forest plus the structural index and matcher built over it, created
// once at load time and shared by every query. This is the service layer's
// unit of repository state: queries hold a shared_ptr<const ...> to the
// snapshot they run against, so a repository swap (live::RepositoryManager
// publishing a delta) never disturbs in-flight queries.
//
// Snapshots form generation chains: CreateSuccessor builds generation g+1
// from generation g by copy-on-write — trees the delta did not touch share
// their SchemaTree payload, TreeIndex labeling and NameDictionary per-name
// state with the predecessor; only touched trees are rebuilt. A successor
// is member-for-member equal to a snapshot built from scratch on the same
// forest (the live equivalence suite enforces this), except that it also
// records its predecessor's fingerprint and the reuse map, so the service
// can carry the predecessor's element matching over.
#ifndef XSM_SERVICE_REPOSITORY_SNAPSHOT_H_
#define XSM_SERVICE_REPOSITORY_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bellflower.h"
#include "label/tree_index.h"
#include "match/name_dictionary.h"
#include "schema/schema_forest.h"
#include "service/repository_pin.h"
#include "util/status.h"

namespace xsm::service {

/// Content hash of one tree: structure + node properties, independent of the
/// tree's position in the forest (a tree keeps its fingerprint when removals
/// renumber it). Exposed so other repository representations (the sharded
/// backend's federated view) fingerprint content identically to snapshots.
uint64_t FingerprintTree(const schema::SchemaTree& tree);

/// Folds per-tree fingerprints (in TreeId order) into the forest-level
/// fingerprint exactly the way RepositorySnapshot does, so equal content
/// yields equal fingerprints across backends.
uint64_t CombineForestFingerprint(size_t num_trees, size_t total_nodes,
                                  const std::vector<uint64_t>& tree_fps);

/// Immutable repository + index + matcher. Never mutated after creation, so
/// a const reference may be used from any number of threads concurrently.
/// A snapshot is the single-backend RepositoryPin: MatchService::Pin()
/// returns its current snapshot directly.
class RepositorySnapshot : public RepositoryPin {
 public:
  /// How a snapshot came to be: what CreateSuccessor reused versus rebuilt
  /// (a from-scratch Create reports everything as rebuilt/computed).
  struct BuildStats {
    size_t trees_reused = 0;      ///< index + dictionary state shared
    size_t trees_rebuilt = 0;     ///< labeled and indexed from scratch
    size_t name_entries_copied = 0;    ///< folds/signatures carried over
    size_t name_entries_computed = 0;  ///< folds/signatures computed anew
  };

  /// Validates and freezes `forest`, building the forest index once.
  /// Heap-allocates the snapshot so the matcher's internal pointer into the
  /// forest stays valid for the snapshot's whole life. The snapshot is
  /// generation 0 of a fresh chain.
  static Result<std::shared_ptr<const RepositorySnapshot>> Create(
      schema::SchemaForest forest);

  /// Builds the next generation from `previous` by copy-on-write.
  /// `reuse_map[t]` names the tree of `previous` that new tree `t` is —
  /// certified by shared-payload pointer equality, which is rejected with
  /// InvalidArgument when violated — or -1 for an added/replaced tree.
  /// Shared trees reuse the predecessor's TreeIndex, NameDictionary state
  /// and per-tree fingerprint; only the rest is built.
  static Result<std::shared_ptr<const RepositorySnapshot>> CreateSuccessor(
      const std::shared_ptr<const RepositorySnapshot>& previous,
      schema::SchemaForest forest,
      const std::vector<schema::TreeId>& reuse_map);

  /// Store-assembly hook (store::DeserializeSnapshot): adopts components
  /// deserialized from a persisted snapshot instead of building them, so a
  /// warm start never re-labels or re-folds anything. Validates `forest`,
  /// requires `index`/`dictionary` to describe it (the dictionary is
  /// re-bound to the forest's final address), and recomputes the content
  /// fingerprints from the adopted forest: a mismatch with
  /// `expected_fingerprint` / `expected_tree_fingerprints` (the values read
  /// from the file) fails with Corruption, so a loaded snapshot provably
  /// carries the content that was saved. The snapshot resumes the saved
  /// chain at `generation` — CreateSuccessor continues from generation + 1.
  static Result<std::shared_ptr<const RepositorySnapshot>> FromParts(
      schema::SchemaForest forest, label::ForestIndex index,
      match::NameDictionary dictionary, uint64_t generation,
      uint64_t expected_fingerprint,
      const std::vector<uint64_t>& expected_tree_fingerprints);

  RepositorySnapshot(const RepositorySnapshot&) = delete;
  RepositorySnapshot& operator=(const RepositorySnapshot&) = delete;

  const schema::SchemaForest& forest() const override { return forest_; }
  const core::Bellflower& matcher() const { return *matcher_; }
  const label::ForestIndex& index() const { return matcher_->index(); }
  /// Deduplicated name table over the forest, built once here so every
  /// query's element-matching stage scores distinct names instead of nodes.
  const match::NameDictionary& name_dictionary() const { return name_dict_; }

  size_t num_trees() const { return forest_.num_trees(); }
  size_t total_nodes() const { return forest_.total_nodes(); }

  /// Position in the snapshot chain: 0 for Create, predecessor + 1 for
  /// CreateSuccessor. Identifies "which repository state" in logs and
  /// service stats; cache correctness keys on fingerprint(), not on this.
  uint64_t generation() const override { return generation_; }

  /// Content hash over every tree's structure and node properties;
  /// identifies the repository *content* (two snapshots with equal
  /// fingerprints hold equal forests, whatever their generations) and
  /// namespaces the service's cluster caches.
  uint64_t fingerprint() const override { return fingerprint_; }

  /// Content hash of one tree (independent of its TreeId, so a tree keeps
  /// its fingerprint when removals renumber it).
  uint64_t tree_fingerprint(schema::TreeId id) const override {
    return tree_fingerprints_[static_cast<size_t>(id)];
  }

  /// What this snapshot's construction reused versus rebuilt.
  const BuildStats& build_stats() const { return build_stats_; }

  /// Whether CreateSuccessor built this snapshot; only then are
  /// predecessor_fingerprint() and reuse_map() set. Create and FromParts
  /// snapshots start a chain (or resume one from a file) and have neither.
  bool has_predecessor() const { return has_predecessor_; }
  /// Content fingerprint of the snapshot this one was built from.
  uint64_t predecessor_fingerprint() const { return predecessor_fingerprint_; }
  /// reuse_map()[t]: the predecessor's tree that tree `t` shares its
  /// payload with, or -1 for a tree the delta added or replaced.
  const std::vector<schema::TreeId>& reuse_map() const { return reuse_map_; }

 private:
  explicit RepositorySnapshot(schema::SchemaForest forest);

  /// Successor path: adopts the incrementally built index/dictionary.
  RepositorySnapshot(schema::SchemaForest forest,
                     const RepositorySnapshot& previous,
                     const std::vector<schema::TreeId>& reuse_map);

  /// Warm-start path: adopts deserialized components (see FromParts).
  RepositorySnapshot(schema::SchemaForest forest, label::ForestIndex index,
                     match::NameDictionary dictionary, uint64_t generation);

  /// Combines the per-tree fingerprints (already filled in) into the
  /// forest-level fingerprint.
  void FinishFingerprint();

  schema::SchemaForest forest_;
  std::unique_ptr<core::Bellflower> matcher_;
  match::NameDictionary name_dict_;
  uint64_t generation_ = 0;
  uint64_t fingerprint_ = 0;
  std::vector<uint64_t> tree_fingerprints_;
  BuildStats build_stats_;
  bool has_predecessor_ = false;
  uint64_t predecessor_fingerprint_ = 0;
  std::vector<schema::TreeId> reuse_map_;
};

}  // namespace xsm::service

#endif  // XSM_SERVICE_REPOSITORY_SNAPSHOT_H_
