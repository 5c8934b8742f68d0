// NameDictionary: the deduplicated name table of one repository forest.
//
// Repository corpora repeat names heavily (a few thousand distinct names
// across ~10^5 nodes), so the element-matching engine scores personal nodes
// against *distinct names* and broadcasts the qualifying scores back to
// nodes through per-name posting lists. The dictionary is that precomputed
// index: one entry per distinct spelling, carrying the cached ASCII
// case-fold (so the scoring loop never re-lowercases a repository name)
// and the nodes holding the name, sorted by NodeRef and split by node kind
// (so attribute filtering never re-reads node properties).
//
// Immutable after Build, never mutated by the engine: one dictionary is
// built per service::RepositorySnapshot and shared by every query against
// it, from any number of threads.
#ifndef XSM_MATCH_NAME_DICTIONARY_H_
#define XSM_MATCH_NAME_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "schema/schema_forest.h"
#include "sim/string_similarity.h"
#include "util/wire.h"

namespace xsm::service {
class RepositorySnapshot;
}

namespace xsm::match {

class NameDictionary {
 public:
  struct Entry {
    std::string name;   ///< raw spelling, exactly as in the forest
    std::string lower;  ///< cached ASCII case-fold of `name`
    /// Character histogram of `lower`, for bag-distance candidate pruning.
    sim::NameSignature signature;
    /// Posting lists: nodes carrying the name, sorted by NodeRef, split by
    /// kind so ElementMatchingOptions::match_attributes is a list choice.
    std::vector<schema::NodeRef> element_nodes;
    std::vector<schema::NodeRef> attribute_nodes;
    /// First node carrying the name (in NodeRef order). Part of the
    /// snapshot format, whose loader checks it.
    schema::NodeRef representative;

    size_t num_nodes() const {
      return element_nodes.size() + attribute_nodes.size();
    }
  };

  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// How much of an incremental build reused the previous dictionary's
  /// per-name state (the case-folds and signatures — the compute-heavy
  /// part) instead of recomputing it.
  struct IncrementalStats {
    size_t trees_reused = 0;    ///< trees taken through the no-hash path
    size_t trees_rebuilt = 0;   ///< trees indexed from scratch
    size_t entries_copied = 0;  ///< entry metadata copied from `previous`
    size_t entries_computed = 0;  ///< ToLower + signature actually ran
  };

  NameDictionary() = default;

  /// One pass over the forest; entries are created in first-appearance
  /// order, posting lists come out sorted because ForEachNode iterates in
  /// NodeRef order.
  static NameDictionary Build(const schema::SchemaForest& forest);

  /// Builds the dictionary for `forest` reusing `previous` where possible:
  /// `reuse_map[t]` names the previous forest's tree that new tree `t` is
  /// (the identical frozen payload), or -1 for a new/changed tree. Reused
  /// trees never hash or re-fold a name — their nodes resolve through the
  /// previous dictionary's per-node entry table — and entry metadata
  /// (case-fold, signature) is copied, not recomputed, for every name
  /// already known. The result is equal to Build(forest) member for member;
  /// only the work differs. `stats` (may be null) reports the reuse split.
  static NameDictionary BuildIncremental(
      const schema::SchemaForest& forest, const NameDictionary& previous,
      const std::vector<schema::TreeId>& reuse_map,
      IncrementalStats* stats = nullptr);

  /// The forest this dictionary was built over (identity, by address). The
  /// engine rejects a dictionary whose forest is not the one being matched.
  const schema::SchemaForest* forest() const { return forest_; }

  /// Number of distinct names.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Total nodes indexed (= forest.total_nodes() at build time).
  size_t total_nodes() const { return total_nodes_; }

  /// Entry index of `name`, or kNotFound.
  size_t Find(std::string_view name) const;

  /// Binary serialization hook for the snapshot store: every entry with its
  /// cached fold, bag signature and posting lists, so a load never re-folds
  /// or re-hashes a repository name. The per-node entry table is derived
  /// from the posting lists on load, not stored twice.
  void SerializeTo(wire::Writer* out) const;

  /// Inverse of SerializeTo, bound to `forest` (which must be the very
  /// forest the dictionary was built over — the caller re-binds via the
  /// snapshot-assembly hook once the forest reaches its final address).
  /// Rebuilds the name hash and per-node table, validating that posting
  /// lists are sorted, in-range, kind-consistent and cover every forest
  /// node exactly once; anything else fails with Corruption.
  static Result<NameDictionary> DeserializeBinary(
      wire::Reader* in, const schema::SchemaForest& forest);

  /// Entry index of the name carried by `ref` (O(1) array read; `ref` must
  /// be a valid node of the dictionary's forest). This is the per-node
  /// table that lets an incremental successor build skip hashing for
  /// unchanged trees.
  size_t EntryOf(schema::NodeRef ref) const {
    return entry_of_node_[static_cast<size_t>(ref.tree)]
                         [static_cast<size_t>(ref.node)];
  }

 private:
  /// Snapshot assembly moves the forest into its final location after the
  /// dictionary is deserialized, then re-points it here.
  friend class xsm::service::RepositorySnapshot;
  void BindForest(const schema::SchemaForest* forest) { forest_ = forest; }

  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Indexes ref.node's entry for one tree; appended by both build paths.
  void IndexNode(schema::NodeRef ref, size_t entry_index,
                 schema::NodeKind kind);

  const schema::SchemaForest* forest_ = nullptr;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, size_t, TransparentHash, std::equal_to<>>
      index_;
  /// entry_of_node_[tree][node] = entry index of that node's name.
  std::vector<std::vector<uint32_t>> entry_of_node_;
  size_t total_nodes_ = 0;
};

}  // namespace xsm::match

#endif  // XSM_MATCH_NAME_DICTIONARY_H_
