// SchemaMapping: the solution object of Def. 2/3 — an assignment of every
// personal-schema node to a repository node of one tree, with its similarity
// index breakdown.
#ifndef XSM_GENERATE_SCHEMA_MAPPING_H_
#define XSM_GENERATE_SCHEMA_MAPPING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schema/schema_forest.h"
#include "schema/schema_tree.h"

namespace xsm::generate {

/// A complete schema mapping s ↦ t. `t` is the subtree of repository tree
/// `tree` spanned by the images; its total path length is recorded for the
/// Δpath component.
struct SchemaMapping {
  schema::TreeId tree = -1;
  /// images[i] = image node of personal node i (indexed by personal NodeId).
  std::vector<schema::NodeId> images;

  double delta = 0;       ///< Δ(s,t), the similarity index.
  double delta_sim = 0;   ///< Eq. 1 component.
  double delta_path = 0;  ///< Eq. 2 component.
  /// |Et|: Σ over personal edges of the image path length.
  int64_t total_path_length = 0;

  /// Identity of the mapping (tree + images), ignoring scores.
  bool SameAssignment(const SchemaMapping& other) const {
    return tree == other.tree && images == other.images;
  }
};

/// Deterministic result order: by Δ descending, then tree id, then images
/// lexicographically. Strict weak ordering suitable for std::sort.
struct MappingOrder {
  bool operator()(const SchemaMapping& a, const SchemaMapping& b) const {
    if (a.delta != b.delta) return a.delta > b.delta;
    if (a.tree != b.tree) return a.tree < b.tree;
    return a.images < b.images;
  }
};

/// Appends "tree=3 Δ=0.8200 (sim=0.9000 path=0.6333) [book→lib/book, ...]"
/// to `out`, naming each image by its root path in `repo`. Composes in
/// place: no per-image path vector and no intermediate string, so a caller
/// that reuses `out` formats a mapping without allocating.
void AppendMappingText(std::string* out, const SchemaMapping& mapping,
                       const schema::SchemaTree& personal,
                       const schema::SchemaForest& repo);

/// AppendMappingText into a fresh string.
std::string MappingToString(const SchemaMapping& mapping,
                            const schema::SchemaTree& personal,
                            const schema::SchemaForest& repo);

}  // namespace xsm::generate

#endif  // XSM_GENERATE_SCHEMA_MAPPING_H_
