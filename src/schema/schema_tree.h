// Schema graph data model (paper Def. 1), specialized to trees as in the
// paper's experimental setting: an XML schema is a rooted tree of element /
// attribute nodes, each carrying (property, value) pairs via the H function.
#ifndef XSM_SCHEMA_SCHEMA_TREE_H_
#define XSM_SCHEMA_SCHEMA_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/wire.h"

namespace xsm::schema {

/// Index of a node within its SchemaTree. Node ids are dense [0, size()).
using NodeId = int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// Whether a node models an XML element or an attribute. The paper counts
/// both as "element (attribute) nodes" of the schema graph.
enum class NodeKind : uint8_t {
  kElement = 0,
  kAttribute = 1,
};

/// The H function of Def. 1: properties attached to a node.
struct NodeProperties {
  /// Tag / attribute name, e.g. "authorName". The primary matching hint.
  std::string name;
  NodeKind kind = NodeKind::kElement;
  /// Declared simple type if known (e.g. "xs:string", "CDATA"); may be empty.
  /// The initializer lets designated initializers leave it out silently.
  std::string datatype = {};
  /// True if the element may repeat under its parent ('*' or '+' in a DTD).
  bool repeatable = false;
  /// True if the element/attribute is optional ('?' or #IMPLIED).
  bool optional = false;
};

/// A rooted, ordered tree representing one XML schema (Def. 1 with N, E, I
/// implied by parent/child links and H carried in NodeProperties).
///
/// Nodes are added top-down: the first added node is the root, later nodes
/// name an existing parent. Ids are assigned in insertion order, so a tree
/// built by a pre-order walk has pre-order ids (the parsers guarantee this).
class SchemaTree {
 public:
  SchemaTree() = default;

  /// Adds a node. `parent` must be kInvalidNode for the first node (the
  /// root) and a valid existing id afterwards. Returns the new node's id.
  NodeId AddNode(NodeId parent, NodeProperties props);

  /// Number of nodes |N|.
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// Number of edges |E| (= |N| - 1 for a non-empty tree).
  int64_t num_edges() const {
    return nodes_.empty() ? 0 : static_cast<int64_t>(nodes_.size()) - 1;
  }

  NodeId root() const { return nodes_.empty() ? kInvalidNode : 0; }

  NodeId parent(NodeId n) const { return nodes_[CheckId(n)].parent; }
  const std::vector<NodeId>& children(NodeId n) const {
    return nodes_[CheckId(n)].children;
  }
  /// Depth in edges from the root (root = 0).
  int depth(NodeId n) const { return nodes_[CheckId(n)].depth; }

  const NodeProperties& props(NodeId n) const {
    return nodes_[CheckId(n)].props;
  }
  NodeProperties* mutable_props(NodeId n) {
    return &nodes_[CheckId(n)].props;
  }
  /// Shorthand for props(n).name — the paper's name(n).
  const std::string& name(NodeId n) const { return props(n).name; }

  bool IsLeaf(NodeId n) const { return children(n).empty(); }

  /// Node ids in pre-order (document order).
  std::vector<NodeId> PreOrder() const;

  /// Structural invariants: single root, acyclic parent links, consistent
  /// child lists and depths.
  Status Validate() const;

  /// Binary serialization hook for the snapshot store: column layout in id
  /// order — the parent-link vector, one packed kind/flags byte per node,
  /// then the name and datatype columns. Ids are insertion order and every
  /// parent precedes its children, so the inverse rebuilds nodes in one
  /// pass with exact child-list allocation.
  void SerializeTo(wire::Writer* out) const;

  /// Inverse of SerializeTo. Corruption on inconsistent counts or parent
  /// links; the returned tree additionally passes Validate().
  static Result<SchemaTree> DeserializeBinary(wire::Reader* in);

  /// Human-readable indented rendering, for debugging and examples.
  std::string ToString() const;

 private:
  struct Node {
    NodeId parent = kInvalidNode;
    int depth = 0;
    NodeProperties props;
    std::vector<NodeId> children;
  };

  NodeId CheckId(NodeId n) const;

  std::vector<Node> nodes_;
};

/// Parses the compact tree-spec notation used throughout the tests and
/// examples:  name(child1,child2(leaf),@attr)
/// '@' marks attribute nodes; names may contain [A-Za-z0-9_.:-].
Result<SchemaTree> ParseTreeSpec(const std::string& spec);

/// Inverse of ParseTreeSpec (children in insertion order).
std::string ToTreeSpec(const SchemaTree& tree);

}  // namespace xsm::schema

#endif  // XSM_SCHEMA_SCHEMA_TREE_H_
