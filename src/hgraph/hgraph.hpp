// H-graphs, after Pratt's H-graph semantics (the formal-specification
// machinery of the FEM-2 design method).
//
// An H-graph is a hierarchy of directed graphs: nodes represent abstract
// storage locations, arcs represent access paths.  In this rendering a node
// carries an optional atomic value (integer, real, or string) and a set of
// labeled outgoing arcs; the graph "contained in" a node is the subgraph
// reachable from it.  Classes of H-graphs (data types) are defined by
// H-graph grammars (grammar.hpp); operations are H-graph transforms
// (transform.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace fem2::hgraph {

/// Handle to a node (abstract storage location) within one HGraph.
struct NodeId {
  std::uint32_t index = kInvalidIndex;

  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  bool valid() const { return index != kInvalidIndex; }
  friend bool operator==(NodeId a, NodeId b) { return a.index == b.index; }
  friend auto operator<=>(NodeId a, NodeId b) { return a.index <=> b.index; }
};

/// Atomic node values.  monostate = an empty location.
using Atom = std::variant<std::monostate, std::int64_t, double, std::string>;

/// One labeled access path.
struct Arc {
  std::string label;
  NodeId target;
};

class HGraph {
 public:
  HGraph() = default;

  // --- construction -------------------------------------------------------
  NodeId add_node();
  NodeId add_node(Atom value);
  NodeId add_int(std::int64_t v) { return add_node(Atom{v}); }
  NodeId add_real(double v) { return add_node(Atom{v}); }
  NodeId add_string(std::string v) { return add_node(Atom{std::move(v)}); }

  /// Add arc `from --label--> to`.  Multiple arcs with the same label from
  /// one node are allowed (the grammar layer constrains multiplicity).
  void add_arc(NodeId from, std::string label, NodeId to);

  /// Remove the first arc with this label (returns false if absent).
  bool remove_arc(NodeId from, std::string_view label);

  /// Replace the target of the (unique) arc with this label, adding the arc
  /// if it does not exist.
  void set_arc(NodeId from, std::string label, NodeId to);

  void set_value(NodeId node, Atom value);

  // --- queries ------------------------------------------------------------
  std::size_t node_count() const { return nodes_.size(); }
  bool contains(NodeId id) const { return id.index < nodes_.size(); }

  const Atom& value(NodeId node) const;
  bool is_empty(NodeId node) const;
  std::optional<std::int64_t> int_value(NodeId node) const;
  std::optional<double> real_value(NodeId node) const;   ///< accepts ints too
  std::optional<std::string_view> string_value(NodeId node) const;

  const std::vector<Arc>& arcs(NodeId node) const;

  /// Target of the first arc with this label, or invalid NodeId.
  NodeId follow(NodeId from, std::string_view label) const;

  /// Follow a path of labels, e.g. follow_path(root, {"grid", "nx"}).
  NodeId follow_path(NodeId from, std::initializer_list<std::string_view> path) const;

  /// All targets of arcs with this label, in insertion order.
  std::vector<NodeId> follow_all(NodeId from, std::string_view label) const;

  /// Number of arcs with this label.
  std::size_t arc_count(NodeId from, std::string_view label) const;

  /// Nodes reachable from `root` (including root), in deterministic
  /// depth-first, arc-insertion order.
  std::vector<NodeId> reachable(NodeId root) const;

  // --- rendering -----------------------------------------------------------
  /// Deterministic multi-line dump of the subgraph rooted at `root`.
  std::string to_string(NodeId root) const;

  /// Approximate storage footprint in bytes (for the metrics benches).
  std::size_t storage_bytes() const;

 private:
  struct Node {
    Atom value;
    std::vector<Arc> arcs;
  };

  const Node& node(NodeId id) const;
  Node& node(NodeId id);

  std::vector<Node> nodes_;
};

/// Render an atom for dumps and error messages.
std::string atom_to_string(const Atom& a);

}  // namespace fem2::hgraph
