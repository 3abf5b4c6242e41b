#include "hgraph/hgraph.hpp"

#include <map>
#include <set>
#include <sstream>

#include "support/check.hpp"

namespace fem2::hgraph {

NodeId HGraph::add_node() { return add_node(Atom{}); }

NodeId HGraph::add_node(Atom value) {
  FEM2_CHECK_MSG(nodes_.size() < NodeId::kInvalidIndex, "H-graph full");
  nodes_.push_back(Node{std::move(value), {}});
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void HGraph::add_arc(NodeId from, std::string label, NodeId to) {
  FEM2_CHECK(contains(from) && contains(to));
  node(from).arcs.push_back(Arc{std::move(label), to});
}

bool HGraph::remove_arc(NodeId from, std::string_view label) {
  auto& arcs = node(from).arcs;
  for (auto it = arcs.begin(); it != arcs.end(); ++it) {
    if (it->label == label) {
      arcs.erase(it);
      return true;
    }
  }
  return false;
}

void HGraph::set_arc(NodeId from, std::string label, NodeId to) {
  FEM2_CHECK(contains(from) && contains(to));
  for (auto& arc : node(from).arcs) {
    if (arc.label == label) {
      arc.target = to;
      return;
    }
  }
  add_arc(from, std::move(label), to);
}

void HGraph::set_value(NodeId n, Atom value) {
  node(n).value = std::move(value);
}

const Atom& HGraph::value(NodeId n) const { return node(n).value; }

bool HGraph::is_empty(NodeId n) const {
  return std::holds_alternative<std::monostate>(node(n).value);
}

std::optional<std::int64_t> HGraph::int_value(NodeId n) const {
  if (const auto* v = std::get_if<std::int64_t>(&node(n).value)) return *v;
  return std::nullopt;
}

std::optional<double> HGraph::real_value(NodeId n) const {
  if (const auto* v = std::get_if<double>(&node(n).value)) return *v;
  if (const auto* v = std::get_if<std::int64_t>(&node(n).value))
    return static_cast<double>(*v);
  return std::nullopt;
}

std::optional<std::string_view> HGraph::string_value(NodeId n) const {
  if (const auto* v = std::get_if<std::string>(&node(n).value))
    return std::string_view(*v);
  return std::nullopt;
}

const std::vector<Arc>& HGraph::arcs(NodeId n) const { return node(n).arcs; }

NodeId HGraph::follow(NodeId from, std::string_view label) const {
  for (const auto& arc : node(from).arcs)
    if (arc.label == label) return arc.target;
  return NodeId{};
}

NodeId HGraph::follow_path(NodeId from,
                           std::initializer_list<std::string_view> path) const {
  NodeId cur = from;
  for (auto label : path) {
    if (!cur.valid()) return NodeId{};
    cur = follow(cur, label);
  }
  return cur;
}

std::vector<NodeId> HGraph::follow_all(NodeId from,
                                       std::string_view label) const {
  std::vector<NodeId> out;
  for (const auto& arc : node(from).arcs)
    if (arc.label == label) out.push_back(arc.target);
  return out;
}

std::size_t HGraph::arc_count(NodeId from, std::string_view label) const {
  std::size_t n = 0;
  for (const auto& arc : node(from).arcs)
    if (arc.label == label) ++n;
  return n;
}

std::vector<NodeId> HGraph::reachable(NodeId root) const {
  FEM2_CHECK(contains(root));
  std::vector<NodeId> order;
  std::set<std::uint32_t> seen;
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur.index).second) continue;
    order.push_back(cur);
    const auto& as = node(cur).arcs;
    // Push in reverse so traversal visits arcs in insertion order.
    for (auto it = as.rbegin(); it != as.rend(); ++it)
      stack.push_back(it->target);
  }
  return order;
}

std::string atom_to_string(const Atom& a) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "nil"; }
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const {
      std::ostringstream os;
      os << v;
      return os.str();
    }
    std::string operator()(const std::string& v) const {
      return "\"" + v + "\"";
    }
  };
  return std::visit(Visitor{}, a);
}

std::string HGraph::to_string(NodeId root) const {
  // Stable node numbering by reachability order.
  const auto order = reachable(root);
  std::map<std::uint32_t, std::size_t> number;
  for (std::size_t i = 0; i < order.size(); ++i)
    number[order[i].index] = i;

  std::ostringstream os;
  for (const NodeId n : order) {
    os << "n" << number[n.index] << " = " << atom_to_string(value(n));
    for (const auto& arc : node(n).arcs)
      os << " ." << arc.label << "->n" << number[arc.target.index];
    os << "\n";
  }
  return os.str();
}

std::size_t HGraph::storage_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(Node);
  for (const auto& n : nodes_) {
    bytes += n.arcs.capacity() * sizeof(Arc);
    for (const auto& arc : n.arcs) bytes += arc.label.size();
    if (const auto* s = std::get_if<std::string>(&n.value))
      bytes += s->size();
  }
  return bytes;
}

const HGraph::Node& HGraph::node(NodeId id) const {
  FEM2_CHECK_MSG(contains(id), "invalid H-graph node id");
  return nodes_[id.index];
}

HGraph::Node& HGraph::node(NodeId id) {
  FEM2_CHECK_MSG(contains(id), "invalid H-graph node id");
  return nodes_[id.index];
}

}  // namespace fem2::hgraph
