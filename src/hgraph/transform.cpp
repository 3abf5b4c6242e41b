#include "hgraph/transform.hpp"

namespace fem2::hgraph {

NodeId Invoker::call(std::string_view transform, NodeId argument) const {
  auto* self = const_cast<Invoker*>(this);
  return registry_.apply_impl(transform, *self, graph_, argument);
}

TransformRegistry::TransformRegistry(Grammar grammar)
    : grammar_(std::move(grammar)) {}

void TransformRegistry::register_transform(std::string name,
                                           TransformSignature signature,
                                           TransformFn fn) {
  FEM2_CHECK_MSG(fn != nullptr, "null transform function");
  if (!signature.input_nonterminal.empty()) {
    FEM2_CHECK_MSG(grammar_.has_rule(signature.input_nonterminal),
                   "transform input nonterminal not in grammar");
  }
  if (!signature.output_nonterminal.empty()) {
    FEM2_CHECK_MSG(grammar_.has_rule(signature.output_nonterminal),
                   "transform output nonterminal not in grammar");
  }
  const auto [it, inserted] = transforms_.emplace(
      std::move(name), std::make_pair(std::move(signature), std::move(fn)));
  FEM2_CHECK_MSG(inserted, "duplicate transform name");
}

const TransformSignature* TransformRegistry::signature(
    std::string_view name) const {
  const auto it = transforms_.find(name);
  return it == transforms_.end() ? nullptr : &it->second.first;
}

std::vector<std::string> TransformRegistry::transform_names() const {
  std::vector<std::string> out;
  out.reserve(transforms_.size());
  for (const auto& [name, t] : transforms_) out.push_back(name);
  return out;
}

NodeId TransformRegistry::apply(std::string_view name, HGraph& graph,
                                NodeId argument) const {
  Invoker invoker(*this, graph);
  return apply_impl(name, invoker, graph, argument);
}

NodeId TransformRegistry::apply_impl(std::string_view name, Invoker& invoker,
                                     HGraph& graph, NodeId argument) const {
  const auto it = transforms_.find(name);
  if (it == transforms_.end()) {
    throw TransformError("unknown H-graph transform: " + std::string(name));
  }
  const auto& [signature, fn] = it->second;

  if (!signature.input_nonterminal.empty()) {
    const auto pre = grammar_.conforms(graph, argument,
                                       signature.input_nonterminal);
    if (!pre) {
      throw TransformError("transform '" + std::string(name) +
                           "' input violates grammar: " + pre.error);
    }
  }

  ++applications_;
  const NodeId result = fn(invoker, graph, argument);

  if (!signature.output_nonterminal.empty()) {
    if (!result.valid()) {
      throw TransformError("transform '" + std::string(name) +
                           "' returned no node but declares output " +
                           signature.output_nonterminal);
    }
    const auto post = grammar_.conforms(graph, result,
                                        signature.output_nonterminal);
    if (!post) {
      throw TransformError("transform '" + std::string(name) +
                           "' output violates grammar: " + post.error);
    }
  }
  return result;
}

}  // namespace fem2::hgraph
