// H-graph transforms: "functions defining transformations on the H-graph
// models of data objects.  H-graph transforms may invoke each other in the
// usual manner of subprogram calling hierarchies" (Pratt 1983).
//
// A transform is a named function over (HGraph, argument node) returning a
// result node.  Transforms are registered in a TransformRegistry together
// with the grammar nonterminals that its input and output must conform to;
// apply() checks conformance before and after execution, so a registered
// transform is a *checked* formal operation.  Transforms receive an
// Invoker through which they call other registered transforms, giving the
// subprogram-call hierarchy of the paper.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "hgraph/grammar.hpp"
#include "hgraph/hgraph.hpp"
#include "hgraph/rulespec.hpp"
#include "support/check.hpp"

namespace fem2::hgraph {

class TransformRegistry;

/// Thrown when a transform's input or output violates its declared grammar
/// nonterminal, or when an unknown transform is invoked.
class TransformError : public support::Error {
 public:
  using support::Error::Error;
};

/// Handed to a transform body so it can invoke peer transforms (checked).
class Invoker {
 public:
  Invoker(const TransformRegistry& registry, HGraph& graph)
      : registry_(registry), graph_(graph) {}

  NodeId call(std::string_view transform, NodeId argument) const;
  HGraph& graph() const { return graph_; }

 private:
  friend class TransformRegistry;
  const TransformRegistry& registry_;
  HGraph& graph_;
};

using TransformFn = std::function<NodeId(Invoker&, HGraph&, NodeId)>;

struct TransformSignature {
  std::string input_nonterminal;   ///< empty = unchecked
  std::string output_nonterminal;  ///< empty = unchecked
  /// Declarative abstract effect, consumed by the static type-preservation
  /// verifier (analyze/verify.hpp).  Empty = statically unchecked (the
  /// runtime pre/post conformance checks still apply).
  RuleSpec spec;
};

class TransformRegistry {
 public:
  explicit TransformRegistry(Grammar grammar);

  void register_transform(std::string name, TransformSignature signature,
                          TransformFn fn);

  std::vector<std::string> transform_names() const;

  /// Declared signature (with rule spec), or nullptr if unregistered.
  const TransformSignature* signature(std::string_view name) const;

  /// Apply a transform with pre/post conformance checking.
  NodeId apply(std::string_view name, HGraph& graph, NodeId argument) const;

  const Grammar& grammar() const { return grammar_; }

  /// Total checked applications since construction (metrics).
  std::uint64_t applications() const { return applications_; }

 private:
  friend class Invoker;
  NodeId apply_impl(std::string_view name, Invoker& invoker, HGraph& graph,
                    NodeId argument) const;

  Grammar grammar_;
  std::map<std::string, std::pair<TransformSignature, TransformFn>,
           std::less<>>
      transforms_;
  mutable std::uint64_t applications_ = 0;
};

}  // namespace fem2::hgraph
