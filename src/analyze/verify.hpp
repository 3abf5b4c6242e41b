// Static spec verification (fem2_analyze --verify): three passes that
// check the repo's own formal specifications without running the system.
//
//   1. Grammar language algorithms (hgraph/grammar_algorithms.hpp):
//      emptiness/productivity per nonterminal, a minimal finite witness
//      H-graph per productive nonterminal (checked back against the
//      conformance recognizer, so generator and recognizer validate each
//      other), and the refinement obligation that the db engine grammar
//      refines the abstract storage fragment of the appvm grammar.
//
//   2. Transformation-rule type preservation: each registered transform's
//      declarative RuleSpec (hgraph/rulespec.hpp) is abstractly
//      interpreted over grammar nonterminals, proving that the rule maps
//      grammar-conforming inputs to grammar-conforming outputs.  A rule
//      that can break its layer's grammar becomes a Finding carrying the
//      rule's registration SourceLoc.
//
//   3. Bounded protocol model checking (analyze/model_check.hpp) of the
//      reliable messaging protocol and the db health lifecycle.
//
// All three emit the common Finding record; a clean spec produces zero
// findings.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "analyze/finding.hpp"
#include "analyze/model_check.hpp"
#include "hgraph/grammar.hpp"
#include "hgraph/transform.hpp"

namespace fem2::analyze {

/// Grammar language and rule type-preservation checks always run.
struct VerifyOptions {
  bool protocols = true;
  MessagingModelOptions messaging;
  HealthModelOptions db_health;
};

struct VerifyStats {
  std::size_t grammars = 0;
  std::size_t nonterminals = 0;
  std::size_t witnesses = 0;
  std::size_t refinement_pairs = 0;
  std::size_t rules = 0;
  std::size_t paths = 0;
  std::size_t protocol_states = 0;
  std::size_t protocol_transitions = 0;
};

/// Pass 1 on one grammar: well-formedness, productivity of every
/// nonterminal, and witness generation cross-checked against conforms().
std::vector<Finding> verify_grammar(const hgraph::Grammar& grammar,
                                    Layer layer,
                                    VerifyStats* stats = nullptr);

/// Pass 1 refinement obligation: L_impl(impl_root) within L_spec(spec_root).
std::vector<Finding> verify_refinement(const hgraph::Grammar& impl,
                                       std::string_view impl_root,
                                       Layer impl_layer,
                                       const hgraph::Grammar& spec,
                                       std::string_view spec_root,
                                       VerifyStats* stats = nullptr);

/// Pass 2 on one transform registry: abstract interpretation of every
/// registered rule's RuleSpec against the registry's grammar.
std::vector<Finding> verify_transforms(
    const hgraph::TransformRegistry& registry, Layer layer,
    VerifyStats* stats = nullptr);

/// Everything --verify runs: passes 1 and 2 over the repo's layer
/// grammars and transform registry, pass 3 over the two protocols.
struct VerifyReport {
  std::vector<Finding> findings;
  VerifyStats stats;
  ModelCheckResult messaging;
  ModelCheckResult db_health;
};

VerifyReport verify_specs(const VerifyOptions& options = {});

}  // namespace fem2::analyze
