// Language-level algorithms on H-graph grammars (the static half of
// fem2_analyze --verify):
//
//   * productivity — which nonterminals derive at least one
//     finite H-graph (least fixpoint over the productions);
//   * witness generation — a minimal finite H-graph in the language of a
//     productive nonterminal, built from the cheapest derivation (the
//     witness is checked back against Grammar::conforms, so generator and
//     recognizer validate each other);
//   * refinement — a conservative, simulation-based sublanguage test
//     refines(G_impl, A, G_spec, B): every H-graph in L_impl(A) is also in
//     L_spec(B).  Sound but incomplete: a "no" may be spurious when the
//     spec only admits the impl shapes via pattern combinations the
//     simulation does not explore; a "yes" is always trustworthy, because
//     the simulation and Grammar::conforms read the same flattened
//     alternatives.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "hgraph/grammar.hpp"

namespace fem2::hgraph {

/// Nonterminals that derive at least one finite H-graph (least fixpoint
/// over the productions: a composite needs every mandatory arc target
/// productive).  Builtin atom nonterminals are always productive and are
/// not listed.
std::set<std::string> productive_nonterminals(const Grammar& grammar);

struct WitnessResult {
  bool ok = false;
  HGraph graph;
  NodeId root;
  std::string error;  ///< why no witness exists (empty language)

  explicit operator bool() const { return ok; }
};

/// A minimal finite H-graph in the language of `nonterminal`, derived by
/// always choosing the cheapest alternative and omitting every optional
/// arc.  Fails iff the language is empty.
WitnessResult witness_graph(const Grammar& grammar,
                            std::string_view nonterminal);

/// The conservative simulation relation between two grammars: holds(a, b)
/// implies L_impl(a) is a subset of L_spec(b).  Builtin atom nonterminals
/// participate on both sides.  Computed once as a greatest fixpoint
/// (start from all pairs, remove pairs that fail the one-step covering
/// condition until stable), then queried in O(log n).
class SimulationRelation {
 public:
  /// Compute the full relation.  `impl` and `spec` may be the same
  /// grammar (the self-relation is what the transform-rule checker uses
  /// to decide nonterminal subtyping).
  SimulationRelation(const Grammar& impl, const Grammar& spec);

  bool holds(std::string_view impl_nt, std::string_view spec_nt) const;

  /// One-sentence reason why holds(a, b) fails; empty when it holds.
  std::string explain(std::string_view impl_nt,
                      std::string_view spec_nt) const;

  /// Pairs examined by the fixpoint (bench / stats).
  std::size_t pairs_checked() const { return pairs_checked_; }

 private:
  const Grammar& impl_;
  const Grammar& spec_;
  std::set<std::pair<std::string, std::string>> holds_;
  std::size_t pairs_checked_ = 0;
};

struct RefinementResult {
  bool ok = true;
  std::string counterexample;  ///< first failing pair, with the reason
  std::size_t pairs_checked = 0;

  explicit operator bool() const { return ok; }
};

/// Does every H-graph derivable from `impl_root` in `impl` conform to
/// `spec_root` in `spec`?  Conservative (see SimulationRelation).
RefinementResult refines(const Grammar& impl, std::string_view impl_root,
                         const Grammar& spec, std::string_view spec_root);

}  // namespace fem2::hgraph
