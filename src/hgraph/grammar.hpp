// H-graph grammars: "a type of BNF grammar in which the 'language' defined
// is a set of H-graphs representing a class of data objects" (Pratt 1983).
//
// A grammar maps nonterminal names to alternatives.  Each alternative is
// either an atom constraint (NIL / INT / REAL / STRING / ANY) or a composite
// pattern constraining the node's outgoing arcs:
//
//   structure ::= { name: STRING, grid: grid, loadset[*]: loadset }
//   list      ::= NIL | { @INT, next?: list }
//
// Arc multiplicities:
//   label:  nt    exactly one arc `label`
//   label?: nt    zero or one arc `label`
//   label*: nt    any number of arcs `label`
//   label[*]: nt  an indexed family label[0], label[1], ..., label[n-1]
// `@KIND` constrains the composite node's own atom (default NIL); `...`
// makes the composite open (extra arcs permitted).
//
// Conformance is the greatest fixpoint over (node, nonterminal) pairs, read
// off the same flattened alternatives as the static algorithms
// (grammar_algorithms.hpp): aliases are flattened away (flat_alternatives),
// so an alias cycle adds nothing, and a builtin arc target such as `x: INT`
// is a leaf atom.  Only a revisit through arcs is coinductive: a pair met
// again while its own check is in progress is assumed to conform, so cyclic
// data objects (rings, doubly linked structures) check correctly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "hgraph/hgraph.hpp"

namespace fem2::hgraph {

enum class AtomKind { Nil, Int, Real, String, Any };

/// Every atom kind; their names are the builtin nonterminals.
inline constexpr AtomKind kAtomKinds[] = {AtomKind::Nil, AtomKind::Int,
                                          AtomKind::Real, AtomKind::String,
                                          AtomKind::Any};

std::string_view atom_kind_name(AtomKind k);

/// The atom kind a builtin nonterminal name stands for, or nullopt.
std::optional<AtomKind> builtin_atom_kind(std::string_view name);

/// matches(a) is a subset of matches(b): REAL accepts INT, ANY accepts
/// everything.
bool atom_subsumed(AtomKind a, AtomKind b);

/// True if the node's atom satisfies the kind (REAL accepts INT).
bool atom_matches(const HGraph& g, NodeId node, AtomKind kind);

/// The label of member `index` of the indexed family `base`: "base[index]".
inline std::string family_label(std::string_view base, std::size_t index) {
  return std::string(base) + "[" + std::to_string(index) + "]";
}

/// The index of `label` as a member of the family `base` (a label of the
/// form base[digits]), or nullopt.
std::optional<std::size_t> family_index(std::string_view label,
                                        std::string_view base);

/// Position in the grammar source text (1-based; line 0 = unknown, e.g. a
/// grammar assembled programmatically rather than parsed).
struct SourceLoc {
  std::size_t line = 0;
  std::size_t column = 0;

  bool known() const { return line != 0; }
  /// "line 3, col 14", or "<unknown>" for a default-constructed loc.
  std::string to_string() const;
};

enum class Multiplicity { One, Optional, Star, IndexedFamily };

struct ArcPattern {
  std::string label;
  Multiplicity multiplicity = Multiplicity::One;
  std::string nonterminal;
  SourceLoc loc;
};

struct Composite {
  AtomKind own_atom = AtomKind::Nil;  ///< constraint on the node's own value
  std::vector<ArcPattern> arcs;
  bool open = false;  ///< extra arcs allowed
};

/// Alternative that simply defers to another nonterminal (an alias).
struct NonterminalRef {
  std::string name;
};

/// One alternative of a production.
using Alternative = std::variant<AtomKind, Composite, NonterminalRef>;

/// An alternative together with where it was defined in the grammar source.
struct Rule {
  Alternative alternative;
  SourceLoc loc;
};

/// Calls f(target, arc, loc) for every nonterminal `rule` refers to, in
/// source order: an alias (arc == nullptr, loc = the rule's) or the
/// target of each arc pattern (loc = the pattern's when known).
template <typename F>
void for_each_reference(const Rule& rule, F&& f) {
  if (const auto* ref = std::get_if<NonterminalRef>(&rule.alternative)) {
    f(ref->name, static_cast<const ArcPattern*>(nullptr), rule.loc);
  } else if (const auto* comp = std::get_if<Composite>(&rule.alternative)) {
    for (const auto& pat : comp->arcs)
      f(pat.nonterminal, &pat, pat.loc.known() ? pat.loc : rule.loc);
  }
}

/// An alternative with aliases resolved away: a leaf atom constraint or a
/// composite borrowed from the grammar.
struct FlatAlternative {
  AtomKind atom = AtomKind::Nil;
  const Composite* comp = nullptr;  ///< null for a leaf atom

  bool is_atom() const { return comp == nullptr; }
};

struct ConformanceResult {
  bool ok = true;
  std::string error;  ///< first failure, with access-path context

  explicit operator bool() const { return ok; }
};

class Grammar {
 public:
  using RuleMap = std::map<std::string, std::vector<Rule>, std::less<>>;

  Grammar();
  /// A grammar with these productions, each alternative with the place in
  /// the grammar source it comes from.  No builtin may be redefined.
  explicit Grammar(RuleMap rules);
  // Copies rebuild the dense form, which points into rules_; moves keep
  // the map nodes it points to.
  Grammar(const Grammar& other);
  Grammar& operator=(const Grammar& other);
  Grammar(Grammar&&) = default;
  Grammar& operator=(Grammar&&) = default;

  bool has_rule(std::string_view nonterminal) const;
  std::vector<std::string> nonterminals() const;

  /// True for the builtin atom nonterminals (see builtin_atom_kind).
  static bool is_builtin(std::string_view nonterminal);

  /// Full production table, for introspection (linting, tooling).
  const RuleMap& rules() const { return rules_; }

  /// Does the subgraph rooted at `node` belong to the language of
  /// `nonterminal`?  On failure, `error` holds the first mismatch found.
  ConformanceResult conforms(const HGraph& g, NodeId node,
                             std::string_view nonterminal) const;

  /// Validate the grammar itself: every referenced nonterminal must be
  /// defined (builtin atom kinds count as defined).  Diagnostics carry the
  /// source location of the offending alternative or arc pattern.
  ConformanceResult validate() const;

 private:
  /// A flattened alternative; a composite's arc targets are the dense
  /// indices targets_[targets + k], one per flat.comp->arcs entry.
  struct DenseAlternative {
    FlatAlternative flat;
    std::uint32_t targets = 0;
  };
  /// A nonterminal by dense index: the builtins first (index = AtomKind),
  /// then the rules in name order, then undefined arc targets.  Its
  /// flattened alternatives are alts_[first, last).
  struct DenseNonterminal {
    std::string_view name;  ///< a builtin name or a string in rules_
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    bool leaf = true;  ///< every alternative is a leaf atom (no arc to follow)
  };
  struct CheckState;

  /// Rebuild dense_, alts_ and targets_ from rules_.
  void compile();
  bool check(NodeId node, std::uint32_t nt, CheckState& state,
             std::uint32_t& low) const;
  bool check_alternative(NodeId node, std::uint32_t nt,
                         const DenseAlternative& alt, CheckState& state,
                         std::uint32_t& low) const;

  RuleMap rules_;
  // rules_ resolved for conforms().
  std::vector<DenseNonterminal> dense_;
  std::vector<DenseAlternative> alts_;
  std::vector<std::uint32_t> targets_;
};

/// The alternatives of `nonterminal` with alias chains followed, in source
/// order, each nonterminal expanded once.  A builtin yields its atom; an
/// undefined nonterminal or an alias cycle contributes nothing (its
/// language is empty, so "for all alternatives" checks hold vacuously).
std::vector<FlatAlternative> flat_alternatives(const Grammar& grammar,
                                               std::string_view nonterminal);

}  // namespace fem2::hgraph
