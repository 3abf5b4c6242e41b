#include "hgraph/grammar.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "support/check.hpp"

namespace fem2::hgraph {

namespace {

/// The builtin nonterminal names, in AtomKind order.
constexpr std::string_view kAtomNames[] = {"NIL", "INT", "REAL", "STRING",
                                           "ANY"};
static_assert(std::size(kAtomNames) == std::size(kAtomKinds));

}  // namespace

std::string_view atom_kind_name(AtomKind k) {
  return kAtomNames[static_cast<std::size_t>(k)];
}

std::string SourceLoc::to_string() const {
  if (!known()) return "<unknown>";
  return "line " + std::to_string(line) + ", col " + std::to_string(column);
}

bool atom_matches(const HGraph& g, NodeId node, AtomKind kind) {
  switch (kind) {
    case AtomKind::Nil: return g.is_empty(node);
    case AtomKind::Int: return g.int_value(node).has_value();
    case AtomKind::Real: return g.real_value(node).has_value();
    case AtomKind::String: return g.string_value(node).has_value();
    case AtomKind::Any: return true;
  }
  FEM2_UNREACHABLE("bad AtomKind");
}

std::optional<AtomKind> builtin_atom_kind(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kAtomNames); ++i)
    if (name == kAtomNames[i]) return static_cast<AtomKind>(i);
  return std::nullopt;
}

bool atom_subsumed(AtomKind a, AtomKind b) {
  return a == b || b == AtomKind::Any ||
         (a == AtomKind::Int && b == AtomKind::Real);
}

std::optional<std::size_t> family_index(std::string_view label,
                                        std::string_view base) {
  if (label.size() < base.size() + 3) return std::nullopt;
  if (!label.starts_with(base)) return std::nullopt;
  if (label[base.size()] != '[' || label.back() != ']') return std::nullopt;
  const std::string_view digits =
      label.substr(base.size() + 1, label.size() - base.size() - 2);
  if (digits.empty()) return std::nullopt;
  std::size_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

namespace {

/// The flattener behind flat_alternatives and Grammar::compile: appends
/// the alternatives of `name` to `out`, following aliases depth-first and
/// skipping the nonterminals in `seen`.
void expand(const Grammar& g, std::string_view name,
            std::vector<std::string_view>& seen,
            std::vector<FlatAlternative>& out) {
  if (std::ranges::find(seen, name) != seen.end()) return;  // alias cycle
  seen.push_back(name);
  if (const auto kind = builtin_atom_kind(name)) {
    out.push_back({*kind, nullptr});
    return;
  }
  const auto it = g.rules().find(name);
  if (it == g.rules().end()) return;
  for (const auto& rule : it->second) {
    if (const auto* kind = std::get_if<AtomKind>(&rule.alternative)) {
      out.push_back({*kind, nullptr});
    } else if (const auto* comp = std::get_if<Composite>(&rule.alternative)) {
      out.push_back({AtomKind::Nil, comp});
    } else {
      expand(g, std::get<NonterminalRef>(rule.alternative).name, seen, out);
    }
  }
}

}  // namespace

Grammar::Grammar() { compile(); }

Grammar::Grammar(RuleMap rules) : rules_(std::move(rules)) {
  for (const auto& [name, alts] : rules_)
    FEM2_CHECK_MSG(!is_builtin(name), "cannot redefine builtin nonterminal");
  compile();
}

Grammar::Grammar(const Grammar& other) : rules_(other.rules_) { compile(); }

Grammar& Grammar::operator=(const Grammar& other) {
  if (this != &other) {
    rules_ = other.rules_;
    compile();
  }
  return *this;
}

bool Grammar::is_builtin(std::string_view nonterminal) {
  return builtin_atom_kind(nonterminal).has_value();
}

bool Grammar::has_rule(std::string_view nonterminal) const {
  return is_builtin(nonterminal) || rules_.find(nonterminal) != rules_.end();
}

std::vector<std::string> Grammar::nonterminals() const {
  std::vector<std::string> out;
  out.reserve(rules_.size());
  for (const auto& [name, alts] : rules_) out.push_back(name);
  return out;
}

void Grammar::compile() {
  dense_.clear();
  alts_.clear();
  targets_.clear();
  dense_.reserve(std::size(kAtomKinds) + rules_.size());
  for (const AtomKind k : kAtomKinds) dense_.push_back({atom_kind_name(k)});
  for (const auto& [name, rules] : rules_) dense_.push_back({name});
  const auto index_of = [&](std::string_view name) {
    const auto it = std::ranges::find(dense_, name, &DenseNonterminal::name);
    if (it != dense_.end())
      return static_cast<std::uint32_t>(it - dense_.begin());
    dense_.push_back({name});  // undefined: no alternatives
    return static_cast<std::uint32_t>(dense_.size() - 1);
  };
  std::vector<std::string_view> seen;
  std::vector<FlatAlternative> flat;
  for (std::size_t nt = 0; nt < dense_.size(); ++nt) {
    seen.clear();
    flat.clear();
    expand(*this, dense_[nt].name, seen, flat);
    dense_[nt].first = static_cast<std::uint32_t>(alts_.size());
    for (const FlatAlternative& alt : flat) {
      alts_.push_back({alt, static_cast<std::uint32_t>(targets_.size())});
      if (alt.is_atom()) continue;
      dense_[nt].leaf = false;
      for (const ArcPattern& pat : alt.comp->arcs)
        targets_.push_back(index_of(pat.nonterminal));
    }
    dense_[nt].last = static_cast<std::uint32_t>(alts_.size());
  }
}

namespace {

/// CheckState::assumed value of a pair whose proof rests on no open
/// assumption.
constexpr std::uint32_t kCommitted = std::numeric_limits<std::uint32_t>::max();

}  // namespace

// One conforms() pass: a depth-first search for the greatest fixpoint over
// the (node, nonterminal) pairs reachable through arcs.  A pair is assumed
// to conform while its alternatives are tried, so a revisit holds
// coinductively.  Every pair assumed or proven since the last commit sits
// on the trail; when an alternative fails, the pairs it added are rolled
// back, so nothing proven under a refuted assumption survives.  A pair
// whose proof assumed nothing older than itself is committed together with
// everything proven under it and is never rolled back, which keeps the
// search linear on acyclic data.
struct Grammar::CheckState {
  CheckState(const HGraph& graph, bool explaining)
      : g(graph), explain(explaining) {}

  const HGraph& g;
  const bool explain;  ///< build `error` (the pass after a failure)
  /// Assumed or proven pairs (node << 32 | dense index) mapped to the
  /// oldest trail position their proof assumes, or kCommitted.
  std::unordered_map<std::uint64_t, std::uint32_t> assumed;
  std::vector<std::uint64_t> trail;
  /// Per-composite scratch (claimed arcs, family indices), used as a stack.
  std::vector<std::uint8_t> marks;
  std::vector<const std::string*> path;  ///< arc labels (explain pass)
  std::string error;

  void rollback(std::size_t size) {
    for (; trail.size() > size; trail.pop_back()) assumed.erase(trail.back());
  }

  /// Fails; the explain pass records message() at the current path.
  template <typename Message>
  bool fail(Message&& message) {
    if (explain) {
      error = "<root>";
      for (const std::string* label : path) error.append(".").append(*label);
      error += ": " + message();
    }
    return false;
  }
};

ConformanceResult Grammar::conforms(const HGraph& g, NodeId node,
                                    std::string_view nonterminal) const {
  ConformanceResult r;
  const auto it = std::ranges::find(dense_, nonterminal,
                                    &DenseNonterminal::name);
  if (it == dense_.end()) {
    r.ok = false;
    r.error = "<root>: undefined nonterminal " + std::string(nonterminal);
    return r;
  }
  const auto nt = static_cast<std::uint32_t>(it - dense_.begin());
  std::uint32_t low = kCommitted;
  if (CheckState state(g, false); check(node, nt, state, low)) return r;
  CheckState state(g, true);
  check(node, nt, state, low);
  r.ok = false;
  r.error = std::move(state.error);
  return r;
}

bool Grammar::check(NodeId node, std::uint32_t nt, CheckState& state,
                    std::uint32_t& low) const {
  const std::uint64_t key = std::uint64_t{node.index} << 32 | nt;
  const auto pos = static_cast<std::uint32_t>(state.trail.size());
  // A leaf pair follows no arc, so it cannot be revisited: decide it on
  // the spot, without the memo.
  if (!dense_[nt].leaf) {
    const auto [it, fresh] = state.assumed.try_emplace(key, pos);
    if (!fresh) {
      low = std::min(low, it->second);
      return true;
    }
    state.trail.push_back(key);
  }
  std::string first_error;  // explain pass: the first alternative's failure
  for (std::uint32_t a = dense_[nt].first; a < dense_[nt].last; ++a) {
    const DenseAlternative& alt = alts_[a];
    std::uint32_t alt_low = kCommitted;
    if (check_alternative(node, nt, alt, state, alt_low)) {
      if (alt_low < pos) {  // rests on an older open assumption
        state.assumed[key] = alt_low;
        low = std::min(low, alt_low);
      } else {
        for (std::size_t i = pos; i < state.trail.size(); ++i)
          state.assumed[state.trail[i]] = kCommitted;
        state.trail.resize(pos);
      }
      return true;
    }
    if (state.explain && first_error.empty())
      first_error = std::move(state.error);
    state.rollback(pos + 1);
  }
  state.rollback(pos);
  if (!first_error.empty()) {
    state.error = std::move(first_error);
    return false;
  }
  return state.fail([&] {
    const std::string name(dense_[nt].name);
    return has_rule(name) ? "no alternative of " + name + " matches"
                          : "undefined nonterminal " + name;
  });
}

bool Grammar::check_alternative(NodeId node, std::uint32_t nt,
                                const DenseAlternative& alt,
                                CheckState& state, std::uint32_t& low) const {
  const HGraph& g = state.g;
  const auto& arcs = g.arcs(node);
  if (alt.flat.is_atom()) {
    const AtomKind kind = alt.flat.atom;
    if (arcs.empty() && atom_matches(g, node, kind)) return true;
    return state.fail([&] {
      const std::string name(atom_kind_name(kind));
      return nt < std::size(kAtomKinds) && !atom_matches(g, node, kind)
                 ? "atom " + atom_to_string(g.value(node)) +
                       " does not match " + name
                 : "expected leaf atom " + name;
    });
  }

  const Composite& comp = *alt.flat.comp;
  if (!atom_matches(g, node, comp.own_atom)) {
    return state.fail([&] {
      return "node atom " + atom_to_string(g.value(node)) + " violates @" +
             std::string(atom_kind_name(comp.own_atom));
    });
  }

  // marks[base + i] != 0: arc i is claimed by an earlier pattern.  The
  // scratch is a stack shared with the composites checked below this one,
  // so it is indexed, never referenced.
  const std::size_t base = state.marks.size();
  state.marks.resize(base + arcs.size(), 0);
  const bool ok = [&] {
    for (std::size_t p = 0; p < comp.arcs.size(); ++p) {
      const ArcPattern& pat = comp.arcs[p];
      const bool family = pat.multiplicity == Multiplicity::IndexedFamily;
      const auto claims = [&](std::size_t i) {
        return state.marks[base + i] == 0 &&
               (family ? family_index(arcs[i].label, pat.label).has_value()
                       : arcs[i].label == pat.label);
      };
      std::size_t hits = 0;
      for (std::size_t i = 0; i < arcs.size(); ++i) hits += claims(i);
      const auto count_error = [&](const char* expected) {
        return state.fail([&] {
          return std::string(expected) + " arc '" + pat.label + "', found " +
                 std::to_string(hits);
        });
      };
      if (pat.multiplicity == Multiplicity::One && hits != 1)
        return count_error("expected exactly one");
      if (pat.multiplicity == Multiplicity::Optional && hits > 1)
        return count_error("expected at most one");
      if (family) {
        // The indices must be exactly {0, 1, ..., hits-1}, each once.
        const std::size_t seen = state.marks.size();
        state.marks.resize(seen + hits, 0);
        bool contiguous = true;
        for (std::size_t i = 0; i < arcs.size(); ++i) {
          if (!claims(i)) continue;
          const std::size_t index = *family_index(arcs[i].label, pat.label);
          if (index >= hits || std::exchange(state.marks[seen + index], 1))
            contiguous = false;
        }
        state.marks.resize(seen);
        if (!contiguous) {
          return state.fail([&] {
            return "arcs '" + pat.label +
                   "[i]' are not a contiguous 0-based family";
          });
        }
      }
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        if (!claims(i)) continue;
        state.marks[base + i] = 1;
        if (state.explain) state.path.push_back(&arcs[i].label);
        const bool child =
            check(arcs[i].target, targets_[alt.targets + p], state, low);
        if (state.explain) state.path.pop_back();
        if (!child) return false;
      }
    }
    for (std::size_t i = 0; i < arcs.size() && !comp.open; ++i) {
      if (state.marks[base + i] == 0)
        return state.fail(
            [&] { return "unexpected arc '" + arcs[i].label + "'"; });
    }
    return true;
  }();
  state.marks.resize(base);
  return ok;
}

ConformanceResult Grammar::validate() const {
  ConformanceResult result;
  for (const auto& [name, alts] : rules_) {
    for (const auto& rule : alts) {
      for_each_reference(rule, [&](const std::string& target,
                                   const ArcPattern*, const SourceLoc& loc) {
        if (!result || has_rule(target)) return;
        result.ok = false;
        result.error = "rule '" + name + "' (" + loc.to_string() +
                       ") references undefined nonterminal '" + target + "'";
      });
    }
  }
  return result;
}

std::vector<FlatAlternative> flat_alternatives(const Grammar& grammar,
                                               std::string_view nonterminal) {
  std::vector<std::string_view> seen;
  std::vector<FlatAlternative> out;
  expand(grammar, nonterminal, seen, out);
  return out;
}

}  // namespace fem2::hgraph
