// Seeded, in-repo fuzzing of the H-graph grammar parser and the grammar
// algorithms.  A fixed number of token-level mutants of the five layer
// grammar texts is drawn from a fixed seed, so every run (and the
// sanitizer job) sees the same corpus.  Each mutant must either be
// rejected with GrammarParseError or parse, lint and derive witnesses
// consistently:
//
//   * lint's unproductive-nonterminal findings are exactly the
//     nonterminals productive_nonterminals leaves out;
//   * every productive nonterminal has a witness that Grammar::conforms
//     accepts.
//
// Grammar::conforms is also checked differentially against a reference
// greatest fixpoint computed here from flat_alternatives, on the witnesses
// of the layer grammars and of the mutants and on seeded edits of them;
// and on the layer grammars, every sampled graph that conforms to `a` must
// conform to each `b` that `a` refines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/lint.hpp"
#include "hgraph/grammar_algorithms.hpp"
#include "hgraph/grammar_parser.hpp"
#include "spec/layers.hpp"
#include "support/rng.hpp"

namespace fem2 {
namespace {

constexpr std::uint64_t kSeed = 0x6f2a'11d5'c0de'f00dULL;
constexpr int kMutantsPerGrammar = 600;
constexpr std::uint64_t kGraphSeed = 0x9e11'a5ed'0b5e'55edULL;
/// Seeded edits of each witness in the differential test.
constexpr int kEditedCopies = 3;

std::vector<std::string_view> layer_sources() {
  return {spec::appvm_grammar_text(), spec::db_grammar_text(),
          spec::navm_grammar_text(), spec::sysvm_grammar_text(),
          spec::hw_grammar_text()};
}

/// Identifier, punctuation and whitespace tokens; concatenating them gives
/// the text back.
std::vector<std::string> split_tokens(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i + 1;
    const auto ident = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
    };
    const auto space = [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    if (ident(text[i])) {
      while (j < text.size() && ident(text[j])) ++j;
    } else if (space(text[i])) {
      while (j < text.size() && space(text[j])) ++j;
    }
    out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

bool is_identifier(const std::string& token) {
  return std::isalpha(static_cast<unsigned char>(token[0])) != 0 ||
         token[0] == '_';
}

/// The texts that can stand where a nonterminal is expected: rule names
/// and the builtin atom names.
std::vector<std::string> nonterminal_pool(
    const std::vector<std::string>& tokens) {
  std::set<std::string> names;
  for (const hgraph::AtomKind k : hgraph::kAtomKinds)
    names.emplace(hgraph::atom_kind_name(k));
  for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (is_identifier(tokens[i]) && tokens[i + 2] == ":" &&
        tokens[i + 3] == ":")
      names.insert(tokens[i]);  // `name ::=`
  }
  return {names.begin(), names.end()};
}

/// One random token-level edit.
void mutate(std::vector<std::string>& tokens,
            const std::vector<std::string>& pool, support::Rng& rng) {
  static const char* const kPunctuation[] = {
      "{", "}", ",", ":", "|", "?", "*", "[*]", "@", "...", "::=", "\n"};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  const std::size_t at = pick(tokens.size());
  switch (pick(7)) {
    case 0:
    case 1:  // retarget: an identifier becomes a rule or builtin name
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        std::string& token = tokens[(at + i) % tokens.size()];
        if (!is_identifier(token)) continue;
        token = pool[pick(pool.size())];
        break;
      }
      break;
    case 2:  // drop a token
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 3:  // repeat a token
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                    tokens[at]);
      break;
    case 4:  // insert punctuation
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                    kPunctuation[pick(std::size(kPunctuation))]);
      break;
    case 5:  // lead the next rule with an alias: `a ::= b | ...`
      for (std::size_t i = at; i < tokens.size(); ++i) {
        if (tokens[i] != "=") continue;
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i + 1),
                      {" ", pool[pick(pool.size())], " |"});
        break;
      }
      break;
    default:  // swap two tokens
      std::swap(tokens[at], tokens[pick(tokens.size())]);
      break;
  }
}

std::string join(const std::vector<std::string>& tokens) {
  std::string text;
  for (const auto& token : tokens) text += token;
  return text;
}

/// The mutant corpus: kMutantsPerGrammar texts per layer grammar.
std::vector<std::string> mutant_texts() {
  support::Rng rng(kSeed);
  std::vector<std::string> texts;
  for (const std::string_view source : layer_sources()) {
    const auto original = split_tokens(source);
    const auto pool = nonterminal_pool(original);
    for (int m = 0; m < kMutantsPerGrammar; ++m) {
      auto tokens = original;
      const std::uint64_t edits = 1 + rng.next_below(3);
      for (std::uint64_t e = 0; e < edits && !tokens.empty(); ++e)
        mutate(tokens, pool, rng);
      texts.push_back(join(tokens));
    }
  }
  return texts;
}

/// The grammar `text` describes, or nullopt when the parser rejects it.
std::optional<hgraph::Grammar> parse_or_reject(const std::string& text) {
  try {
    return hgraph::parse_grammar(text);
  } catch (const hgraph::GrammarParseError&) {
    return std::nullopt;
  }
}

TEST(GrammarFuzz, MutantsAreRejectedOrAnalyzedConsistently) {
  std::size_t parsed = 0;
  std::size_t witnesses = 0;
  for (const std::string& text : mutant_texts()) {
    const auto grammar = parse_or_reject(text);
    if (!grammar) continue;
    ++parsed;

    const auto productive = hgraph::productive_nonterminals(*grammar);
    std::set<std::string> unproductive;
    for (const auto& nt : grammar->nonterminals())
      if (!productive.contains(nt)) unproductive.insert(nt);
    std::set<std::string> linted;
    for (const auto& f : analyze::lint_grammar(*grammar, "mutant")) {
      if (f.rule == "unproductive-nonterminal")
        linted.insert(f.entity.substr(std::string_view("mutant:").size()));
    }
    ASSERT_EQ(linted, unproductive) << "mutant:\n" << text;

    for (const auto& nt : productive) {
      const auto witness = hgraph::witness_graph(*grammar, nt);
      ASSERT_TRUE(witness.ok) << nt << ": " << witness.error << "\n" << text;
      const auto check = grammar->conforms(witness.graph, witness.root, nt);
      ASSERT_TRUE(check.ok) << nt << ": " << check.error << "\n" << text;
      ++witnesses;
    }
  }
  // The corpus must keep reaching the analyses, not just the parser.
  EXPECT_GT(parsed, 5u * kMutantsPerGrammar / 4);
  EXPECT_GT(witnesses, 5 * parsed);
}

// --- conformance against a reference greatest fixpoint ----------------------

using hgraph::HGraph;
using hgraph::NodeId;
using Pair = std::pair<std::uint32_t, std::string>;  ///< (node, nonterminal)

/// The (arc target, nonterminal) pairs a node must satisfy for composite
/// `comp` to match it, or nullopt when its atom, a multiplicity, a family's
/// indices or a closed composite's extra arc rules the composite out.  An
/// arc belongs to the first pattern, in pattern order, that names it.
std::optional<std::vector<Pair>> match(const HGraph& g, NodeId node,
                                       const hgraph::Composite& comp) {
  if (!hgraph::atom_matches(g, node, comp.own_atom)) return std::nullopt;
  const auto& arcs = g.arcs(node);
  std::vector<bool> claimed(arcs.size(), false);
  std::vector<Pair> children;
  for (const auto& pat : comp.arcs) {
    const bool family =
        pat.multiplicity == hgraph::Multiplicity::IndexedFamily;
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const auto index = hgraph::family_index(arcs[i].label, pat.label);
      if (claimed[i] || (family ? !index : arcs[i].label != pat.label))
        continue;
      claimed[i] = true;
      indices.push_back(index.value_or(0));
      children.emplace_back(arcs[i].target.index, pat.nonterminal);
    }
    if (pat.multiplicity == hgraph::Multiplicity::One && indices.size() != 1)
      return std::nullopt;
    if (pat.multiplicity == hgraph::Multiplicity::Optional &&
        indices.size() > 1)
      return std::nullopt;
    std::ranges::sort(indices);
    for (std::size_t k = 0; family && k < indices.size(); ++k)
      if (indices[k] != k) return std::nullopt;
  }
  if (!comp.open && std::ranges::find(claimed, false) != claimed.end())
    return std::nullopt;
  return children;
}

/// Does some flattened alternative of `pair.second` accept the node, given
/// that exactly the pairs in `holds` conform?
bool satisfied(const hgraph::Grammar& grammar, const HGraph& g,
               const Pair& pair, const std::set<Pair>& holds) {
  const NodeId node{pair.first};
  for (const auto& alt : hgraph::flat_alternatives(grammar, pair.second)) {
    if (alt.is_atom()) {
      if (g.arcs(node).empty() && hgraph::atom_matches(g, node, alt.atom))
        return true;
    } else if (const auto children = match(g, node, *alt.comp)) {
      if (std::ranges::all_of(*children, [&](const Pair& child) {
            return holds.contains(child);
          }))
        return true;
    }
  }
  return false;
}

/// Reference conformance: collect the pairs reachable from (root, nt), then
/// drop every pair no alternative satisfies until nothing changes.
bool reference_conforms(const hgraph::Grammar& grammar, const HGraph& g,
                        NodeId root, const std::string& nt) {
  std::set<Pair> holds;
  std::vector<Pair> todo{{root.index, nt}};
  while (!todo.empty()) {
    const Pair pair = todo.back();
    todo.pop_back();
    if (!holds.insert(pair).second) continue;
    for (const auto& alt : hgraph::flat_alternatives(grammar, pair.second)) {
      if (alt.is_atom()) continue;
      if (const auto children = match(g, NodeId{pair.first}, *alt.comp))
        todo.insert(todo.end(), children->begin(), children->end());
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (auto it = holds.begin(); it != holds.end();) {
      if (satisfied(grammar, g, *it, holds)) {
        ++it;
      } else {
        it = holds.erase(it);
        changed = true;
      }
    }
  }
  return holds.contains({root.index, nt});
}

/// One seeded edit of the graph under `root`: retarget an arc, swap an
/// atom, add a back edge to the root, or add an arc under a leaf.
void edit_graph(HGraph& g, NodeId root, support::Rng& rng) {
  const auto nodes = g.reachable(root);
  const auto any_node = [&] { return nodes[rng.next_below(nodes.size())]; };
  std::vector<std::string> labels{"z"};
  std::vector<NodeId> leaves;
  for (const NodeId n : nodes) {
    for (const auto& arc : g.arcs(n)) labels.push_back(arc.label);
    if (g.arcs(n).empty()) leaves.push_back(n);
  }
  const std::string label = labels[rng.next_below(labels.size())];
  switch (rng.next_below(4)) {
    case 0: {  // retarget an arc
      const NodeId from = any_node();
      const auto& arcs = g.arcs(from);
      if (!arcs.empty())
        g.set_arc(from, arcs[rng.next_below(arcs.size())].label, any_node());
      break;
    }
    case 1: {  // swap an atom
      const hgraph::Atom atoms[] = {hgraph::Atom{}, std::int64_t{1}, 0.5,
                                    std::string("s")};
      g.set_value(any_node(), atoms[rng.next_below(std::size(atoms))]);
      break;
    }
    case 2:  // add a back edge
      g.add_arc(any_node(), label, root);
      break;
    default:  // add an arc under a leaf
      if (!leaves.empty())
        g.add_arc(leaves[rng.next_below(leaves.size())], label, any_node());
      break;
  }
}

/// The witness of every productive nonterminal of `grammar` and
/// kEditedCopies seeded edits of each, with the nonterminal it witnesses.
struct Sample {
  HGraph graph;
  NodeId root;
  std::string nt;
};

std::vector<Sample> samples(const hgraph::Grammar& grammar,
                            support::Rng& rng) {
  std::vector<Sample> out;
  for (const auto& nt : hgraph::productive_nonterminals(grammar)) {
    auto witness = hgraph::witness_graph(grammar, nt);
    for (int copy = 0; copy < kEditedCopies; ++copy) {
      Sample edited{witness.graph, witness.root, nt};
      const std::uint64_t edits = 1 + rng.next_below(3);
      for (std::uint64_t e = 0; e < edits; ++e)
        edit_graph(edited.graph, edited.root, rng);
      out.push_back(std::move(edited));
    }
    out.push_back({std::move(witness.graph), witness.root, nt});
  }
  return out;
}

/// The rule names of `grammar` and the builtin atom names.
std::vector<std::string> all_names(const hgraph::Grammar& grammar) {
  auto names = grammar.nonterminals();
  for (const hgraph::AtomKind k : hgraph::kAtomKinds)
    names.emplace_back(hgraph::atom_kind_name(k));
  return names;
}

TEST(GrammarFuzz, ConformsAgreesWithReferenceFixpoint) {
  support::Rng rng(kGraphSeed);
  std::size_t checked = 0;
  std::size_t rejected = 0;
  const auto agree = [&](const hgraph::Grammar& grammar, const Sample& s,
                         const std::string& nt, const std::string& text) {
    const bool got = grammar.conforms(s.graph, s.root, nt).ok;
    ++checked;
    rejected += got ? 0 : 1;
    return got == reference_conforms(grammar, s.graph, s.root, nt)
               ? ::testing::AssertionSuccess()
               : ::testing::AssertionFailure()
                     << nt << " (witness of " << s.nt << "): conforms says "
                     << got << "\n"
                     << s.graph.to_string(s.root) << "grammar:\n"
                     << text;
  };
  // The layer grammars: every sample against every name.
  for (const std::string_view source : layer_sources()) {
    const auto grammar = hgraph::parse_grammar(source);
    const auto names = all_names(grammar);
    for (const Sample& s : samples(grammar, rng))
      for (const auto& nt : names)
        ASSERT_TRUE(agree(grammar, s, nt, std::string(source)));
  }
  // The mutants: every sample against its own nonterminal and one more.
  for (const std::string& text : mutant_texts()) {
    const auto grammar = parse_or_reject(text);
    if (!grammar) continue;
    const auto names = all_names(*grammar);
    for (const Sample& s : samples(*grammar, rng)) {
      ASSERT_TRUE(agree(*grammar, s, s.nt, text));
      ASSERT_TRUE(
          agree(*grammar, s, names[rng.next_below(names.size())], text));
    }
  }
  // The edits must reach both verdicts.
  EXPECT_GT(rejected, checked / 10);
  EXPECT_LT(rejected, checked * 9 / 10);
}

TEST(GrammarFuzz, RefinementHoldsOnSampledGraphs) {
  support::Rng rng(kGraphSeed);
  std::size_t implications = 0;
  for (const std::string_view source : layer_sources()) {
    const auto grammar = hgraph::parse_grammar(source);
    const hgraph::SimulationRelation refines(grammar, grammar);
    const auto names = all_names(grammar);
    for (const Sample& s : samples(grammar, rng)) {
      for (const auto& a : names) {
        if (!grammar.conforms(s.graph, s.root, a)) continue;
        for (const auto& b : names) {
          if (!refines.holds(a, b)) continue;
          EXPECT_TRUE(grammar.conforms(s.graph, s.root, b))
              << a << " refines " << b << " but the graph conforms to " << a
              << " only:\n"
              << s.graph.to_string(s.root);
          ++implications;
        }
      }
    }
  }
  EXPECT_GT(implications, 0u);
}

}  // namespace
}  // namespace fem2
