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
#include <gtest/gtest.h>

#include <cctype>
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

TEST(GrammarFuzz, MutantsAreRejectedOrAnalyzedConsistently) {
  support::Rng rng(kSeed);
  std::size_t parsed = 0;
  std::size_t witnesses = 0;
  for (const std::string_view source :
       {spec::appvm_grammar_text(), spec::db_grammar_text(),
        spec::navm_grammar_text(), spec::sysvm_grammar_text(),
        spec::hw_grammar_text()}) {
    const auto original = split_tokens(source);
    const auto pool = nonterminal_pool(original);
    for (int m = 0; m < kMutantsPerGrammar; ++m) {
      auto tokens = original;
      const std::uint64_t edits = 1 + rng.next_below(3);
      for (std::uint64_t e = 0; e < edits && !tokens.empty(); ++e)
        mutate(tokens, pool, rng);
      const std::string text = join(tokens);

      hgraph::Grammar grammar;
      try {
        grammar = hgraph::parse_grammar(text);
      } catch (const hgraph::GrammarParseError&) {
        continue;
      }
      ++parsed;

      const auto productive = hgraph::productive_nonterminals(grammar);
      std::set<std::string> unproductive;
      for (const auto& nt : grammar.nonterminals())
        if (!productive.contains(nt)) unproductive.insert(nt);
      std::set<std::string> linted;
      for (const auto& f : analyze::lint_grammar(grammar, "mutant")) {
        if (f.rule == "unproductive-nonterminal")
          linted.insert(f.entity.substr(std::string_view("mutant:").size()));
      }
      ASSERT_EQ(linted, unproductive) << "mutant:\n" << text;

      for (const auto& nt : productive) {
        const auto witness = hgraph::witness_graph(grammar, nt);
        ASSERT_TRUE(witness.ok) << nt << ": " << witness.error << "\n"
                                << text;
        const auto check = grammar.conforms(witness.graph, witness.root, nt);
        ASSERT_TRUE(check.ok) << nt << ": " << check.error << "\n" << text;
        ++witnesses;
      }
    }
  }
  // The corpus must keep reaching the analyses, not just the parser.
  EXPECT_GT(parsed, 5u * kMutantsPerGrammar / 4);
  EXPECT_GT(witnesses, 5 * parsed);
}

}  // namespace
}  // namespace fem2
