#include <gtest/gtest.h>

#include "hgraph/grammar.hpp"
#include "hgraph/grammar_algorithms.hpp"
#include "hgraph/grammar_parser.hpp"
#include "hgraph/hgraph.hpp"
#include "hgraph/transform.hpp"

namespace fem2::hgraph {
namespace {

TEST(HGraph, NodesValuesAndArcs) {
  HGraph g;
  const auto root = g.add_node();
  const auto leaf = g.add_int(7);
  g.add_arc(root, "child", leaf);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_TRUE(g.is_empty(root));
  EXPECT_EQ(g.int_value(leaf), 7);
  EXPECT_EQ(g.follow(root, "child"), leaf);
  EXPECT_FALSE(g.follow(root, "missing").valid());
  EXPECT_EQ(g.real_value(leaf), 7.0);  // REAL accepts INT
  EXPECT_FALSE(g.string_value(leaf).has_value());
}

TEST(HGraph, SetArcReplacesTarget) {
  HGraph g;
  const auto root = g.add_node();
  const auto a = g.add_int(1);
  const auto b = g.add_int(2);
  g.set_arc(root, "x", a);
  g.set_arc(root, "x", b);
  EXPECT_EQ(g.arcs(root).size(), 1u);
  EXPECT_EQ(g.follow(root, "x"), b);
  EXPECT_TRUE(g.remove_arc(root, "x"));
  EXPECT_FALSE(g.remove_arc(root, "x"));
}

TEST(HGraph, FollowPathAndFollowAll) {
  HGraph g;
  const auto root = g.add_node();
  const auto mid = g.add_node();
  const auto leaf = g.add_string("deep");
  g.add_arc(root, "a", mid);
  g.add_arc(mid, "b", leaf);
  g.add_arc(root, "multi", mid);
  g.add_arc(root, "multi", leaf);
  EXPECT_EQ(g.follow_path(root, {"a", "b"}), leaf);
  EXPECT_FALSE(g.follow_path(root, {"a", "nope"}).valid());
  EXPECT_EQ(g.follow_all(root, "multi").size(), 2u);
  EXPECT_EQ(g.arc_count(root, "multi"), 2u);
}

TEST(HGraph, ReachableHandlesCycles) {
  HGraph g;
  const auto a = g.add_node();
  const auto b = g.add_node();
  g.add_arc(a, "next", b);
  g.add_arc(b, "next", a);  // cycle
  const auto order = g.reachable(a);
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], a);
}

TEST(HGraph, DumpIsDeterministic) {
  HGraph g;
  const auto root = g.add_node();
  g.add_arc(root, "v", g.add_real(1.5));
  EXPECT_EQ(g.to_string(root), "n0 = nil .v->n1\nn1 = 1.5\n");
}

// --- grammar ---------------------------------------------------------------

TEST(Grammar, AtomKindsMatch) {
  HGraph g;
  EXPECT_TRUE(atom_matches(g, g.add_int(1), AtomKind::Int));
  EXPECT_TRUE(atom_matches(g, g.add_int(1), AtomKind::Real));
  EXPECT_FALSE(atom_matches(g, g.add_real(1.0), AtomKind::Int));
  EXPECT_TRUE(atom_matches(g, g.add_string("s"), AtomKind::String));
  EXPECT_TRUE(atom_matches(g, g.add_node(), AtomKind::Nil));
  EXPECT_TRUE(atom_matches(g, g.add_node(), AtomKind::Any));
}

Grammar point_grammar() {
  return parse_grammar("point ::= { x: REAL, y: REAL }");
}

TEST(Grammar, CompositeConformance) {
  HGraph g;
  const auto p = g.add_node();
  g.add_arc(p, "x", g.add_real(1.0));
  g.add_arc(p, "y", g.add_real(2.0));
  EXPECT_TRUE(point_grammar().conforms(g, p, "point"));
}

TEST(Grammar, MissingArcFails) {
  HGraph g;
  const auto p = g.add_node();
  g.add_arc(p, "x", g.add_real(1.0));
  const auto r = point_grammar().conforms(g, p, "point");
  EXPECT_FALSE(r);
  EXPECT_NE(r.error.find("'y'"), std::string::npos);
}

TEST(Grammar, ExtraArcFailsUnlessOpen) {
  HGraph g;
  const auto p = g.add_node();
  g.add_arc(p, "x", g.add_real(1.0));
  g.add_arc(p, "y", g.add_real(2.0));
  g.add_arc(p, "z", g.add_real(3.0));
  EXPECT_FALSE(point_grammar().conforms(g, p, "point"));
  const auto open =
      parse_grammar("point ::= { x: REAL, y: REAL, ... }");
  EXPECT_TRUE(open.conforms(g, p, "point"));
}

TEST(Grammar, AlternativesAndAlias) {
  const auto g = parse_grammar(R"(
value ::= INT | REAL | wrapped
wrapped ::= { v: value }
alias ::= value
)");
  HGraph h;
  EXPECT_TRUE(g.conforms(h, h.add_int(1), "value"));
  EXPECT_TRUE(g.conforms(h, h.add_real(1.5), "alias"));
  const auto w = h.add_node();
  h.add_arc(w, "v", h.add_int(3));
  EXPECT_TRUE(g.conforms(h, w, "value"));
  EXPECT_FALSE(g.conforms(h, h.add_string("no"), "value"));
}

TEST(Grammar, RecursiveListAndCycleCoinduction) {
  const auto g = parse_grammar("list ::= NIL | { @INT, next?: list }");
  HGraph h;
  // Proper list: 1 -> 2 -> nil-less tail.
  const auto n2 = h.add_int(2);
  const auto n1 = h.add_int(1);
  h.add_arc(n1, "next", n2);
  EXPECT_TRUE(g.conforms(h, n1, "list"));
  // Circular list: conforms coinductively.
  const auto c1 = h.add_int(1);
  const auto c2 = h.add_int(2);
  h.add_arc(c1, "next", c2);
  h.add_arc(c2, "next", c1);
  EXPECT_TRUE(g.conforms(h, c1, "list"));
}

TEST(Grammar, IndexedFamilyMustBeContiguous) {
  const auto g = parse_grammar("vec ::= { item[*]: INT }");
  HGraph h;
  const auto good = h.add_node();
  h.add_arc(good, "item[0]", h.add_int(1));
  h.add_arc(good, "item[1]", h.add_int(2));
  EXPECT_TRUE(g.conforms(h, good, "vec"));

  const auto empty = h.add_node();
  EXPECT_TRUE(g.conforms(h, empty, "vec"));

  const auto gapped = h.add_node();
  h.add_arc(gapped, "item[0]", h.add_int(1));
  h.add_arc(gapped, "item[2]", h.add_int(3));
  EXPECT_FALSE(g.conforms(h, gapped, "vec"));

  const auto dup = h.add_node();
  h.add_arc(dup, "item[0]", h.add_int(1));
  h.add_arc(dup, "item[0]", h.add_int(1));
  EXPECT_FALSE(g.conforms(h, dup, "vec"));
}

TEST(Grammar, StarMultiplicity) {
  const auto g = parse_grammar("bag ::= { item*: INT }");
  HGraph h;
  const auto none = h.add_node();
  EXPECT_TRUE(g.conforms(h, none, "bag"));
  const auto three = h.add_node();
  for (int i = 0; i < 3; ++i) h.add_arc(three, "item", h.add_int(i));
  EXPECT_TRUE(g.conforms(h, three, "bag"));
  const auto bad = h.add_node();
  h.add_arc(bad, "item", h.add_string("not an int"));
  EXPECT_FALSE(g.conforms(h, bad, "bag"));
}

TEST(Grammar, OwnAtomConstraint) {
  const auto g = parse_grammar("tagged ::= { @STRING, next?: tagged }");
  HGraph h;
  const auto good = h.add_string("tag");
  EXPECT_TRUE(g.conforms(h, good, "tagged"));
  const auto bad = h.add_int(3);
  EXPECT_FALSE(g.conforms(h, bad, "tagged"));
}

TEST(Grammar, ErrorPathsAreInformative) {
  const auto g = parse_grammar(R"(
outer ::= { inner: inner }
inner ::= { v: INT }
)");
  HGraph h;
  const auto o = h.add_node();
  const auto i = h.add_node();
  h.add_arc(o, "inner", i);
  h.add_arc(i, "v", h.add_string("wrong"));
  const auto r = g.conforms(h, o, "outer");
  ASSERT_FALSE(r);
  EXPECT_NE(r.error.find(".inner.v"), std::string::npos);
}

TEST(Grammar, AliasCycleIsNoEvidence) {
  // Only a revisit through an arc is coinductive; `self` is just REAL.
  const auto g = parse_grammar("self ::= self | REAL\n");
  HGraph h;
  EXPECT_TRUE(g.conforms(h, h.add_real(1.5), "self"));
  EXPECT_TRUE(g.conforms(h, h.add_int(2), "self"));
  EXPECT_FALSE(g.conforms(h, h.add_string("s"), "self"));
}

TEST(Grammar, ProofUnderARefutedAssumptionIsDropped) {
  // c:B holds only if n:A does, and n:A fails on y, so neither C nor an
  // alias choosing between A and C may accept n.
  const auto g = parse_grammar(R"(
root ::= A | C
top ::= { a: A } | { a: C }
A ::= { x: B, y: INT }
B ::= { p: A }
C ::= { x: B, y: STRING }
)");
  HGraph h;
  const auto n = h.add_node();
  const auto c = h.add_node();
  h.add_arc(n, "x", c);
  h.add_arc(n, "y", h.add_string("s"));
  h.add_arc(c, "p", n);
  EXPECT_FALSE(g.conforms(h, n, "A"));
  EXPECT_FALSE(g.conforms(h, n, "C"));
  EXPECT_FALSE(g.conforms(h, c, "B"));
  EXPECT_FALSE(g.conforms(h, n, "root"));
  // Through an arc: c:B is proven while n:A is assumed, n:A then fails,
  // and the second alternative of top must not reuse c:B.
  const auto t = h.add_node();
  h.add_arc(t, "a", n);
  EXPECT_FALSE(g.conforms(h, t, "top"));
}

TEST(Grammar, BuiltinArcTargetIsALeafAtom) {
  const auto impl = parse_grammar("root ::= { x: INT }\n");
  const auto spec = parse_grammar("root ::= { x: leaf }\nleaf ::= INT\n");
  ASSERT_TRUE(refines(impl, "root", spec, "root"));
  HGraph h;
  const auto n = h.add_node();
  const auto x = h.add_int(7);
  h.add_arc(n, "x", x);
  h.add_arc(x, "z", h.add_int(1));
  // The refinement "yes" holds on the graph: neither grammar accepts it.
  const auto r = impl.conforms(h, n, "root");
  EXPECT_FALSE(r);
  EXPECT_EQ(r.error, "<root>.x: expected leaf atom INT");
  EXPECT_FALSE(spec.conforms(h, n, "root"));

  const auto s = h.add_node();
  h.add_arc(s, "x", h.add_string("s"));
  EXPECT_EQ(impl.conforms(h, s, "root").error,
            "<root>.x: atom \"s\" does not match INT");
}

TEST(Grammar, TaggedListChecksInLinearTime) {
  // The first alternative proves the whole tail before its tag fails.
  // Those proofs rest on no open assumption, so the second alternative
  // reuses them instead of re-proving the tail (2^64 checks otherwise).
  const auto g = parse_grammar(
      "list ::= { next?: list, v: INT } | { next?: list, v: STRING }\n");
  HGraph h;
  NodeId head;
  for (int i = 0; i < 64; ++i) {
    const auto node = h.add_node();
    if (head.valid()) h.add_arc(node, "next", head);
    h.add_arc(node, "v", h.add_string("tag"));
    head = node;
  }
  EXPECT_TRUE(g.conforms(h, head, "list"));
}

TEST(GrammarParser, RejectsMalformedText) {
  EXPECT_THROW(parse_grammar("nonsense"), GrammarParseError);
  EXPECT_THROW(parse_grammar("a ::= { x INT }"), GrammarParseError);
  EXPECT_THROW(parse_grammar("a ::= { x: undefined_nt }"),
               GrammarParseError);
  EXPECT_THROW(parse_grammar("a ::= @ b"), GrammarParseError);
}

/// Extract "what()" for a parse failure (fails the test if none thrown).
std::string parse_error_of(std::string_view text) {
  try {
    parse_grammar(text);
  } catch (const GrammarParseError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no parse error for: " << text;
  return "";
}

TEST(GrammarParser, BadMultiplicityTokenReportsLineAndColumn) {
  // '+' is not a multiplicity marker; the lexer rejects it where it stands.
  const std::string error = parse_error_of("a ::= { x+: INT }");
  EXPECT_NE(error.find("unexpected '+'"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1, col 10"), std::string::npos) << error;
}

TEST(GrammarParser, DuplicateArcLabelRejectedWithBothLocations) {
  const std::string error =
      parse_error_of("a ::= { x: INT,\n        x: REAL }");
  EXPECT_NE(error.find("duplicate arc label 'x'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("line 2, col 9"), std::string::npos) << error;
  EXPECT_NE(error.find("first declared at line 1, col 9"),
            std::string::npos)
      << error;
}

TEST(GrammarParser, DuplicateLabelAcrossMultiplicitiesRejected) {
  EXPECT_THROW(parse_grammar("a ::= { n: INT, n[*]: INT }"),
               GrammarParseError);
  EXPECT_THROW(parse_grammar("a ::= { n?: INT, n*: INT }"),
               GrammarParseError);
  // The same label in *different* alternatives stays legal.
  EXPECT_NO_THROW(parse_grammar("a ::= { n: INT } | { n: REAL }"));
}

TEST(GrammarParser, UnterminatedCompositeReportsEndOfInput) {
  const std::string error = parse_error_of("a ::= { x: INT");
  EXPECT_NE(error.find("expected ','"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1, col 15"), std::string::npos) << error;
}

TEST(GrammarParser, UnterminatedAlternativeReportsLocation) {
  const std::string error = parse_error_of("a ::= INT |");
  EXPECT_NE(error.find("expected atom kind or nonterminal"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("line 1, col 12"), std::string::npos) << error;
}

TEST(GrammarParser, BuiltinRedefinitionReportsRuleLocation) {
  const std::string error = parse_error_of("a ::= INT\nINT ::= REAL\n");
  EXPECT_NE(error.find("cannot redefine builtin nonterminal 'INT'"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("line 2, col 1"), std::string::npos) << error;
}

class GrammarParserRobustness
    : public ::testing::TestWithParam<const char*> {};

TEST_P(GrammarParserRobustness, MalformedInputsThrowCleanly) {
  EXPECT_THROW(parse_grammar(GetParam()), GrammarParseError);
}

INSTANTIATE_TEST_SUITE_P(
    BadGrammars, GrammarParserRobustness,
    ::testing::Values("a ::=", "a ::= {", "a ::= { x: }", "::= INT",
                      "a ::= INT |", "a ::= { x?: }", "a ::= { @foo }",
                      "a b ::= INT", "a ::= { x: INT y: INT }",
                      "a ::= $bad", "a ::= { ..., }"));

TEST(GrammarParser, CommentsAndMultiline) {
  const auto g = parse_grammar(R"(
# leading comment
pair ::= { a: INT,
           b: INT }   # trailing comment
)");
  HGraph h;
  const auto p = h.add_node();
  h.add_arc(p, "a", h.add_int(1));
  h.add_arc(p, "b", h.add_int(2));
  EXPECT_TRUE(g.conforms(h, p, "pair"));
}

// --- transforms --------------------------------------------------------------

TEST(Transforms, CheckedApplicationAndInvocation) {
  auto grammar = parse_grammar(R"(
counter ::= { @INT }
)");
  TransformRegistry registry(std::move(grammar));
  registry.register_transform(
      "increment", {"counter", "counter", {}},
      [](Invoker&, HGraph& g, NodeId n) {
        g.set_value(n, Atom{*g.int_value(n) + 1});
        return n;
      });
  registry.register_transform(
      "increment-twice", {"counter", "counter", {}},
      [](Invoker& invoker, HGraph&, NodeId n) {
        invoker.call("increment", n);
        return invoker.call("increment", n);
      });

  HGraph g;
  const auto n = g.add_int(5);
  const auto out = registry.apply("increment-twice", g, n);
  EXPECT_EQ(g.int_value(out), 7);
  EXPECT_EQ(registry.applications(), 3u);
}

TEST(Transforms, InputViolationRejected) {
  TransformRegistry registry(parse_grammar("counter ::= { @INT }"));
  registry.register_transform("noop", {"counter", "counter", {}},
                              [](Invoker&, HGraph&, NodeId n) { return n; });
  HGraph g;
  EXPECT_THROW(registry.apply("noop", g, g.add_string("nope")),
               TransformError);
}

TEST(Transforms, OutputViolationRejected) {
  TransformRegistry registry(parse_grammar("counter ::= { @INT }"));
  registry.register_transform(
      "corrupt", {"counter", "counter", {}},
      [](Invoker&, HGraph& g, NodeId) { return g.add_string("bad"); });
  HGraph g;
  EXPECT_THROW(registry.apply("corrupt", g, g.add_int(1)), TransformError);
}

TEST(Transforms, UnknownTransformRejected) {
  TransformRegistry registry(parse_grammar("t ::= ANY"));
  HGraph g;
  EXPECT_THROW(registry.apply("missing", g, g.add_node()), TransformError);
}

}  // namespace
}  // namespace fem2::hgraph
