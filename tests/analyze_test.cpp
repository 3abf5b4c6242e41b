// fem2_analyze tests: the grammar linter against seeded grammar defects,
// and the dynamic passes (conformance, race, deadlock) against seeded
// runtime defects — plus the zero-false-positive guarantee on a clean
// distributed solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "hgraph/grammar_parser.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "navm/value.hpp"

namespace fem2::analyze {
namespace {

bool has_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

const Finding* first_with_rule(const std::vector<Finding>& findings,
                               std::string_view rule) {
  for (const auto& f : findings)
    if (f.rule == rule) return &f;
  return nullptr;
}

std::string dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += f.to_string() + "\n";
  return out;
}

// --- pass 1: grammar lint ---------------------------------------------------

TEST(GrammarLint, BuiltinLayerGrammarsAreClean) {
  const auto findings = Analyzer::lint_layer_grammars();
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(GrammarLint, DetectsSeededDefects) {
  auto grammar = hgraph::parse_grammar(R"(
root    ::= { a: INT, leaf: leaf }
leaf    ::= INT | INT
orphan  ::= { x: REAL }
loop    ::= { next: loop }
mixed   ::= INT | ANY
)");
  // The parser itself now rejects duplicate arc labels (see hgraph_test),
  // so seed the conflicting-arc defect by hand: dup ::= { x: INT, x: REAL }.
  hgraph::Composite dup_comp;
  dup_comp.arcs.push_back({"x", hgraph::Multiplicity::One, "INT",
                           hgraph::SourceLoc{7, 11}});
  dup_comp.arcs.push_back({"x", hgraph::Multiplicity::One, "REAL",
                           hgraph::SourceLoc{7, 19}});
  auto rules = grammar.rules();
  rules["dup"].push_back({std::move(dup_comp), hgraph::SourceLoc{7, 1}});
  grammar = hgraph::Grammar(std::move(rules));
  LintOptions options;
  options.roots = {"root"};
  const auto findings = lint_grammar(grammar, "seeded", options);

  EXPECT_TRUE(has_rule(findings, "unreachable-nonterminal"))
      << dump(findings);
  EXPECT_TRUE(has_rule(findings, "unproductive-nonterminal"))
      << dump(findings);
  EXPECT_TRUE(has_rule(findings, "duplicate-production")) << dump(findings);
  EXPECT_TRUE(has_rule(findings, "atom-conflict")) << dump(findings);
  EXPECT_TRUE(has_rule(findings, "conflicting-arc-pattern"))
      << dump(findings);

  // Diagnostics carry grammar source locations.
  const auto* dup = first_with_rule(findings, "duplicate-production");
  ASSERT_NE(dup, nullptr);
  EXPECT_NE(dup->evidence.find("line 3"), std::string::npos) << dup->evidence;
  const auto* arc = first_with_rule(findings, "conflicting-arc-pattern");
  ASSERT_NE(arc, nullptr);
  EXPECT_NE(arc->evidence.find("line 7"), std::string::npos) << arc->evidence;
}

TEST(GrammarLint, DetectsUndefinedNonterminalInHandBuiltGrammar) {
  // parse_grammar validates eagerly, so build the defective grammar by hand
  // (the lint pass must not depend on the parser's own validation).
  hgraph::Grammar::RuleMap rules;
  rules["a"].push_back({hgraph::NonterminalRef{"missing"}, {}});
  const hgraph::Grammar grammar(std::move(rules));
  const auto findings = lint_grammar(grammar, "handmade");
  const auto* f = first_with_rule(findings, "undefined-nonterminal");
  ASSERT_NE(f, nullptr) << dump(findings);
  EXPECT_EQ(f->severity, Severity::Error);
  EXPECT_NE(f->message.find("missing"), std::string::npos);
}

TEST(GrammarParser, ParseErrorCarriesLineAndColumn) {
  try {
    (void)hgraph::parse_grammar("scalar ::= INT\nbad ::= { x: INT\n");
    FAIL() << "expected GrammarParseError";
  } catch (const hgraph::GrammarParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line"), std::string::npos) << what;
    EXPECT_NE(what.find("col"), std::string::npos) << what;
  }
}

TEST(GrammarParser, UndefinedReferenceNamesItsLocation) {
  try {
    (void)hgraph::parse_grammar("a ::= { x: nowhere }\n");
    FAIL() << "expected GrammarParseError";
  } catch (const hgraph::GrammarParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nowhere"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
}

// --- runtime fixtures -------------------------------------------------------

struct Stack {
  static hw::MachineConfig make_config() {
    hw::MachineConfig c;
    c.clusters = 2;
    c.pes_per_cluster = 3;
    c.memory_per_cluster = 8u << 20;
    return c;
  }

  hw::Machine machine;
  sysvm::Os os;
  navm::Runtime runtime;

  Stack() : machine(make_config()), os(machine), runtime(os) {}
};

// --- pass 3a: race detection ------------------------------------------------

TEST(Analyzer, DetectsSeededWriteWriteRace) {
  Stack s;
  Analyzer analyzer(s.runtime);

  s.runtime.define_task("racer", [](navm::TaskContext& ctx) -> navm::Coro {
    const auto w = ctx.params().as<navm::Window>();
    co_await ctx.write(
        w, std::vector<double>(w.elements(),
                               static_cast<double>(ctx.replication_index())));
    co_return sysvm::Payload{};
  });
  s.runtime.define_task("parent", [](navm::TaskContext& ctx) -> navm::Coro {
    const navm::Window w = ctx.create_vector(std::vector<double>(8, 0.0));
    // Two siblings write the same window with no ordering between them.
    ctx.initiate("racer", 2,
                 [w](std::uint32_t) { return navm::payload_struct(w, 40); });
    co_await ctx.join(2);
    co_return sysvm::Payload{};
  });
  s.runtime.launch("parent");
  s.runtime.run();

  const auto& findings = analyzer.findings();
  const auto* race = first_with_rule(findings, "write-write-race");
  ASSERT_NE(race, nullptr) << dump(findings);
  EXPECT_EQ(race->pass, Pass::Race);
  EXPECT_EQ(race->severity, Severity::Error);
  EXPECT_EQ(race->layer, Layer::Navm);
  // Evidence names the two unordered epochs.
  EXPECT_NE(race->evidence.find("epochs"), std::string::npos)
      << race->evidence;
}

TEST(Analyzer, OrderedSiblingWritesAreNotARace) {
  Stack s;
  Analyzer analyzer(s.runtime);

  s.runtime.define_task("writer", [](navm::TaskContext& ctx) -> navm::Coro {
    const auto w = ctx.params().as<navm::Window>();
    co_await ctx.write(w, std::vector<double>(w.elements(), 1.0));
    co_return sysvm::Payload{};
  });
  s.runtime.define_task("parent", [](navm::TaskContext& ctx) -> navm::Coro {
    const navm::Window w = ctx.create_vector(std::vector<double>(8, 0.0));
    // Same two writes, but sequenced: the second child is initiated only
    // after the first terminated, so the terminate-notify edge orders them.
    ctx.initiate("writer", 1,
                 [w](std::uint32_t) { return navm::payload_struct(w, 40); });
    co_await ctx.join(1);
    ctx.initiate("writer", 1,
                 [w](std::uint32_t) { return navm::payload_struct(w, 40); });
    co_await ctx.join(1);
    co_return sysvm::Payload{};
  });
  s.runtime.launch("parent");
  s.runtime.run();

  EXPECT_TRUE(analyzer.findings().empty()) << dump(analyzer.findings());
  EXPECT_GT(analyzer.stats().accesses_tracked, 0u);
}

// --- pass 3b: deadlock detection --------------------------------------------

TEST(Analyzer, DetectsSeededWaitCycle) {
  Stack s;
  Analyzer analyzer(s.runtime);

  s.runtime.define_task("child", [](navm::TaskContext& ctx) -> navm::Coro {
    // Pauses and waits for a resume that never comes...
    co_await ctx.pause();
    co_return sysvm::Payload{};
  });
  s.runtime.define_task("parent", [](navm::TaskContext& ctx) -> navm::Coro {
    ctx.initiate("child", 1);
    // ...while the parent waits for the child to terminate.
    co_await ctx.join(1);
    co_return sysvm::Payload{};
  });
  s.runtime.launch("parent");
  s.runtime.run();  // runs to quiescence with both tasks stuck

  const auto& findings = analyzer.findings();
  const auto* cycle = first_with_rule(findings, "wait-cycle");
  ASSERT_NE(cycle, nullptr) << dump(findings);
  EXPECT_EQ(cycle->pass, Pass::Deadlock);
  EXPECT_EQ(cycle->severity, Severity::Error);
  // The cycle evidence names both waits.
  EXPECT_NE(cycle->evidence.find("paused"), std::string::npos)
      << cycle->evidence;
  EXPECT_NE(cycle->evidence.find("termination"), std::string::npos)
      << cycle->evidence;
}

// --- pass 2: conformance ----------------------------------------------------

TEST(Analyzer, DetectsConformanceBreakAndAttributesIt) {
  Stack s;
  AnalyzerOptions options;
  options.snapshot_stride = 1;
  Analyzer analyzer(s.runtime, options);
  // A stricter navm grammar whose tasksystem admits no arrays at all:
  // the first array creation makes the reflected H-graph non-conformant.
  analyzer.set_layer_grammar(Layer::Navm, hgraph::parse_grammar(R"(
taskstate   ::= STRING
task        ::= { id: INT, type: STRING, parent: INT, cluster: INT,
                  state: taskstate, replication: INT, of: INT }
tasksystem  ::= { task[*]: task }
)"));

  s.runtime.define_task("builder", [](navm::TaskContext& ctx) -> navm::Coro {
    (void)ctx.create_vector({1.0, 2.0, 3.0});
    co_await ctx.yield();
    co_return sysvm::Payload{};
  });
  s.runtime.launch("builder");
  s.runtime.run();

  const auto& findings = analyzer.findings();
  ASSERT_TRUE(has_rule(findings, "tasksystem")) << dump(findings);
  const auto* f = first_with_rule(findings, "tasksystem");
  EXPECT_EQ(f->pass, Pass::Conformance);
  EXPECT_EQ(f->layer, Layer::Navm);
  EXPECT_NE(f->message.find("array"), std::string::npos) << f->message;
  // Attribution: the recent-activity trail names the step that broke it.
  EXPECT_NE(f->evidence.find("step of task"), std::string::npos)
      << f->evidence;
}

// --- zero false positives on a clean distributed solve ----------------------

TEST(Analyzer, CleanDistributedSolveHasZeroFindings) {
  Stack s;
  navm::register_parallel_ops(s.runtime);
  AnalyzerOptions options;
  options.snapshot_stride = 16;
  Analyzer analyzer(s.runtime, options);

  const auto model = fem::make_cantilever_plate({.nx = 8, .ny = 4}, 50.0);
  const auto result = fem::solve_static_parallel(model, "tip-shear",
                                                 s.runtime, {.workers = 4});
  analyzer.check_now();

  EXPECT_TRUE(analyzer.findings().empty()) << dump(analyzer.findings());
  EXPECT_GT(result.stats.iterations, 0u);
  const auto stats = analyzer.stats();
  EXPECT_GT(stats.steps_observed, 0u);
  EXPECT_GT(stats.accesses_tracked, 0u);
  EXPECT_GT(stats.snapshots, 0u);
  EXPECT_GT(stats.messages_checked, 0u);
}

}  // namespace
}  // namespace fem2::analyze
