// fem2_analyze — static + dynamic analysis CLI over the FEM-2 stack.
//
//   fem2_analyze --lint-grammars            lint the five built-in layer
//                                           grammars (exit 1 on any finding;
//                                           registered as a tier-1 test)
//   fem2_analyze --lint-file FILE           parse + lint a grammar file
//   fem2_analyze --check [--stride N]       run an instrumented distributed
//                                           solve with conformance, race and
//                                           deadlock detection (exit 1 on
//                                           any error-severity finding)
//   fem2_analyze --verify [--bound N]       static spec verification: grammar
//                                           language algorithms + refinement,
//                                           rule type preservation, bounded
//                                           protocol model checking (exit 1
//                                           on any finding)
//
// Several modes may be given; they run in command-line order and the exit
// code is the worst of theirs (--check is the default).
#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/verify.hpp"
#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "hgraph/grammar_parser.hpp"
#include "navm/parops.hpp"

using namespace fem2;

namespace {

int report(const std::vector<analyze::Finding>& findings,
           analyze::Severity fail_at) {
  for (const auto& f : findings) std::cout << f.to_string() << "\n";
  const std::size_t failures = analyze::count_at_least(findings, fail_at);
  if (failures == 0) {
    std::cout << "OK: no findings at or above "
              << analyze::severity_name(fail_at) << " ("
              << findings.size() << " total)\n";
    return 0;
  }
  std::cout << "FAIL: " << failures << " finding(s) at or above "
            << analyze::severity_name(fail_at) << "\n";
  return 1;
}

/// Parses a whole decimal count into `out`; false on anything else.
bool parse_count(const char* text, std::size_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

int lint_grammars() {
  std::cout << "linting built-in layer grammars (appvm, db, navm, sysvm, hw)\n";
  return report(analyze::Analyzer::lint_layer_grammars(),
                analyze::Severity::Info);
}

int lint_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fem2_analyze: cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  hgraph::Grammar grammar;
  try {
    grammar = hgraph::parse_grammar(text.str());
  } catch (const hgraph::GrammarParseError& e) {
    std::cout << "error [lint/-] parse-error (" << path << "): " << e.what()
              << "\n";
    return 1;
  }
  return report(analyze::lint_grammar(grammar, path),
                analyze::Severity::Info);
}

int check(std::size_t stride) {
  hw::MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 4;
  hw::Machine machine(config);
  sysvm::Os os(machine);
  navm::Runtime runtime(os);
  navm::register_parallel_ops(runtime);

  analyze::AnalyzerOptions options;
  options.snapshot_stride = stride;
  analyze::Analyzer analyzer(runtime, options);

  std::cout << "running instrumented distributed solve (cantilever plate, "
            << config.clusters << " clusters, stride " << stride << ")\n";
  const auto model = fem::make_cantilever_plate({.nx = 16, .ny = 6}, 1'000.0);
  const auto result = fem::solve_static_parallel(model, "tip-shear", runtime,
                                                 {.workers = 8});
  analyzer.check_now();

  const auto stats = analyzer.stats();
  std::cout << "solve: " << result.stats.iterations << " iterations\n"
            << "observed: " << stats.steps_observed << " task steps, "
            << stats.accesses_tracked << " window accesses, "
            << stats.quiescent_points << " quiescent points\n"
            << "checked: " << stats.snapshots << " snapshots ("
            << stats.graphs_checked << " graphs), " << stats.messages_checked
            << " messages\n";
  return report(analyzer.findings(), analyze::Severity::Error);
}

int verify(std::size_t bound) {
  analyze::VerifyOptions options;
  if (bound != 0) {
    options.messaging.max_states = bound;
    options.db_health.max_states = bound;
  }
  std::cout << "verifying specs: grammar languages + refinement, rule type "
               "preservation, protocol model checking\n";
  const auto report_out = analyze::verify_specs(options);
  const auto& s = report_out.stats;
  std::cout << "grammars: " << s.grammars << " checked, " << s.nonterminals
            << " nonterminals, " << s.witnesses << " witnesses, "
            << s.refinement_pairs << " refinement pairs\n"
            << "rules: " << s.rules << " transforms, " << s.paths
            << " abstract paths\n";
  const auto protocol_line = [](const char* name,
                                const analyze::ModelCheckResult& r) {
    std::cout << name << ": " << r.states << " states, " << r.transitions
              << " transitions, depth " << r.depth
              << (r.bounded_out ? " (bounded out)" : " (exhausted)") << "\n";
  };
  protocol_line("messaging protocol", report_out.messaging);
  protocol_line("db health protocol", report_out.db_health);
  return report(report_out.findings, analyze::Severity::Info);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t stride = 64;
  std::size_t bound = 0;
  // The requested modes, run in command-line order once every option is
  // parsed.
  std::vector<std::function<int()>> modes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lint-grammars") == 0) {
      modes.emplace_back(lint_grammars);
    } else if (std::strcmp(argv[i], "--check") == 0) {
      modes.emplace_back([&] { return check(stride); });
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      modes.emplace_back([&] { return verify(bound); });
    } else if (std::strcmp(argv[i], "--lint-file") == 0 && i + 1 < argc) {
      const char* file = argv[++i];
      modes.emplace_back([file] { return lint_file(file); });
    } else if (std::strcmp(argv[i], "--stride") == 0 && i + 1 < argc &&
               parse_count(argv[i + 1], stride)) {
      ++i;
    } else if (std::strcmp(argv[i], "--bound") == 0 && i + 1 < argc &&
               parse_count(argv[i + 1], bound)) {
      ++i;
    } else {
      std::cerr << "usage: fem2_analyze [--lint-grammars] [--lint-file FILE]"
                   " [--check [--stride N]] [--verify [--bound N]]\n";
      return 2;
    }
  }
  if (modes.empty()) modes.emplace_back([&] { return check(stride); });
  int status = 0;
  for (const auto& run : modes) status = std::max(status, run());
  return status;
}
