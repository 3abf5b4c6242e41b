// Parser for the textual H-graph grammar notation (see grammar.hpp):
//
//   # structural model, application user's VM
//   structure ::= { name: STRING, grid: grid, loadset[*]: loadset }
//   grid      ::= { nx: INT, ny: INT, node[*]: gridnode }
//   gridnode  ::= { x: REAL, y: REAL }
//   scalar    ::= INT | REAL
//   list      ::= NIL | { @INT, next?: list }
//
// Rules may span multiple lines; `#` starts a comment to end of line.
#pragma once

#include <string_view>

#include "hgraph/grammar.hpp"
#include "support/check.hpp"

namespace fem2::hgraph {

/// Thrown on malformed grammar text; message includes line and column.
class GrammarParseError : public support::Error {
 public:
  using support::Error::Error;
};

/// Parse a complete grammar.  Also runs Grammar::validate() and throws
/// GrammarParseError if any referenced nonterminal is undefined or a rule
/// redefines a builtin atom nonterminal.
Grammar parse_grammar(std::string_view text);

}  // namespace fem2::hgraph
