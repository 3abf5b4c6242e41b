// fem2-db query layer: predicate queries over the live object table.
//
// A QueryFilter combines four optional predicates — kind, name prefix and
// a [min, max] revision window — plus a row limit.  Engine::query picks
// the cheapest access path for the filter from the secondary indexes the
// engine maintains over live heads:
//
//   * revision-index : ordered (revision, name) index, used whenever the
//     filter narrows the revision window;
//   * name-range     : the object table itself is ordered by name, so a
//     name prefix becomes a bounded map range;
//   * kind-index     : kind -> live-name sets for kind-only filters;
//   * scan           : full table walk when nothing narrows the search.
//
// Whatever the path, every surviving candidate is checked against ALL
// predicates, so the planner is a pure optimisation: the result set never
// depends on which index served it.  QueryResult::scanned counts the
// candidates examined, making planner behavior observable in tests.
//
// Queries never touch the write-ahead log and never wait on a commit's
// fsync (the engine drops its mutex across every batch fsync), so the
// read path stays live while committers wait for the disk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/engine.hpp"

namespace fem2::db {

/// Conjunction of predicates over live objects.  Default-constructed,
/// it matches everything.
struct QueryFilter {
  std::string kind;          ///< exact kind; empty = any
  std::string name_prefix;   ///< name prefix; empty = any
  std::uint64_t min_revision = 0;             ///< inclusive lower bound
  std::uint64_t max_revision = kAnyRevision;  ///< inclusive upper bound
  std::size_t limit = 0;     ///< max rows returned; 0 = unlimited
};

/// Query outcome.  Rows are ordered by name, except on the
/// revision-index path where they arrive in ascending revision order
/// (the natural order for "what changed after revision R" questions).
struct QueryResult {
  std::vector<EntryInfo> rows;
  std::size_t scanned = 0;   ///< candidates examined before predicates
  bool truncated = false;    ///< limit cut the result short
  std::string plan;          ///< access path chosen (see header comment)
};

}  // namespace fem2::db
