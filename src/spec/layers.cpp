#include "spec/layers.hpp"

#include "hgraph/grammar_parser.hpp"

namespace fem2::spec {

// Each *_grammar() parses its constant text once per process and returns
// a copy: every Analyzer takes three of them, and a copy costs a fraction
// of a parse.

// ---------------------------------------------------------------------------
// Layer 1: application user's virtual machine

std::string_view appvm_grammar_text() {
  return R"(
# Application user's VM (layer 1).
# Data objects: structure/substructure model, grid description,
# node/element description, load set, displacements, stresses.

structure   ::= { name: STRING, node[*]: point, material[*]: material,
                  element[*]: element, constraint[*]: constraint,
                  loadset[*]: loadset }
point       ::= { x: REAL, y: REAL }
material    ::= { name: STRING, E: REAL, nu: REAL, A: REAL, I: REAL, t: REAL,
                  rho: REAL }
element     ::= { kind: STRING, mat: INT, node[*]: noderef }
noderef     ::= INT
constraint  ::= { node: INT, dof: INT, value: REAL }
loadset     ::= { name: STRING, pointload[*]: pointload }
pointload   ::= { node: INT, dof: INT, value: REAL }

displacements ::= { dofs_per_node: INT, u[*]: REAL }
stress        ::= { element: INT, sxx: REAL, syy: REAL, txy: REAL, vm: REAL }
stresses      ::= { stress[*]: stress }
results       ::= { displacements: displacements, stresses: stresses }

workspace   ::= { user: STRING, tenant?: STRING, model?: structure,
                  results?: results, storage?: storage,
                  query?: queryresult }
dbentry     ::= { name: STRING, kind: STRING, bytes: INT, revision: INT }
database    ::= { entry[*]: dbentry }

# Query layer: a predicate search over stored entries (kind / name prefix
# / revision window) and its result set, as surfaced by the `query`
# command and the serve front-end's snapshot read path.
queryfilter ::= { kind: STRING, prefix: STRING, min_revision: INT,
                  max_revision: INT, limit: INT }
queryrow    ::= { name: STRING, kind: STRING, bytes: INT, revision: INT }
queryresult ::= { filter: queryfilter, row[*]: queryrow, scanned: INT,
                  truncated: INT, plan: STRING }

# Abstract storage fragment: what layer 1 demands of the database engine
# beneath it.  The composites are open (`...`) — any concrete engine state
# may carry extra bookkeeping — so db_grammar's dbengine/chain/version
# provably refine storage/storedobj/storedver (checked by
# fem2_analyze --verify).
storage     ::= { mode: STRING, chain[*]: storedobj, ... }
storedobj   ::= { name: STRING, version[*]: storedver, ... }
storedver   ::= { revision: INT, kind: STRING, bytes: INT, ... }
)";
}

hgraph::Grammar appvm_grammar() {
  static const hgraph::Grammar grammar =
      hgraph::parse_grammar(appvm_grammar_text());
  return grammar;
}

// ---------------------------------------------------------------------------
// Layer 1b: the database engine (fem2-db) under the application user's VM

std::string_view db_grammar_text() {
  return R"(
# fem2-db: the persistent shared database ("long-term storage; shared
# data") as a formal object.  Objects are MVCC version chains; open
# transactions buffer writes; the write-ahead log and the engine counters
# carry the durability and concurrency state.

version   ::= { revision: INT, kind: STRING, bytes: INT, txn: INT,
                deleted: INT }
chain     ::= { name: STRING, version[*]: version }
txn       ::= { id: INT, writes: INT }
walstate  ::= { records: INT, bytes: INT }
dbstats   ::= { commits: INT, aborts: INT, conflicts: INT,
                checkpoints: INT, recovered: INT }

# Secondary-index summary (kind buckets and revision entries over live
# heads) and the group-commit window state (batched WAL fsync).  Both are
# optional: an empty engine has no index, and a zero window (every batch
# a batch of one) reflects no window state.
dbindex   ::= { kinds: INT, entries: INT }
gcstate   ::= { window_us: INT, batches: INT, batched: INT,
                max_seen: INT, pending: INT }
dbengine  ::= { mode: STRING, wal: walstate, stats: dbstats,
                index?: dbindex, groupcommit?: gcstate,
                chain[*]: chain, txn[*]: txn }
)";
}

hgraph::Grammar db_grammar() {
  static const hgraph::Grammar grammar =
      hgraph::parse_grammar(db_grammar_text());
  return grammar;
}

// ---------------------------------------------------------------------------
// Layer 2: numerical analyst's virtual machine

std::string_view navm_grammar_text() {
  return R"(
# Numerical analyst's VM (layer 2).
# Data objects: windows on arrays; tasks with control state;
# sequence control: forall / pardo / task control / remote procedure call.

array       ::= { id: INT, owner: INT, cluster: INT, rows: INT, cols: INT }
window      ::= { array: INT, row0: INT, col0: INT, rows: INT, cols: INT }

taskstate   ::= STRING
task        ::= { id: INT, type: STRING, parent: INT, cluster: INT,
                  state: taskstate, replication: INT, of: INT }
tasksystem  ::= { task[*]: task, array[*]: array }
)";
}

hgraph::Grammar navm_grammar() {
  static const hgraph::Grammar grammar =
      hgraph::parse_grammar(navm_grammar_text());
  return grammar;
}

// ---------------------------------------------------------------------------
// Layer 3: system programmer's virtual machine

std::string_view sysvm_grammar_text() {
  return R"(
# System programmer's VM (layer 3).
# Data objects: code blocks, activation records, window descriptors,
# the seven message types, ready queues, the variable-size-block heap.

codeblock   ::= { name: STRING, code_bytes: INT, ar_bytes: INT }

message     ::= initiate | pause_notify | resume_child | terminate_notify
              | remote_call | remote_return | load_code
initiate    ::= { @STRING, type: STRING, task: INT, parent: INT,
                  index: INT, of: INT, bytes: INT }
pause_notify     ::= { @STRING, child: INT, parent: INT }
resume_child     ::= { @STRING, child: INT, bytes: INT }
terminate_notify ::= { @STRING, child: INT, parent: INT, bytes: INT }
remote_call      ::= { @STRING, procedure: STRING, caller: INT, token: INT,
                       bytes: INT }
remote_return    ::= { @STRING, caller: INT, token: INT, bytes: INT }
load_code        ::= { @STRING, type: STRING, bytes: INT }

activation  ::= { task: INT, address: INT, bytes: INT }
readyqueue  ::= { depth: INT }
heapstate   ::= { capacity: INT, in_use: INT, high_water: INT,
                  live_blocks: INT, free_blocks: INT }
kernel      ::= { cluster: INT, readyqueue: readyqueue, heap: heapstate }
)";
}

hgraph::Grammar sysvm_grammar() {
  static const hgraph::Grammar grammar =
      hgraph::parse_grammar(sysvm_grammar_text());
  return grammar;
}

// ---------------------------------------------------------------------------
// Layer 4: hardware

std::string_view hw_grammar_text() {
  return R"(
# Hardware layer (layer 4): clusters of processing elements organized
# around a shared memory; clusters communicate through a common network;
# one PE per cluster runs the OS kernel.

pe          ::= { index: INT, state: STRING, busy_cycles: INT }
memory      ::= { capacity: INT, in_use: INT }
cluster     ::= { index: INT, kernel_pe: INT, queue_depth: INT,
                  memory: memory, pe[*]: pe }
network     ::= { messages: INT, bytes: INT, local_messages: INT }
machine     ::= { clusters: INT, pes_per_cluster: INT, now: INT,
                  network: network, cluster[*]: cluster }
)";
}

hgraph::Grammar hw_grammar() {
  static const hgraph::Grammar grammar =
      hgraph::parse_grammar(hw_grammar_text());
  return grammar;
}

}  // namespace fem2::spec
