#include "analyze/model_check.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "db/health.hpp"
#include "hw/channel.hpp"
#include "support/check.hpp"

namespace fem2::analyze {

std::string ModelCheckResult::trace_to_string() const {
  std::string out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) out += " -> ";
    out += trace[i];
  }
  return out;
}

namespace {

/// Shared BFS bookkeeping: visited set keyed by canonical state encoding,
/// parent pointers for counterexample reconstruction.
class Frontier {
 public:
  /// Returns true when the encoded state is new (and records its parent).
  bool admit(const std::string& key, const std::string& parent,
             const std::string& label) {
    const auto [it, inserted] = parents_.emplace(key,
                                                 std::make_pair(parent, label));
    (void)it;
    return inserted;
  }

  std::vector<std::string> trace_to(const std::string& key) const {
    std::vector<std::string> out;
    std::string cursor = key;
    while (true) {
      const auto it = parents_.find(cursor);
      FEM2_CHECK(it != parents_.end());
      if (it->second.second.empty()) break;  // initial state
      out.push_back(it->second.second);
      cursor = it->second.first;
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  std::size_t size() const { return parents_.size(); }

 private:
  /// child key -> (parent key, event label); initial state has empty label.
  std::map<std::string, std::pair<std::string, std::string>> parents_;
};

/// Exhaustive breadth-first search shared by both models.  A model
/// supplies its initial state (anything with encode()) and
/// `successors(state, emit)`, which calls `emit(next, label, violation)`
/// once per transition out of `state`; `violation` names the invariant the
/// transition breaks, or is empty.  emit() returns false once a violation
/// has ended the search, and `successors` must then return at once.  Every
/// emitted transition counts; BFS order makes a counterexample trace the
/// shortest one.
template <class State, class Successors>
ModelCheckResult explore(std::string property, State initial,
                         std::size_t max_states, Successors successors) {
  ModelCheckResult result;
  result.property = std::move(property);
  Frontier frontier;
  std::deque<std::pair<State, std::size_t>> queue;  // state, depth
  frontier.admit(initial.encode(), "", "");
  queue.emplace_back(std::move(initial), 0);

  while (!queue.empty()) {
    const auto [state, depth] = std::move(queue.front());
    queue.pop_front();
    result.states += 1;
    const std::string parent = state.encode();
    bool violated = false;
    const auto emit = [&](State next, std::string label,
                          std::string violation) -> bool {
      result.transitions += 1;
      if (!violation.empty()) {
        const std::string key = next.encode() + "!violation";
        frontier.admit(key, parent, std::move(label));
        result.violation = std::move(violation);
        result.trace = frontier.trace_to(key);
        violated = true;
        return false;
      }
      if (!frontier.admit(next.encode(), parent, std::move(label)))
        return true;
      result.depth = std::max(result.depth, depth + 1);
      if (max_states == 0 || frontier.size() < max_states) {
        queue.emplace_back(std::move(next), depth + 1);
      } else {
        result.bounded_out = true;
      }
      return true;
    };
    successors(state, emit);
    if (violated) return result;
  }

  result.ok = true;
  return result;
}

// ---------------------------------------------------------------------------
// Protocol 1: the reliable inter-cluster channel (hw/channel.hpp)

/// A frame in flight.  Data frames carry no explicit payload: the protocol
/// sends payload seq+1, so the wire state is just (kind, seq).
struct WireFrame {
  bool ack = false;
  std::uint64_t seq = 0;

  auto operator<=>(const WireFrame&) const = default;
};

struct MsgState {
  hw::ReliableSender<std::uint8_t> sender;
  hw::ReliableReceiver<std::uint8_t> receiver;
  std::vector<WireFrame> network;  ///< kept sorted (multiset semantics)
  std::uint8_t sent = 0;       ///< messages handed to the channel so far
  std::uint8_t delivered = 0;  ///< in-order deliveries observed
  bool unreachable = false;    ///< sender declared the peer unreachable

  std::string encode() const {
    std::string k;
    k += static_cast<char>('0' + sent);
    k += static_cast<char>('0' + delivered);
    k += unreachable ? 'U' : '-';
    k += '|';
    for (const auto& [seq, frame] : sender.unacked) {
      k += 's';
      k += static_cast<char>('0' + seq);
      k += static_cast<char>('0' + frame.attempts);
    }
    k += '|';
    k += static_cast<char>('0' + receiver.next_expected);
    for (const auto& [seq, payload] : receiver.held) {
      k += 'h';
      k += static_cast<char>('0' + seq);
    }
    k += '|';
    for (const auto& f : network) {
      k += f.ack ? 'a' : 'd';
      k += static_cast<char>('0' + f.seq);
    }
    return k;
  }
};

void wire_insert(MsgState& s, WireFrame f) {
  s.network.insert(std::upper_bound(s.network.begin(), s.network.end(), f),
                   f);
}

/// Payload for sequence number `seq` (messages are numbered from 1).
std::uint8_t payload_of(std::uint64_t seq) {
  return static_cast<std::uint8_t>(seq + 1);
}

}  // namespace

ModelCheckResult check_messaging(const MessagingModelOptions& options) {
  MsgState initial;
  initial.receiver.dedup = options.dedup;
  const std::size_t capacity = options.network_capacity;

  return explore(
      "reliable channel delivers each message exactly once, in order",
      std::move(initial), options.max_states,
      [&](const MsgState& state, const auto& emit) {
        if (state.unreachable) return;  // terminal: the runtime throws here

        // Application hands the channel its next message.
        if (state.sent < options.messages && state.network.size() < capacity) {
          MsgState next = state;
          const std::uint64_t seq = next.sender.send(payload_of(next.sent));
          next.sent += 1;
          wire_insert(next, WireFrame{false, seq});
          if (!emit(std::move(next), "send(m" + std::to_string(seq + 1) + ")",
                    ""))
            return;
        }

        // Each in-flight frame can arrive, be lost, or be duplicated.
        for (std::size_t i = 0; i < state.network.size(); ++i) {
          const WireFrame frame = state.network[i];
          const std::string fname =
              (frame.ack ? "ack" : "m") +
              std::to_string(frame.seq + (frame.ack ? 0 : 1));

          {  // arrive
            MsgState next = state;
            next.network.erase(next.network.begin() +
                               static_cast<std::ptrdiff_t>(i));
            std::string violation;
            if (frame.ack) {
              next.sender.acknowledge(frame.seq);
            } else {
              auto admission =
                  next.receiver.admit(frame.seq, payload_of(frame.seq));
              // Ack everything that arrives (duplicates included); a full
              // network drops the ack, which is equivalent to losing it.
              if (next.network.size() < capacity)
                wire_insert(next, WireFrame{true, frame.seq});
              // Invariant: releases continue the delivered sequence.
              for (const std::uint8_t p : admission.delivered) {
                if (p != next.delivered + 1) {
                  violation =
                      p <= next.delivered
                          ? "message " + std::to_string(p) + " delivered twice"
                          : "message " + std::to_string(p) +
                                " delivered before message " +
                                std::to_string(next.delivered + 1);
                  break;
                }
                next.delivered += 1;
              }
            }
            if (!emit(std::move(next), "deliver(" + fname + ")",
                      std::move(violation)))
              return;
          }
          {  // lost
            MsgState next = state;
            next.network.erase(next.network.begin() +
                               static_cast<std::ptrdiff_t>(i));
            if (!emit(std::move(next), "lose(" + fname + ")", "")) return;
          }
          if (state.network.size() < capacity) {  // duplicated
            MsgState next = state;
            wire_insert(next, frame);
            if (!emit(std::move(next), "dup(" + fname + ")", "")) return;
          }
        }

        // A retransmit timer fires for any unacknowledged frame.
        for (const auto& [seq, unacked] : state.sender.unacked) {
          MsgState next = state;
          const auto decision =
              next.sender.on_timer(seq, options.max_retransmits);
          std::string label = "timeout(m" + std::to_string(seq + 1) + ")";
          switch (decision) {
            case hw::RetransmitDecision::AlreadyAcked:
              continue;
            case hw::RetransmitDecision::Exhausted:
              next.unreachable = true;
              label += ":unreachable";
              break;
            case hw::RetransmitDecision::Resend:
              // A full network loses the retransmission (the attempt still
              // counted).
              if (next.network.size() < capacity)
                wire_insert(next, WireFrame{false, seq});
              break;
          }
          if (!emit(std::move(next), std::move(label), "")) return;
        }
      });
}

// ---------------------------------------------------------------------------
// Protocol 2: the db engine health/durability lifecycle (db/health.hpp)

namespace {

struct WalEntry {
  std::uint8_t txn = 0;
  bool suspect = false;  ///< appended while the log was untrustworthy

  auto operator<=>(const WalEntry&) const = default;
};

struct DbState {
  db::HealthModel health;  ///< carries the sticky knob
  bool torn = false;       ///< log content untrustworthy beyond durability
  std::vector<WalEntry> wal;
  std::uint8_t durable_prefix = 0;  ///< wal entries covered by fsync
  std::uint16_t acked = 0;          ///< bitmask of acknowledged commits
  std::uint16_t snapshot = 0;       ///< bitmask durable via checkpoint
  std::uint8_t next_txn = 1;
  std::uint8_t checkpoints = 0;

  explicit DbState(bool sticky) : health(sticky) {}

  std::string encode() const {
    std::string k;
    k += health.degraded() ? 'D' : '-';
    k += torn ? 'T' : '-';
    k += static_cast<char>('0' + next_txn);
    k += static_cast<char>('0' + checkpoints);
    k += static_cast<char>('0' + durable_prefix);
    k += '|';
    for (const auto& e : wal) {
      k += static_cast<char>('0' + e.txn);
      k += e.suspect ? '!' : '.';
    }
    k += '|';
    k += std::to_string(acked);
    k += ',';
    k += std::to_string(snapshot);
    return k;
  }

  /// The committed transactions a post-crash replay reconstructs: the
  /// snapshot plus the trustworthy durable log prefix.
  std::uint16_t recovered() const {
    std::uint16_t mask = snapshot;
    for (std::uint8_t i = 0; i < durable_prefix; ++i)
      if (!wal[i].suspect) mask |= static_cast<std::uint16_t>(1u << wal[i].txn);
    return mask;
  }
};

std::uint16_t bit(std::uint8_t txn) {
  return static_cast<std::uint16_t>(1u << txn);
}

}  // namespace

ModelCheckResult check_db_health(const HealthModelOptions& options) {
  return explore(
      "no acknowledged commit lost; degraded mode sticky until recover()",
      DbState(options.sticky), options.max_states,
      [&](const DbState& state, const auto& emit) {
        // Invariant: leaving degraded mode is only legitimate on recover().
        const auto step = [&](DbState next, std::string label) {
          std::string violation;
          if (state.health.degraded() && !next.health.degraded() &&
              !label.starts_with("recover"))
            violation =
                "degraded mode exited by '" + label + "' without recover()";
          return emit(std::move(next), std::move(label), std::move(violation));
        };

        const bool can_commit = state.next_txn <= options.commits &&
                                !state.health.degraded();
        const std::uint8_t txn = state.next_txn;
        // Appended rather than "t" + to_string(): GCC 12 at -O3 reports a
        // false -Wrestrict on that operator+ once inlined here.
        std::string tname = "t";
        tname += std::to_string(txn);

        if (can_commit) {
          {  // records logged, fsync durable, client acknowledged
            DbState next = state;
            next.wal.push_back(WalEntry{txn, next.torn});
            next.durable_prefix = static_cast<std::uint8_t>(next.wal.size());
            next.acked |= bit(txn);
            next.next_txn += 1;
            next.health.on_success();
            if (!step(std::move(next), "commit-ok(" + tname + ")")) return;
          }
          {  // append failed, rollback restored the log: clean failure
            DbState next = state;
            next.next_txn += 1;
            next.health.on_failure(db::FailureSite::AppendRollbackOk, tname);
            if (!step(std::move(next), "append-fail-rollback-ok(" + tname + ")"))
              return;
          }
          {  // append failed AND rollback failed: torn frame in the log
            DbState next = state;
            next.torn = true;
            next.next_txn += 1;
            next.health.on_failure(db::FailureSite::AppendRollbackFailed,
                                   tname);
            if (!step(std::move(next),
                      "append-fail-rollback-fail(" + tname + ")"))
              return;
          }
          {  // commit fsync failed; the scrub removed the records
            DbState next = state;
            next.next_txn += 1;
            next.health.on_failure(db::FailureSite::CommitFsyncFailed, tname);
            if (!step(std::move(next), "fsync-fail-scrub-ok(" + tname + ")"))
              return;
          }
          {  // commit fsync failed and the scrub failed too: undurable
             // records of a failed commit sit in the file (fsync-gate hazard)
            DbState next = state;
            next.wal.push_back(WalEntry{txn, true});
            next.torn = true;
            next.next_txn += 1;
            next.health.on_failure(db::FailureSite::CommitFsyncFailed, tname);
            if (!step(std::move(next), "fsync-fail-scrub-fail(" + tname + ")"))
              return;
          }
        }

        if (state.checkpoints < options.checkpoints &&
            !state.health.degraded()) {
          {  // snapshot published, log reset
            DbState next = state;
            next.snapshot |= next.acked;
            next.wal.clear();
            next.durable_prefix = 0;
            next.torn = false;  // the untrusted log content is gone
            next.checkpoints += 1;
            next.health.on_success();
            if (!step(std::move(next), "checkpoint-ok")) return;
          }
          {  // snapshot write failed: nothing published, log intact
            DbState next = state;
            next.checkpoints += 1;
            next.health.on_failure(
                db::FailureSite::CheckpointSnapshotWriteFailed, "checkpoint");
            if (!step(std::move(next), "checkpoint-snapshot-fail")) return;
          }
          {  // snapshot published but the log could not be truncated
            DbState next = state;
            next.snapshot |= next.acked;
            next.torn = true;
            next.checkpoints += 1;
            next.health.on_failure(db::FailureSite::CheckpointLogResetFailed,
                                   "checkpoint");
            if (!step(std::move(next), "checkpoint-reset-fail")) return;
          }
        }

        // The OS flushes the page cache behind the engine's back: everything
        // in the file becomes durable whether or not fsync succeeded.
        if (state.durable_prefix < state.wal.size()) {
          DbState next = state;
          next.durable_prefix = static_cast<std::uint8_t>(next.wal.size());
          if (!step(std::move(next), "os-flush")) return;
        }

        // A successful read while degraded: must not change health.  (The
        // non-sticky defect clears degraded mode here; the stickiness check
        // in step() catches it with a minimal trace.)
        if (state.health.degraded()) {
          DbState next = state;
          next.health.on_success();
          if (!step(std::move(next), "read-ok")) return;
        }

        // Crash (any time) or explicit recover() (the legitimate exit from
        // degraded mode): replay from durable state, then check that every
        // acknowledged commit survived.
        const std::uint16_t survivors = state.recovered();
        if ((state.acked & ~survivors) != 0) {
          std::uint8_t lost = 0;
          for (std::uint8_t t = 1; t <= options.commits; ++t)
            if ((state.acked & bit(t)) && !(survivors & bit(t))) lost = t;
          emit(state, "crash-recover",
               "acknowledged commit t" + std::to_string(lost) +
                   " lost at recovery");
          return;
        }
        DbState next = state;
        next.snapshot = survivors;
        next.wal.clear();
        next.durable_prefix = 0;
        next.torn = false;
        next.health.on_recover();
        step(std::move(next), "recover");
      });
}

}  // namespace fem2::analyze
