#include "analyze/race.hpp"

namespace fem2::analyze {

namespace {

bool windows_overlap(const navm::Window& a, const navm::Window& b) {
  if (a.array != b.array) return false;
  const bool rows = a.row0 < b.row0 + b.rows && b.row0 < a.row0 + a.rows;
  const bool cols = a.col0 < b.col0 + b.cols && b.col0 < a.col0 + a.cols;
  return rows && cols;
}

std::string window_to_string(const navm::Window& w) {
  return "array " + std::to_string(w.array) + " [" + std::to_string(w.row0) +
         ":" + std::to_string(w.row0 + w.rows) + ", " +
         std::to_string(w.col0) + ":" + std::to_string(w.col0 + w.cols) + ")";
}

}  // namespace

void RaceDetector::task_created(sysvm::TaskId task, sysvm::TaskId parent) {
  (void)parent;
  auto& clock = clocks_[task];
  if (const auto it = init_stamps_.find(task); it != init_stamps_.end()) {
    clock.merge(it->second);
    init_stamps_.erase(it);
  }
  clock.tick(task);
}

void RaceDetector::step_begin(sysvm::TaskId task) {
  clocks_[task].tick(task);
  exec_ = ExecContext{task, false, {}};
}

void RaceDetector::step_end(sysvm::TaskId task) {
  (void)task;
  exec_.reset();
}

void RaceDetector::task_send(sysvm::TaskId from,
                             const sysvm::Message& message) {
  const VectorClock& clock = clocks_[from];
  if (const auto* init = std::get_if<sysvm::MsgInitiate>(&message)) {
    init_stamps_[init->task] = clock;
  } else if (const auto* resume =
                 std::get_if<sysvm::MsgResumeChild>(&message)) {
    resume_stamps_[resume->child].push_back(clock);
  } else if (const auto* pause =
                 std::get_if<sysvm::MsgPauseNotify>(&message)) {
    pause_stamps_[pause->child] = clock;
  } else if (const auto* term =
                 std::get_if<sysvm::MsgTerminateNotify>(&message)) {
    term_stamps_[term->child] = clock;
  } else if (const auto* call = std::get_if<sysvm::MsgRemoteCall>(&message)) {
    call_stamps_[call->token] = clock;
  }
}

void RaceDetector::message_delivered(const sysvm::Message& message) {
  if (const auto* resume = std::get_if<sysvm::MsgResumeChild>(&message)) {
    auto it = resume_stamps_.find(resume->child);
    if (it != resume_stamps_.end() && !it->second.empty()) {
      clocks_[resume->child].merge(it->second.front());
      it->second.pop_front();
    }
  } else if (const auto* pause =
                 std::get_if<sysvm::MsgPauseNotify>(&message)) {
    if (const auto it = pause_stamps_.find(pause->child);
        it != pause_stamps_.end()) {
      clocks_[pause->parent].merge(it->second);
      pause_stamps_.erase(it);
    }
  } else if (const auto* term =
                 std::get_if<sysvm::MsgTerminateNotify>(&message)) {
    if (const auto it = term_stamps_.find(term->child);
        it != term_stamps_.end()) {
      clocks_[term->parent].merge(it->second);
      term_stamps_.erase(it);
    }
  } else if (const auto* ret = std::get_if<sysvm::MsgRemoteReturn>(&message)) {
    if (const auto it = return_stamps_.find(ret->token);
        it != return_stamps_.end()) {
      clocks_[ret->caller].merge(it->second);
      return_stamps_.erase(it);
    }
  }
}

void RaceDetector::procedure_begin(const sysvm::MsgRemoteCall& call) {
  ExecContext ctx;
  ctx.actor = call.caller;
  ctx.is_procedure = true;
  if (const auto it = call_stamps_.find(call.token);
      it != call_stamps_.end()) {
    ctx.proc_clock = it->second;
  }
  exec_ = std::move(ctx);
}

void RaceDetector::procedure_end(const sysvm::MsgRemoteCall& call) {
  if (exec_ && exec_->is_procedure) {
    return_stamps_[call.token] = std::move(exec_->proc_clock);
  }
  exec_.reset();
}

const VectorClock& RaceDetector::current_clock() {
  if (exec_->is_procedure) return exec_->proc_clock;
  return clocks_[exec_->actor];
}

void RaceDetector::array_read(const navm::Window& window) {
  record_access(window, /*write=*/false);
}

void RaceDetector::array_write(const navm::Window& window) {
  record_access(window, /*write=*/true);
}

void RaceDetector::record_access(const navm::Window& window, bool write) {
  // Accesses outside any observed execution context come from the host
  // harness (result extraction, test assertions) — not simulated actors.
  if (!exec_) return;
  ++accesses_tracked_;
  const VectorClock& clock = current_clock();
  const Epoch epoch = clock.epoch(exec_->actor);

  auto& history = histories_[window.array];
  for (const auto& prev : history.accesses) {
    if (!write && !prev.write) continue;        // read-read never races
    if (prev.epoch.actor == epoch.actor) continue;  // program order
    if (!windows_overlap(prev.window, window)) continue;
    if (clock.ordered_before(prev.epoch)) continue;  // happens-before
    report_race(prev, Access{epoch, window, write}, write, window.array);
  }

  history.accesses.push_back(Access{epoch, window, write});
  if (history.accesses.size() > kHistoryLimit)
    history.accesses.pop_front();
}

void RaceDetector::report_race(const Access& prev, const Access& now,
                               bool now_write, navm::ArrayId array) {
  const std::string kind = prev.write && now_write ? "write-write-race"
                           : prev.write || now_write ? "read-write-race"
                                                     : "read-read";
  // One report per (array, unordered actor pair, kind): iterative solvers
  // repeat the same racy pattern every sweep.
  const std::uint64_t lo = std::min(prev.epoch.actor, now.epoch.actor);
  const std::uint64_t hi = std::max(prev.epoch.actor, now.epoch.actor);
  const std::string key = std::to_string(array) + "/" + std::to_string(lo) +
                          "/" + std::to_string(hi) + "/" + kind;
  if (!reported_.insert(key).second) return;

  Finding f;
  f.pass = Pass::Race;
  f.severity = Severity::Error;
  f.layer = Layer::Navm;
  f.rule = kind;
  f.entity = "array " + std::to_string(array);
  f.message = std::string(prev.write ? "write" : "read") + " by task " +
              std::to_string(prev.epoch.actor) + " on " +
              window_to_string(prev.window) + " is unordered with " +
              (now_write ? "write" : "read") + " by task " +
              std::to_string(now.epoch.actor) + " on " +
              window_to_string(now.window);
  f.evidence = "epochs " + std::to_string(prev.epoch.actor) + "@" +
               std::to_string(prev.epoch.clock) + " vs " +
               std::to_string(now.epoch.actor) + "@" +
               std::to_string(now.epoch.clock) + ", accessor clock " +
               current_clock().to_string();
  sink_.push_back(std::move(f));
}

void RaceDetector::deposit(std::uint64_t collector, sysvm::TaskId depositor) {
  (void)depositor;
  // The deposit executes inside the navm.collect procedure; joining the
  // execution context's clock into the collector accumulates every
  // depositor's history for the owner's take (the barrier join).
  if (!exec_) return;
  collector_clocks_[collector].merge(current_clock());
}

void RaceDetector::collector_take(std::uint64_t collector,
                                  sysvm::TaskId owner) {
  const auto it = collector_clocks_.find(collector);
  if (it == collector_clocks_.end()) return;
  clocks_[owner].merge(it->second);
  collector_clocks_.erase(it);
}

}  // namespace fem2::analyze
