// Happens-before race detection (pass 3a of fem2_analyze).
//
// Actors are sysvm tasks.  Each task carries a vector clock, ticked at the
// start of every executed step.  Happens-before edges are induced by the
// seven-message protocol:
//
//   initiate          sender's clock at send  -> child's initial clock
//   resume-child      sender's clock          -> child on delivery
//   pause-notify      child's clock           -> parent on delivery
//   terminate-notify  child's final clock     -> parent on delivery
//   remote-call       caller's clock          -> procedure execution
//   remote-return     procedure's clock       -> caller on delivery
//   collector         deposit clocks joined   -> owner on collector_take
//
// Window reads/writes (the only shared-memory accesses the navm layer
// admits) are recorded as FastTrack-style epochs against per-array access
// histories; two accesses to overlapping rectangles where at least one is
// a write and neither epoch is ordered before the other's clock race.
//
// Clock stamps are taken when a buffered send is applied (the step that
// produced it has fully executed), and merged when the kernel decodes the
// message — an over-approximation of the true HB order that can miss
// exotic races but reports no false positives on protocol-disciplined
// programs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyze/clock.hpp"
#include "analyze/finding.hpp"
#include "navm/window.hpp"
#include "sysvm/message.hpp"

namespace fem2::analyze {

class RaceDetector {
 public:
  /// Access records kept per array (FIFO eviction).
  static constexpr std::size_t kHistoryLimit = 512;

  explicit RaceDetector(std::vector<Finding>& sink) : sink_(sink) {}

  // --- OS-side events -----------------------------------------------------
  void task_created(sysvm::TaskId task, sysvm::TaskId parent);
  void step_begin(sysvm::TaskId task);
  void step_end(sysvm::TaskId task);
  void task_send(sysvm::TaskId from, const sysvm::Message& message);
  void message_delivered(const sysvm::Message& message);
  void procedure_begin(const sysvm::MsgRemoteCall& call);
  void procedure_end(const sysvm::MsgRemoteCall& call);

  // --- navm-side events ---------------------------------------------------
  void array_read(const navm::Window& window);
  void array_write(const navm::Window& window);
  void deposit(std::uint64_t collector, sysvm::TaskId depositor);
  void collector_take(std::uint64_t collector, sysvm::TaskId owner);

  std::uint64_t accesses_tracked() const { return accesses_tracked_; }

 private:
  struct Access {
    Epoch epoch;          ///< actor + its clock at access time
    navm::Window window;  ///< rectangle touched
    bool write = false;
  };
  struct ArrayHistory {
    std::deque<Access> accesses;
  };
  /// Who is executing host code right now: a task step (clock lives in
  /// clocks_) or a remote procedure (clock snapshotted from the call stamp).
  struct ExecContext {
    sysvm::TaskId actor = sysvm::kNoTask;
    bool is_procedure = false;
    VectorClock proc_clock;  ///< only for procedures
  };

  const VectorClock& current_clock();
  void record_access(const navm::Window& window, bool write);
  void report_race(const Access& prev, const Access& now, bool now_write,
                   navm::ArrayId array);

  std::vector<Finding>& sink_;

  std::map<sysvm::TaskId, VectorClock> clocks_;
  std::optional<ExecContext> exec_;

  // Send-time stamps, keyed by how the receiver will identify the edge.
  std::map<sysvm::TaskId, VectorClock> init_stamps_;    ///< by child id
  std::map<sysvm::TaskId, std::deque<VectorClock>> resume_stamps_;
  std::map<sysvm::TaskId, VectorClock> pause_stamps_;   ///< by child id
  std::map<sysvm::TaskId, VectorClock> term_stamps_;    ///< by child id
  std::map<sysvm::CallToken, VectorClock> call_stamps_;
  std::map<sysvm::CallToken, VectorClock> return_stamps_;
  std::map<std::uint64_t, VectorClock> collector_clocks_;

  std::map<navm::ArrayId, ArrayHistory> histories_;
  std::set<std::string> reported_;  ///< dedup key per (array, actor pair)
  std::uint64_t accesses_tracked_ = 0;
};

}  // namespace fem2::analyze
