// Tracing for the benchmark's traced runs, recorded from outside the
// program through its public hooks:
//
//   * SpanTracer     — nested host-time spans on one thread; a span's self
//                      time is its duration minus its direct children.
//   * ObserverProbe  — a sysvm::OsObserver + navm::RuntimeObserver that
//                      opens a span around every task step and remote
//                      procedure and, when an analyzer is attached,
//                      forwards every hook to it inside a hook span.
//   * TimingVfs      — a db::Vfs decorator over Vfs::posix() counting
//                      written and snapshot bytes and timing log fsyncs.
//
// Spans are kept in memory (up to a cap) and written out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "db/vfs.hpp"
#include "navm/runtime.hpp"
#include "report.hpp"
#include "sysvm/observe.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t { Phase, Step, Procedure, Hook, Count };
const char* span_kind_name(SpanKind kind);

class SpanTracer {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoParent;  ///< index into spans(), or kNoParent
    SpanKind kind = SpanKind::Phase;
    std::string_view label;  ///< static string
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanTracer(std::size_t keep_limit = 1u << 20)
      : keep_limit_(keep_limit) {}

  void begin(SpanKind kind, std::string_view label = {});
  void end();

  /// Sum over closed spans of their self time (duration minus children).
  double self_ms(SpanKind kind) const;
  /// True when any span's children covered more than the span itself.
  bool negative_self() const { return negative_self_; }
  bool balanced() const { return stack_.empty(); }

  /// Write kept spans as JSON lines (start/end relative to the first).
  void write(std::ostream& out, std::string_view trace_id) const;

 private:
  struct Open {
    std::uint32_t kept = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    SpanKind kind = SpanKind::Phase;
    std::string_view label;
  };
  static std::int64_t now_ns();

  std::size_t keep_limit_;
  std::vector<Span> kept_;
  std::uint64_t dropped_ = 0;
  std::vector<Open> stack_;
  std::int64_t self_ns_[static_cast<int>(SpanKind::Count)] = {};
  bool negative_self_ = false;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, SpanKind kind, std::string_view label)
      : tracer_(tracer) {
    if (tracer_) tracer_->begin(kind, label);
  }
  ~ScopedSpan() {
    if (tracer_) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
};

class ObserverProbe final : public fem2::sysvm::OsObserver,
                            public fem2::navm::RuntimeObserver {
 public:
  /// `next` (optional) receives every hook, timed as a SpanKind::Hook.
  ObserverProbe(SpanTracer& tracer, fem2::analyze::Analyzer* next)
      : tracer_(tracer), next_(next) {}

  /// Install on the runtime's OS and on the runtime (replacing whatever
  /// observer is installed; the analyzer keeps its engine hooks).
  void attach(fem2::navm::Runtime& runtime);
  void detach(fem2::navm::Runtime& runtime);

  /// Remote window round trips seen, in simulated cycles.
  const Samples& window_waits() const { return window_waits_; }

  void on_task_created(fem2::sysvm::TaskId task,
                       fem2::sysvm::TaskId parent) override;
  void on_task_finished(fem2::sysvm::TaskId task) override;
  void on_step_begin(fem2::sysvm::TaskId task) override;
  void on_step_end(fem2::sysvm::TaskId task) override;
  void on_task_send(fem2::sysvm::TaskId from, fem2::hw::ClusterId to,
                    const fem2::sysvm::Message& message) override;
  void on_message(fem2::hw::ClusterId cluster,
                  const fem2::sysvm::Message& message) override;
  void on_procedure_begin(const fem2::sysvm::MsgRemoteCall& call,
                          fem2::hw::ClusterId cluster) override;
  void on_procedure_end(const fem2::sysvm::MsgRemoteCall& call,
                        fem2::hw::ClusterId cluster) override;

  void on_array_created(fem2::navm::ArrayId id,
                        fem2::sysvm::TaskId owner) override;
  void on_array_read(const fem2::navm::Window& window) override;
  void on_array_write(const fem2::navm::Window& window) override;
  void on_remote_window_wait(const fem2::navm::Window& window,
                             fem2::hw::Cycles wait) override;
  void on_deposit(std::uint64_t collector,
                  fem2::sysvm::TaskId depositor) override;
  void on_collector_take(std::uint64_t collector,
                         fem2::sysvm::TaskId owner) override;

 private:
  template <typename F>
  void forward(F&& call) {
    if (next_ == nullptr) return;
    ScopedSpan span(&tracer_, SpanKind::Hook, "analyze");
    call(*next_);
  }

  SpanTracer& tracer_;
  fem2::analyze::Analyzer* next_;
  Samples window_waits_;
};

/// Storage-layer counters gathered by TimingVfs.
struct VfsTally {
  std::uint64_t bytes_written = 0;
  std::uint64_t snapshot_bytes = 0;  ///< written through create_truncate
  std::uint64_t fsyncs = 0;          ///< log fsyncs (the commit path)
  Samples fsync_ms;                  ///< log fsyncs only
};

class TimingVfs final : public fem2::db::Vfs {
 public:
  explicit TimingVfs(std::shared_ptr<fem2::db::Vfs> inner)
      : inner_(std::move(inner)) {}

  /// Counting on or off (the decorator always forwards).
  void set_recording(bool on) { recording_.store(on); }
  VfsTally tally() const;

  std::unique_ptr<fem2::db::VfsFile> open_append(
      const std::string& path) override;
  std::unique_ptr<fem2::db::VfsFile> create_truncate(
      const std::string& path) override;
  std::optional<std::string> read_file(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  void dir_sync(const std::string& dir) override;

 private:
  class File;
  friend class File;
  void note_write(std::size_t bytes, bool snapshot);
  void note_fsync(double ms, bool snapshot);

  std::shared_ptr<fem2::db::Vfs> inner_;
  std::atomic<bool> recording_{true};
  mutable std::mutex mutex_;
  VfsTally tally_;
};

}  // namespace perfbench
