#include "trace.hpp"

#include <chrono>

namespace perfbench {

namespace fs = fem2::sysvm;
namespace fn = fem2::navm;

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Phase: return "phase";
    case SpanKind::Step: return "step";
    case SpanKind::Procedure: return "procedure";
    case SpanKind::Hook: return "hook";
    case SpanKind::Count: break;
  }
  return "?";
}

// --- SpanTracer -------------------------------------------------------------

std::int64_t SpanTracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void SpanTracer::begin(SpanKind kind, std::string_view label) {
  Open open;
  open.kind = kind;
  open.label = label;
  if (kept_.size() < keep_limit_) {
    open.kept = static_cast<std::uint32_t>(kept_.size());
    Span span;
    span.kind = kind;
    span.label = label;
    span.parent = stack_.empty() ? kNoParent : stack_.back().kept;
    kept_.push_back(span);
  } else {
    ++dropped_;
  }
  open.start_ns = now_ns();
  if (open.kept != kNoParent) kept_[open.kept].start_ns = open.start_ns;
  stack_.push_back(open);
}

void SpanTracer::end() {
  const std::int64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - open.start_ns;
  const std::int64_t self = duration - open.child_ns;
  if (self < 0) negative_self_ = true;
  self_ns_[static_cast<int>(open.kind)] += self;
  if (open.kept != kNoParent) kept_[open.kept].end_ns = end;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

double SpanTracer::self_ms(SpanKind kind) const {
  return static_cast<double>(self_ns_[static_cast<int>(kind)]) / 1e6;
}

void SpanTracer::write(std::ostream& out, std::string_view trace_id) const {
  const std::int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    out << "{\"trace\": \"" << trace_id << "\", \"id\": " << i
        << ", \"parent\": ";
    if (s.parent == kNoParent)
      out << "null";
    else
      out << s.parent;
    out << ", \"kind\": \"" << span_kind_name(s.kind) << "\", \"label\": \""
        << s.label << "\", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin << "}\n";
  }
  if (dropped_ > 0)
    out << "{\"trace\": \"" << trace_id << "\", \"dropped_spans\": "
        << dropped_ << "}\n";
}

// --- ObserverProbe ----------------------------------------------------------

void ObserverProbe::attach(fn::Runtime& runtime) {
  runtime.os().set_observer(this);
  runtime.set_observer(this);
}

void ObserverProbe::detach(fn::Runtime& runtime) {
  runtime.set_observer(next_);
  runtime.os().set_observer(next_);
}

void ObserverProbe::on_task_created(fs::TaskId task, fs::TaskId parent) {
  forward([&](auto& n) { n.on_task_created(task, parent); });
}

void ObserverProbe::on_task_finished(fs::TaskId task) {
  forward([&](auto& n) { n.on_task_finished(task); });
}

void ObserverProbe::on_step_begin(fs::TaskId task) {
  tracer_.begin(SpanKind::Step, "navm.step");
  forward([&](auto& n) { n.on_step_begin(task); });
}

void ObserverProbe::on_step_end(fs::TaskId task) {
  forward([&](auto& n) { n.on_step_end(task); });
  tracer_.end();
}

void ObserverProbe::on_task_send(fs::TaskId from, fem2::hw::ClusterId to,
                                 const fs::Message& message) {
  forward([&](auto& n) { n.on_task_send(from, to, message); });
}

void ObserverProbe::on_message(fem2::hw::ClusterId cluster,
                               const fs::Message& message) {
  forward([&](auto& n) { n.on_message(cluster, message); });
}

void ObserverProbe::on_procedure_begin(const fs::MsgRemoteCall& call,
                                       fem2::hw::ClusterId cluster) {
  tracer_.begin(SpanKind::Procedure, "sysvm.procedure");
  forward([&](auto& n) { n.on_procedure_begin(call, cluster); });
}

void ObserverProbe::on_procedure_end(const fs::MsgRemoteCall& call,
                                     fem2::hw::ClusterId cluster) {
  forward([&](auto& n) { n.on_procedure_end(call, cluster); });
  tracer_.end();
}

void ObserverProbe::on_array_created(fn::ArrayId id, fs::TaskId owner) {
  forward([&](auto& n) { n.on_array_created(id, owner); });
}

void ObserverProbe::on_array_read(const fn::Window& window) {
  forward([&](auto& n) { n.on_array_read(window); });
}

void ObserverProbe::on_array_write(const fn::Window& window) {
  forward([&](auto& n) { n.on_array_write(window); });
}

void ObserverProbe::on_remote_window_wait(const fn::Window& window,
                                          fem2::hw::Cycles wait) {
  window_waits_.add(static_cast<double>(wait));
  forward([&](auto& n) { n.on_remote_window_wait(window, wait); });
}

void ObserverProbe::on_deposit(std::uint64_t collector, fs::TaskId depositor) {
  forward([&](auto& n) { n.on_deposit(collector, depositor); });
}

void ObserverProbe::on_collector_take(std::uint64_t collector,
                                      fs::TaskId owner) {
  forward([&](auto& n) { n.on_collector_take(collector, owner); });
}

// --- TimingVfs ----------------------------------------------------------------

class TimingVfs::File final : public fem2::db::VfsFile {
 public:
  File(TimingVfs& owner, std::unique_ptr<fem2::db::VfsFile> inner,
       bool snapshot)
      : VfsFile(inner->path()),
        owner_(owner),
        inner_(std::move(inner)),
        snapshot_(snapshot) {}

  std::size_t write_some(const char* data, std::size_t bytes) override {
    const std::size_t n = inner_->write_some(data, bytes);
    owner_.note_write(n, snapshot_);
    return n;
  }
  void sync() override {
    const auto t0 = Clock::now();
    inner_->sync();
    owner_.note_fsync(seconds_between(t0, Clock::now()) * 1e3, snapshot_);
  }
  void truncate(std::uint64_t bytes) override { inner_->truncate(bytes); }
  std::uint64_t size() override { return inner_->size(); }

 private:
  TimingVfs& owner_;
  std::unique_ptr<fem2::db::VfsFile> inner_;
  bool snapshot_;
};

VfsTally TimingVfs::tally() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tally_;
}

void TimingVfs::note_write(std::size_t bytes, bool snapshot) {
  if (!recording_.load()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  tally_.bytes_written += bytes;
  if (snapshot) tally_.snapshot_bytes += bytes;
}

void TimingVfs::note_fsync(double ms, bool snapshot) {
  if (snapshot || !recording_.load()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++tally_.fsyncs;
  tally_.fsync_ms.add(ms);
}

std::unique_ptr<fem2::db::VfsFile> TimingVfs::open_append(
    const std::string& path) {
  return std::make_unique<File>(*this, inner_->open_append(path), false);
}

std::unique_ptr<fem2::db::VfsFile> TimingVfs::create_truncate(
    const std::string& path) {
  return std::make_unique<File>(*this, inner_->create_truncate(path), true);
}

std::optional<std::string> TimingVfs::read_file(const std::string& path) {
  return inner_->read_file(path);
}

void TimingVfs::rename(const std::string& from, const std::string& to) {
  inner_->rename(from, to);
}

void TimingVfs::dir_sync(const std::string& dir) { inner_->dir_sync(dir); }

}  // namespace perfbench
