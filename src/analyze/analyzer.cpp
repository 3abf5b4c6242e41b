#include "analyze/analyzer.hpp"

#include <string>
#include <utility>

#include "spec/layers.hpp"

namespace fem2::analyze {

Analyzer::Analyzer(navm::Runtime& runtime, AnalyzerOptions options)
    : runtime_(runtime),
      os_(runtime.os()),
      options_(options),
      conformance_(os_, &runtime_, options.snapshot_stride, findings_),
      race_(findings_),
      deadlock_(os_, &runtime_, findings_) {
  os_.set_observer(this);
  runtime_.set_observer(this);
  auto& engine = os_.machine().engine();
  engine.set_quiescent_hook([this] {
    ++quiescent_points_;
    if (options_.conformance) conformance_.quiescent_point();
  });
  engine.set_idle_hook([this] {
    if (options_.deadlock_detection) deadlock_.scan();
    if (options_.conformance) conformance_.snapshot();
  });
}

Analyzer::~Analyzer() {
  auto& engine = os_.machine().engine();
  engine.set_quiescent_hook({});
  engine.set_idle_hook({});
  runtime_.set_observer(nullptr);
  os_.set_observer(nullptr);
}

std::vector<Finding> Analyzer::lint_layer_grammars() {
  std::vector<Finding> all;
  const auto run = [&all](const hgraph::Grammar& grammar, const char* name,
                          Layer layer, std::vector<std::string> roots) {
    LintOptions options;
    options.layer = layer;
    options.roots = std::move(roots);
    auto found = lint_grammar(grammar, name, options);
    all.insert(all.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  };
  run(spec::appvm_grammar(), "appvm", Layer::Appvm,
      {"workspace", "database"});
  run(spec::db_grammar(), "db", Layer::Db, {"dbengine"});
  run(spec::navm_grammar(), "navm", Layer::Navm, {"window", "tasksystem"});
  run(spec::sysvm_grammar(), "sysvm", Layer::Sysvm,
      {"codeblock", "message", "activation", "kernel"});
  run(spec::hw_grammar(), "hw", Layer::Hw, {"machine"});
  return all;
}

void Analyzer::set_layer_grammar(Layer layer, hgraph::Grammar grammar) {
  conformance_.set_grammar(layer, std::move(grammar));
}

void Analyzer::check_now() {
  if (options_.conformance) conformance_.snapshot();
  if (options_.deadlock_detection) deadlock_.scan();
}

AnalyzerStats Analyzer::stats() const {
  AnalyzerStats s;
  s.quiescent_points = quiescent_points_;
  s.snapshots = conformance_.snapshots_taken();
  s.graphs_checked = conformance_.graphs_checked();
  s.messages_checked = conformance_.messages_checked();
  s.accesses_tracked = race_.accesses_tracked();
  s.steps_observed = steps_observed_;
  return s;
}

// --- sysvm::OsObserver ----------------------------------------------------

void Analyzer::on_task_created(sysvm::TaskId task, sysvm::TaskId parent) {
  if (options_.race_detection) race_.task_created(task, parent);
  if (options_.conformance) {
    conformance_.note_activity("task " + std::to_string(task) +
                               " created by task " + std::to_string(parent));
  }
}

void Analyzer::on_task_finished(sysvm::TaskId task) {
  if (options_.conformance) {
    conformance_.note_activity("task " + std::to_string(task) + " finished");
  }
}

void Analyzer::on_step_begin(sysvm::TaskId task) {
  ++steps_observed_;
  if (options_.race_detection) race_.step_begin(task);
  if (options_.conformance) {
    conformance_.note_activity("step of task " + std::to_string(task));
  }
}

void Analyzer::on_step_end(sysvm::TaskId task) {
  if (options_.race_detection) race_.step_end(task);
}

void Analyzer::on_task_send(sysvm::TaskId from, hw::ClusterId to,
                            const sysvm::Message& message) {
  (void)to;
  if (options_.race_detection) race_.task_send(from, message);
}

void Analyzer::on_message(hw::ClusterId cluster,
                          const sysvm::Message& message) {
  if (options_.race_detection) race_.message_delivered(message);
  if (options_.conformance) {
    conformance_.check_message(message);
    conformance_.note_activity(
        "cluster " + std::to_string(cluster.index) + " decoded " +
        std::string(sysvm::message_type_name(sysvm::message_type(message))));
  }
}

void Analyzer::on_procedure_begin(const sysvm::MsgRemoteCall& call,
                                  hw::ClusterId cluster) {
  (void)cluster;
  if (options_.race_detection) race_.procedure_begin(call);
  if (options_.conformance) {
    conformance_.note_activity("procedure " + call.procedure + " for task " +
                               std::to_string(call.caller));
  }
}

void Analyzer::on_procedure_end(const sysvm::MsgRemoteCall& call,
                                hw::ClusterId cluster) {
  (void)cluster;
  if (options_.race_detection) race_.procedure_end(call);
}

// --- navm::RuntimeObserver ------------------------------------------------

void Analyzer::on_array_read(const navm::Window& window) {
  if (options_.race_detection) race_.array_read(window);
}

void Analyzer::on_array_write(const navm::Window& window) {
  if (options_.race_detection) race_.array_write(window);
}

void Analyzer::on_deposit(std::uint64_t collector, sysvm::TaskId depositor) {
  if (options_.race_detection) race_.deposit(collector, depositor);
}

void Analyzer::on_collector_take(std::uint64_t collector,
                                 sysvm::TaskId owner) {
  if (options_.race_detection) race_.collector_take(collector, owner);
}

}  // namespace fem2::analyze
