#include "analyze/conform.hpp"

#include <utility>

#include "hgraph/hgraph.hpp"
#include "spec/layers.hpp"
#include "spec/reflect.hpp"

namespace fem2::analyze {

namespace {
constexpr std::size_t kActivityRing = 8;
}  // namespace

ConformanceChecker::ConformanceChecker(sysvm::Os& os, navm::Runtime* runtime,
                                       std::size_t snapshot_stride,
                                       std::vector<Finding>& sink)
    : os_(os),
      runtime_(runtime),
      sink_(sink),
      navm_grammar_(spec::navm_grammar()),
      sysvm_grammar_(spec::sysvm_grammar()),
      hw_grammar_(spec::hw_grammar()),
      snapshot_stride_(snapshot_stride == 0 ? 1 : snapshot_stride) {}

void ConformanceChecker::set_grammar(Layer layer, hgraph::Grammar grammar) {
  switch (layer) {
    case Layer::Navm:
      navm_grammar_ = std::move(grammar);
      break;
    case Layer::Sysvm:
      sysvm_grammar_ = std::move(grammar);
      break;
    case Layer::Hw:
      hw_grammar_ = std::move(grammar);
      break;
    case Layer::Appvm:
    case Layer::Db:
    case Layer::None:
      break;
  }
}

const hgraph::Grammar& ConformanceChecker::grammar_for(Layer layer) const {
  switch (layer) {
    case Layer::Navm:
      return navm_grammar_;
    case Layer::Hw:
      return hw_grammar_;
    default:
      return sysvm_grammar_;
  }
}

void ConformanceChecker::note_activity(std::string what) {
  activity_.push_back(std::move(what));
  if (activity_.size() > kActivityRing) activity_.pop_front();
}

std::string ConformanceChecker::recent_activity() const {
  if (activity_.empty()) return "no activity observed since last snapshot";
  std::string out = "recent activity (oldest first): ";
  bool first = true;
  for (const auto& entry : activity_) {
    if (!first) out += "; ";
    out += entry;
    first = false;
  }
  return out;
}

void ConformanceChecker::quiescent_point() {
  ++quiescent_counter_;
  if (quiescent_counter_ % snapshot_stride_ != 0) return;
  snapshot();
}

void ConformanceChecker::check_graph(Layer layer, const hgraph::HGraph& graph,
                                     hgraph::NodeId root,
                                     std::string_view nonterminal,
                                     std::string entity) {
  ++graphs_;
  const auto result = grammar_for(layer).conforms(graph, root, nonterminal);
  if (result.ok) return;
  const std::string key = std::string(layer_name(layer)) + "/" + result.error;
  if (!reported_.insert(key).second) return;
  Finding f;
  f.pass = Pass::Conformance;
  f.severity = Severity::Error;
  f.layer = layer;
  f.rule = std::string(nonterminal);
  f.entity = std::move(entity);
  f.message = "snapshot violates layer grammar: " + result.error;
  f.evidence = recent_activity();
  sink_.push_back(std::move(f));
}

void ConformanceChecker::snapshot() {
  ++snapshots_;

  if (runtime_ != nullptr) {
    hgraph::HGraph g;
    const auto root = spec::reflect_task_system(g, os_, *runtime_);
    check_graph(Layer::Navm, g, root, "tasksystem", "task system");
  }

  const auto& machine = os_.machine();
  for (std::uint32_t c = 0; c < machine.cluster_count(); ++c) {
    const hw::ClusterId cluster{c};
    if (!machine.cluster_alive(cluster)) continue;
    hgraph::HGraph g;
    const auto root = spec::reflect_kernel(g, os_, cluster);
    check_graph(Layer::Sysvm, g, root, "kernel",
                "kernel of cluster " + std::to_string(c));
  }

  {
    hgraph::HGraph g;
    const auto root = spec::reflect_machine(g, machine);
    check_graph(Layer::Hw, g, root, "machine", "machine");
  }

  // A clean snapshot clears the attribution trail: the next violation is
  // attributed to activity after this known-good point.
  activity_.clear();
}

void ConformanceChecker::check_message(const sysvm::Message& message) {
  const auto type = static_cast<std::size_t>(sysvm::message_type(message));
  const std::uint64_t seen = messages_seen_[type]++;
  if (seen >= kMessageWarmup && seen % kMessageStride != 0) return;
  ++messages_;
  hgraph::HGraph g;
  const auto root = spec::reflect_message(g, message);
  check_graph(Layer::Sysvm, g, root, "message",
              "message " + std::string(sysvm::message_type_name(
                               sysvm::message_type(message))));
}

}  // namespace fem2::analyze
