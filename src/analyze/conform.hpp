// Continuous spec-conformance checking (pass 2 of fem2_analyze): at event-
// engine quiescent points, project live implementation state into H-graphs
// (spec/reflect) and check each against its layer grammar (spec/layers).
// The first violating snapshot is attributed to the recent task steps and
// messages that produced it.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyze/finding.hpp"
#include "hgraph/grammar.hpp"
#include "navm/runtime.hpp"
#include "sysvm/os.hpp"

namespace fem2::analyze {

class ConformanceChecker {
 public:
  /// Snapshots every `snapshot_stride`-th quiescent point (0 counts as 1;
  /// message checks are independent of the stride).
  ConformanceChecker(sysvm::Os& os, navm::Runtime* runtime,
                     std::size_t snapshot_stride, std::vector<Finding>& sink);

  /// Replace a layer's grammar (tests seed violations with a stricter
  /// grammar; Layer::Appvm is reserved — app state isn't snapshotted here).
  void set_grammar(Layer layer, hgraph::Grammar grammar);

  /// Called at every engine quiescent point; snapshots on the stride.
  void quiescent_point();
  /// Snapshot and check all layers now.
  void snapshot();
  /// Check one decoded message against the sysvm `message` production.
  void check_message(const sysvm::Message& message);
  /// Attribution trail: note what just happened (task step, message).
  void note_activity(std::string what);

  std::uint64_t snapshots_taken() const { return snapshots_; }
  std::uint64_t messages_checked() const { return messages_; }
  std::uint64_t graphs_checked() const { return graphs_; }

 private:
  void check_graph(Layer layer, const hgraph::HGraph& graph,
                   hgraph::NodeId root, std::string_view nonterminal,
                   std::string entity);
  const hgraph::Grammar& grammar_for(Layer layer) const;
  std::string recent_activity() const;

  sysvm::Os& os_;
  navm::Runtime* runtime_;
  std::vector<Finding>& sink_;

  hgraph::Grammar navm_grammar_;
  hgraph::Grammar sysvm_grammar_;
  hgraph::Grammar hw_grammar_;
  std::size_t snapshot_stride_;

  /// Messages of the same type are structurally near-identical, so after
  /// the first kMessageWarmup of a type, only every kMessageStride-th is
  /// checked — systematic malformations are still caught.
  static constexpr std::uint64_t kMessageWarmup = 16;
  static constexpr std::uint64_t kMessageStride = 64;

  std::size_t quiescent_counter_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t graphs_ = 0;
  std::uint64_t messages_seen_[sysvm::kMessageTypeCount] = {};
  std::deque<std::string> activity_;  ///< ring of recent events
  std::set<std::string> reported_;    ///< dedup per (layer, error)
};

}  // namespace fem2::analyze
