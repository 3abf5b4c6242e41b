// Machine configuration for the FEM-2 hardware simulator.
//
// The architecture follows the paper: "clusters of processing elements
// organized around a shared memory.  Sets of clusters communicate through a
// common communication network.  Within each cluster, one PE runs the
// operating system kernel, which fields incoming messages and assigns
// available PE's to process them."
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace fem2::hw {

class Topology;

/// Virtual time, in processor cycles.
using Cycles = std::uint64_t;

struct ClusterId {
  std::uint32_t index = kInvalid;
  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  bool valid() const { return index != kInvalid; }
  friend bool operator==(ClusterId a, ClusterId b) = default;
  friend auto operator<=>(ClusterId a, ClusterId b) = default;
};

struct PeId {
  ClusterId cluster;
  std::uint32_t index = 0xffffffffu;

  bool valid() const { return cluster.valid() && index != 0xffffffffu; }
  friend bool operator==(PeId a, PeId b) = default;
  friend auto operator<=>(PeId a, PeId b) = default;
};

struct MachineConfig {
  std::size_t clusters = 4;
  std::size_t pes_per_cluster = 8;

  /// Capacity of each cluster's shared memory.
  std::size_t memory_per_cluster = 4u << 20;

  // --- timing model (all in cycles) ---------------------------------------
  Cycles cycles_per_flop = 4;          ///< one floating-point operation
  Cycles cycles_per_word = 1;          ///< one shared-memory word access
  Cycles message_sw_overhead = 250;    ///< format/send + decode software path
  Cycles kernel_dispatch = 60;         ///< kernel PE fielding one message
  Cycles intra_cluster_latency = 30;   ///< shared-memory handoff in-cluster
  Cycles network_base_latency = 150;   ///< inter-cluster message launch
  double network_cycles_per_byte = 0.5;

  /// Inter-cluster network shape (hw/topology.hpp).  Null selects a
  /// FlatTopology built from the two fields above — the seed cost model.
  /// The engine's PDES window is the topology's minimum launch delay.
  std::shared_ptr<const Topology> topology;

  /// Network contention is always modeled: packets sharing a topology
  /// channel serialize on it (flat: one inbound FIFO per cluster).
  /// Shared-memory port contention is too: intra-cluster handoffs
  /// serialize on the cluster's memory port at this rate.  This is the
  /// physical pressure that bounds useful cluster size (all PEs arbitrate
  /// for one memory).
  double memory_cycles_per_byte = 0.25;

  // --- fault model ---------------------------------------------------------
  /// Seed for the network's packet-loss lottery (deterministic; intra-cluster
  /// shared-memory handoffs never drop).
  std::uint64_t network_seed = 0x5eedfa17ULL;

  /// Default drop probability applied to every inter-cluster link.
  /// Per-link overrides and severed links are set on the Machine.
  double network_drop_probability = 0.0;

  std::size_t total_pes() const { return clusters * pes_per_cluster; }
};

}  // namespace fem2::hw
