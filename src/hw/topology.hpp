// Pluggable inter-cluster network topologies.
//
// The paper's simulation program exists for design-space exploration, and
// the network is the design axis that matters most at scale: the machine
// shape ("sets of clusters communicate through a common communication
// network") says nothing about whether that network is a flat crossbar, a
// fat tree of pods, or a rotor-style circuit switch.  A Topology supplies,
// per directed cluster pair, the launch latency (possibly time-varying),
// the per-byte transfer cost, and the contention channel packets serialize
// on; the Machine consults it for every inter-cluster send.
//
// Determinism contract: the conservative PDES window width of the event
// engine is derived from min_launch_delay(), the greatest lower bound of
// launch_delay over all pairs and all times.  A packet sent at time t in
// window [B, B+W) therefore cannot be delivered before B+W, so cross-shard
// deliveries still happen exclusively at window barriers and results stay
// bit-identical at every host thread count — for every topology.
// launch_delay must be a pure function of (src, dst, at).
//
// Degraded variants (browned-out links) are expressed with
// DegradedTopology.  Severing a link is a fault, not a topology: it goes
// through Machine::fail_link (driven by a FaultPlan).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/config.hpp"

namespace fem2::hw {

class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::string name() const = 0;
  virtual std::size_t clusters() const = 0;

  /// Launch latency of a packet committed to the network at virtual time
  /// `at` on the directed link src -> dst, in cycles.  Pure in (src, dst,
  /// at); must be >= min_launch_delay() for every input (checked at launch
  /// time), since the PDES lookahead is derived from that bound.
  virtual Cycles launch_delay(ClusterId src, ClusterId dst,
                              Cycles at) const = 0;

  /// Per-byte transfer cost of the src -> dst path.
  virtual double cycles_per_byte(ClusterId src, ClusterId dst) const = 0;

  /// Greatest lower bound of launch_delay over all distinct pairs and all
  /// times: the conservative PDES window width.  Must be > 0.
  virtual Cycles min_launch_delay() const = 0;

  /// Least upper bound of launch_delay (fault-free paths).  Feeds derived
  /// timeouts (e.g. the sysvm auto retransmit timeout).
  virtual Cycles max_launch_delay() const = 0;

  /// Contention model: packets mapped to the same channel serialize on it.
  /// The default is the flat model's one inbound channel per destination.
  virtual std::size_t channel_count() const { return clusters(); }
  virtual std::size_t channel(ClusterId src, ClusterId dst) const {
    (void)src;
    return dst.index;
  }
};

/// The seed machine shape: one flat network, uniform latency and bandwidth,
/// one inbound channel per destination cluster.  Constructed from the
/// MachineConfig timing fields, it reproduces the pre-topology cost model
/// bit for bit.
class FlatTopology final : public Topology {
 public:
  FlatTopology(std::size_t clusters, Cycles latency, double cpb);
  explicit FlatTopology(const MachineConfig& config);

  std::string name() const override { return "flat"; }
  std::size_t clusters() const override { return clusters_; }
  Cycles launch_delay(ClusterId, ClusterId, Cycles) const override {
    return latency_;
  }
  double cycles_per_byte(ClusterId, ClusterId) const override { return cpb_; }
  Cycles min_launch_delay() const override { return latency_; }
  Cycles max_launch_delay() const override { return latency_; }

 private:
  std::size_t clusters_;
  Cycles latency_;
  double cpb_;
};

/// Two-level fat tree: clusters grouped into pods of `pod_size` behind an
/// edge switch, pods joined by a spine.  Intra-pod traffic pays the edge
/// latency; inter-pod traffic pays the spine latency and serializes on the
/// source pod's uplink (the oversubscription point), while intra-pod
/// traffic serializes on the destination's inbound channel.
class FatTreeTopology final : public Topology {
 public:
  struct Options {
    std::size_t pod_size = 4;
    Cycles edge_latency = 100;    ///< within a pod
    Cycles spine_latency = 240;   ///< across pods (two extra hops)
    double edge_cycles_per_byte = 0.5;
    double spine_cycles_per_byte = 1.0;  ///< oversubscribed uplinks
  };

  FatTreeTopology(std::size_t clusters, Options options);

  std::string name() const override { return "fattree"; }
  std::size_t clusters() const override { return clusters_; }
  Cycles launch_delay(ClusterId src, ClusterId dst, Cycles at) const override;
  double cycles_per_byte(ClusterId src, ClusterId dst) const override;
  Cycles min_launch_delay() const override;
  Cycles max_launch_delay() const override { return options_.spine_latency; }
  std::size_t channel_count() const override { return clusters_ + pods_; }
  std::size_t channel(ClusterId src, ClusterId dst) const override;

  std::size_t pod_of(ClusterId c) const { return c.index / options_.pod_size; }
  std::size_t pods() const { return pods_; }

 private:
  std::size_t clusters_;
  Options options_;
  std::size_t pods_;
};

/// Rotor (round-robin circuit) network: each cluster owns one optical port;
/// a global rotor cycles through N-1 matchings, each held for `slot_cycles`,
/// and in matching k cluster i is wired directly to cluster (i+k+1) mod N.
/// A packet launches when the matching containing its (src, dst) pair is
/// next active, so launch latency is base + a deterministic wait that
/// depends on the send time.  Packets serialize on the source's port.
class RotorTopology final : public Topology {
 public:
  struct Options {
    Cycles base_latency = 100;  ///< circuit is set up: pure propagation
    Cycles slot_cycles = 400;   ///< how long each matching is held
    double cycles_per_byte = 0.25;  ///< optical links are fat
  };

  RotorTopology(std::size_t clusters, Options options);

  std::string name() const override { return "rotor"; }
  std::size_t clusters() const override { return clusters_; }
  Cycles launch_delay(ClusterId src, ClusterId dst, Cycles at) const override;
  double cycles_per_byte(ClusterId, ClusterId) const override {
    return options_.cycles_per_byte;
  }
  Cycles min_launch_delay() const override { return options_.base_latency; }
  Cycles max_launch_delay() const override;
  std::size_t channel(ClusterId src, ClusterId) const override {
    return src.index;
  }

  /// Matchings per rotor revolution (N-1, or 1 for a 2-cluster machine).
  std::size_t slots() const { return slots_; }

 private:
  std::size_t clusters_;
  Options options_;
  std::size_t slots_;
};

/// A wrapper degrading selected directed links of any base topology:
/// browned-out links multiply latency and per-byte cost.  The window
/// stays the base topology's min launch delay — degradation only ever
/// increases latency, so the lookahead bound remains valid.
class DegradedTopology final : public Topology {
 public:
  struct Brownout {
    ClusterId src;
    ClusterId dst;
    Cycles latency_factor = 4;
    double bandwidth_factor = 4.0;  ///< multiplies cycles_per_byte
  };

  DegradedTopology(std::shared_ptr<const Topology> base,
                   std::vector<Brownout> brownouts);

  std::string name() const override { return base_->name() + "-degraded"; }
  std::size_t clusters() const override { return base_->clusters(); }
  Cycles launch_delay(ClusterId src, ClusterId dst, Cycles at) const override;
  double cycles_per_byte(ClusterId src, ClusterId dst) const override;
  Cycles min_launch_delay() const override {
    return base_->min_launch_delay();
  }
  Cycles max_launch_delay() const override;
  std::size_t channel_count() const override { return base_->channel_count(); }
  std::size_t channel(ClusterId src, ClusterId dst) const override {
    return base_->channel(src, dst);
  }
 private:
  const Brownout* brownout(ClusterId src, ClusterId dst) const;

  std::shared_ptr<const Topology> base_;
  std::vector<Brownout> brownouts_;
};

/// Sweep-facing factory: "flat", "fattree", "rotor", or "degraded" (flat
/// with ring-neighbor brownouts), parameterized from the config's timing
/// fields so a flat instance reproduces the config's exact cost model.
std::shared_ptr<const Topology> make_topology(const std::string& kind,
                                              const MachineConfig& config);

/// The topology kinds make_topology accepts, in sweep order.
const std::vector<std::string>& topology_kinds();

}  // namespace fem2::hw
