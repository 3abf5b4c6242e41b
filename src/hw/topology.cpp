#include "hw/topology.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace fem2::hw {

// --- FlatTopology ----------------------------------------------------------

FlatTopology::FlatTopology(std::size_t clusters, Cycles latency, double cpb)
    : clusters_(clusters), latency_(latency), cpb_(cpb) {
  FEM2_CHECK_MSG(clusters_ > 0, "topology needs at least one cluster");
  FEM2_CHECK_MSG(latency_ > 0, "flat launch latency must be positive");
}

FlatTopology::FlatTopology(const MachineConfig& config)
    : FlatTopology(config.clusters, config.network_base_latency,
                   config.network_cycles_per_byte) {}

// --- FatTreeTopology -------------------------------------------------------

FatTreeTopology::FatTreeTopology(std::size_t clusters, Options options)
    : clusters_(clusters), options_(options) {
  FEM2_CHECK_MSG(clusters_ > 0, "topology needs at least one cluster");
  FEM2_CHECK_MSG(options_.pod_size > 0, "fat-tree pods must be non-empty");
  FEM2_CHECK_MSG(options_.edge_latency > 0 && options_.spine_latency > 0,
                 "fat-tree latencies must be positive");
  FEM2_CHECK_MSG(options_.spine_latency >= options_.edge_latency,
                 "spine path cannot be shorter than the edge path");
  pods_ = (clusters_ + options_.pod_size - 1) / options_.pod_size;
}

Cycles FatTreeTopology::launch_delay(ClusterId src, ClusterId dst,
                                     Cycles) const {
  return pod_of(src) == pod_of(dst) ? options_.edge_latency
                                    : options_.spine_latency;
}

double FatTreeTopology::cycles_per_byte(ClusterId src, ClusterId dst) const {
  return pod_of(src) == pod_of(dst) ? options_.edge_cycles_per_byte
                                    : options_.spine_cycles_per_byte;
}

Cycles FatTreeTopology::min_launch_delay() const {
  // With a single pod every path is an edge path; with several, the edge
  // latency is still the minimum because spine >= edge is enforced.
  return options_.edge_latency;
}

std::size_t FatTreeTopology::channel(ClusterId src, ClusterId dst) const {
  if (pod_of(src) == pod_of(dst)) return dst.index;
  return clusters_ + pod_of(src);  // source pod's spine uplink
}

// --- RotorTopology ---------------------------------------------------------

RotorTopology::RotorTopology(std::size_t clusters, Options options)
    : clusters_(clusters), options_(options) {
  FEM2_CHECK_MSG(clusters_ > 0, "topology needs at least one cluster");
  FEM2_CHECK_MSG(options_.base_latency > 0,
                 "rotor base latency must be positive");
  FEM2_CHECK_MSG(options_.slot_cycles > 0,
                 "rotor slots must be at least one cycle");
  slots_ = clusters_ > 1 ? clusters_ - 1 : 1;
}

Cycles RotorTopology::launch_delay(ClusterId src, ClusterId dst,
                                   Cycles at) const {
  if (slots_ == 1) return options_.base_latency;  // always wired
  // Matching k wires i -> (i + k + 1) mod N, so the pair needs matching
  // (dst - src - 1) mod N; wait until it is next active (0 if active now).
  const std::size_t need =
      (dst.index + clusters_ - src.index - 1) % clusters_;
  const Cycles revolution = options_.slot_cycles * slots_;
  const Cycles phase = at % revolution;
  const Cycles slot_begin = static_cast<Cycles>(need) * options_.slot_cycles;
  Cycles wait = 0;
  if (phase < slot_begin) {
    wait = slot_begin - phase;
  } else if (phase >= slot_begin + options_.slot_cycles) {
    wait = revolution - phase + slot_begin;
  }
  return options_.base_latency + wait;
}

Cycles RotorTopology::max_launch_delay() const {
  if (slots_ == 1) return options_.base_latency;
  // Worst case: the needed matching just ended, wait a full revolution
  // minus one slot.
  return options_.base_latency + options_.slot_cycles * (slots_ - 1) +
         options_.slot_cycles - 1;
}

// --- DegradedTopology ------------------------------------------------------

DegradedTopology::DegradedTopology(std::shared_ptr<const Topology> base,
                                   std::vector<Brownout> brownouts)
    : base_(std::move(base)), brownouts_(std::move(brownouts)) {
  FEM2_CHECK_MSG(base_ != nullptr, "degraded topology needs a base");
  for (const Brownout& b : brownouts_) {
    FEM2_CHECK_MSG(b.latency_factor >= 1 && b.bandwidth_factor >= 1.0,
                   "a brownout cannot make a link faster (the window bound "
                   "is the base topology's minimum)");
  }
}

const DegradedTopology::Brownout* DegradedTopology::brownout(
    ClusterId src, ClusterId dst) const {
  for (const Brownout& b : brownouts_) {
    if (b.src == src && b.dst == dst) return &b;
  }
  return nullptr;
}

Cycles DegradedTopology::launch_delay(ClusterId src, ClusterId dst,
                                      Cycles at) const {
  const Cycles base = base_->launch_delay(src, dst, at);
  const Brownout* b = brownout(src, dst);
  return b == nullptr ? base : base * b->latency_factor;
}

double DegradedTopology::cycles_per_byte(ClusterId src, ClusterId dst) const {
  const double base = base_->cycles_per_byte(src, dst);
  const Brownout* b = brownout(src, dst);
  return b == nullptr ? base : base * b->bandwidth_factor;
}

Cycles DegradedTopology::max_launch_delay() const {
  Cycles factor = 1;
  for (const Brownout& b : brownouts_)
    factor = std::max(factor, b.latency_factor);
  return base_->max_launch_delay() * factor;
}

// --- factory ---------------------------------------------------------------

const std::vector<std::string>& topology_kinds() {
  static const std::vector<std::string> kinds = {"flat", "fattree", "rotor",
                                                 "degraded"};
  return kinds;
}

std::shared_ptr<const Topology> make_topology(const std::string& kind,
                                              const MachineConfig& config) {
  const std::size_t n = config.clusters;
  if (kind == "flat") {
    return std::make_shared<FlatTopology>(config);
  }
  if (kind == "fattree") {
    FatTreeTopology::Options opt;
    // Pods of up to 4 clusters; edge paths beat the flat network, spine
    // paths pay two extra hops and half the bandwidth.
    opt.pod_size = std::min<std::size_t>(4, std::max<std::size_t>(1, n / 2));
    opt.edge_latency = std::max<Cycles>(1, config.network_base_latency * 2 / 3);
    opt.spine_latency = config.network_base_latency * 8 / 5;
    opt.edge_cycles_per_byte = config.network_cycles_per_byte;
    opt.spine_cycles_per_byte = config.network_cycles_per_byte * 2.0;
    return std::make_shared<FatTreeTopology>(n, opt);
  }
  if (kind == "rotor") {
    RotorTopology::Options opt;
    opt.base_latency = std::max<Cycles>(1, config.network_base_latency * 2 / 3);
    opt.slot_cycles = config.network_base_latency * 2;
    opt.cycles_per_byte = config.network_cycles_per_byte / 2.0;
    return std::make_shared<RotorTopology>(n, opt);
  }
  if (kind == "degraded") {
    // Flat network with browned-out ring-neighbor links: latency x4,
    // bandwidth / 4 on every i -> (i+1) mod N link.
    std::vector<DegradedTopology::Brownout> brownouts;
    if (n > 1) {
      for (std::uint32_t i = 0; i < n; ++i) {
        brownouts.push_back(DegradedTopology::Brownout{
            ClusterId{i}, ClusterId{static_cast<std::uint32_t>((i + 1) % n)},
            4, 4.0});
      }
    }
    return std::make_shared<DegradedTopology>(
        std::make_shared<FlatTopology>(config), std::move(brownouts));
  }
  FEM2_CHECK_MSG(false, "unknown topology kind: " + kind);
  return nullptr;
}

}  // namespace fem2::hw
