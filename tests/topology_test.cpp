// Topology suite: window derivation, per-topology latency math, the
// contention-channel mapping, and bitwise determinism of every topology
// across host thread counts (the TopologyDeterminism fixture is also re-run
// under tsan with FEM2_HOST_THREADS=4 in CI).
#include <gtest/gtest.h>

#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "hw/machine.hpp"
#include "hw/topology.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "support/check.hpp"
#include "sysvm/os.hpp"

namespace fem2::hw {
namespace {

MachineConfig four_clusters() {
  MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 2;
  return config;
}

// --- window derivation ------------------------------------------------------

TEST(Topology, WindowEqualsMinLaunchDelayForEveryKind) {
  for (const auto& kind : topology_kinds()) {
    auto config = four_clusters();
    config.topology = make_topology(kind, config);
    Machine machine(config);
    EXPECT_EQ(machine.engine().window(),
              config.topology->min_launch_delay())
        << "topology=" << kind;
    EXPECT_EQ(machine.topology().name(), config.topology->name());
  }
}

TEST(Topology, NullTopologySelectsFlatSeedModel) {
  const auto config = four_clusters();
  Machine machine(config);  // config.topology left null
  EXPECT_EQ(machine.topology().name(), "flat");
  EXPECT_EQ(machine.engine().window(), config.network_base_latency);
  EXPECT_EQ(machine.topology().launch_delay(ClusterId{0}, ClusterId{1}, 0),
            config.network_base_latency);
  EXPECT_EQ(machine.topology().cycles_per_byte(ClusterId{0}, ClusterId{1}),
            config.network_cycles_per_byte);
}

TEST(Topology, ClusterCountMismatchIsRejected) {
  auto config = four_clusters();
  config.topology = std::make_shared<FlatTopology>(8, 100, 0.5);
  EXPECT_THROW(Machine{config}, support::CheckError);
}

TEST(Topology, UnknownKindIsRejected) {
  EXPECT_THROW(make_topology("torus", four_clusters()),
               support::CheckError);
}

// --- fat tree ---------------------------------------------------------------

TEST(Topology, FatTreeEdgeVsSpinePaths) {
  FatTreeTopology::Options opt;
  opt.pod_size = 2;
  opt.edge_latency = 100;
  opt.spine_latency = 240;
  opt.edge_cycles_per_byte = 0.5;
  opt.spine_cycles_per_byte = 1.0;
  const FatTreeTopology tree(4, opt);  // pods {0,1} and {2,3}

  EXPECT_EQ(tree.pods(), 2u);
  EXPECT_EQ(tree.min_launch_delay(), 100u);
  EXPECT_EQ(tree.max_launch_delay(), 240u);
  // Intra-pod: edge path, destination inbound channel.
  EXPECT_EQ(tree.launch_delay(ClusterId{0}, ClusterId{1}, 0), 100u);
  EXPECT_EQ(tree.cycles_per_byte(ClusterId{0}, ClusterId{1}), 0.5);
  EXPECT_EQ(tree.channel(ClusterId{0}, ClusterId{1}), 1u);
  // Inter-pod: spine path, source pod's uplink channel.
  EXPECT_EQ(tree.launch_delay(ClusterId{0}, ClusterId{3}, 0), 240u);
  EXPECT_EQ(tree.cycles_per_byte(ClusterId{0}, ClusterId{3}), 1.0);
  EXPECT_EQ(tree.channel(ClusterId{0}, ClusterId{3}), 4u);  // clusters + pod 0
  EXPECT_EQ(tree.channel(ClusterId{3}, ClusterId{0}), 5u);  // clusters + pod 1
  EXPECT_EQ(tree.channel_count(), 6u);
}

// --- rotor ------------------------------------------------------------------

TEST(Topology, RotorSlotWaitIsDeterministicInSendTime) {
  RotorTopology::Options opt;
  opt.base_latency = 100;
  opt.slot_cycles = 400;
  const RotorTopology rotor(4, opt);  // 3 matchings, revolution = 1200

  EXPECT_EQ(rotor.slots(), 3u);
  EXPECT_EQ(rotor.min_launch_delay(), 100u);
  // Matching 0 wires 0 -> 1 and is active on [0, 400).
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{1}, 0), 100u);
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{1}, 399), 100u);
  // Just after the slot: wait a whole revolution minus the phase.
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{1}, 400),
            100u + 800u);
  // Matching 1 wires 0 -> 2 on [400, 800): before it opens, wait the gap.
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{2}, 0), 100u + 400u);
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{2}, 400), 100u);
  // Phase wraps with the revolution.
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{1}, 1200), 100u);
  // Worst case bound holds.
  EXPECT_EQ(rotor.max_launch_delay(), 100u + 400u * 2 + 399u);
  for (const Cycles at : {0u, 123u, 400u, 799u, 1199u, 1200u, 5000u}) {
    for (std::uint32_t dst = 1; dst < 4; ++dst) {
      const auto d = rotor.launch_delay(ClusterId{0}, ClusterId{dst}, at);
      EXPECT_GE(d, rotor.min_launch_delay());
      EXPECT_LE(d, rotor.max_launch_delay());
    }
  }
  // Packets serialize on the source's optical port.
  EXPECT_EQ(rotor.channel(ClusterId{2}, ClusterId{0}), 2u);

  // A 2-cluster rotor is always wired.
  const RotorTopology pair(2, opt);
  EXPECT_EQ(pair.launch_delay(ClusterId{0}, ClusterId{1}, 777), 100u);
  EXPECT_EQ(pair.max_launch_delay(), 100u);
}

// --- degraded variants ------------------------------------------------------

TEST(Topology, BrownoutsScaleLatencyAndBandwidthOnly) {
  auto base = std::make_shared<FlatTopology>(4, 100, 0.5);
  const DegradedTopology degraded(
      base, {{ClusterId{0}, ClusterId{1}, 4, 4.0}});
  EXPECT_EQ(degraded.launch_delay(ClusterId{0}, ClusterId{1}, 0), 400u);
  EXPECT_EQ(degraded.cycles_per_byte(ClusterId{0}, ClusterId{1}), 2.0);
  // Untouched links and the window bound are the base topology's.
  EXPECT_EQ(degraded.launch_delay(ClusterId{1}, ClusterId{0}, 0), 100u);
  EXPECT_EQ(degraded.min_launch_delay(), 100u);
  EXPECT_EQ(degraded.max_launch_delay(), 400u);
  // A brownout that would speed a link up is rejected (window safety).
  EXPECT_THROW(DegradedTopology(base, {{ClusterId{0}, ClusterId{1}, 0, 0.5}}),
               support::CheckError);
}

// --- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, ExactBelowSixteenThenBounded) {
  LatencyHistogram h;
  for (Cycles v = 1; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(v), v);
  }
  for (const Cycles v : {16u, 100u, 1000u, 123456u}) {
    const auto index = LatencyHistogram::bucket_index(v);
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v);
    // Relative bucket width stays within one sub-bucket (~6%).
    EXPECT_LE(static_cast<double>(LatencyHistogram::bucket_upper(index)),
              static_cast<double>(v) * (1.0 + 1.0 / 16.0) + 1.0);
  }
  h.record(10);
  h.record(20);
  h.record(300);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.min, 10u);
  EXPECT_EQ(h.max, 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 110.0);
  EXPECT_EQ(h.quantile(0.0), 10u);
  EXPECT_GE(h.quantile(0.5), 20u);
  EXPECT_EQ(h.quantile(1.0), 300u);
}

TEST(LatencyHistogram, MachineRecordsDeliveries) {
  Machine machine(four_clusters());
  machine.send_packet(ClusterId{0}, ClusterId{1}, 64, {});
  machine.send_packet(ClusterId{1}, ClusterId{2}, 64, {});
  machine.send_packet(ClusterId{2}, ClusterId{2}, 64, {});  // local: no sample
  machine.engine().run();
  const auto& latency = machine.metrics().network.latency;
  EXPECT_EQ(latency.count, 2u);
  EXPECT_GE(latency.min, machine.engine().window());
}

// --- determinism ------------------------------------------------------------

// Bitwise determinism for every topology: the same distributed solve at 1,
// 2 and 8 host threads must produce byte-identical machine metrics dumps
// (which include the latency histogram) and bit-identical displacements.
TEST(TopologyDeterminism, BitwiseAcrossThreadCountsForEveryKind) {
  fem::PlateMeshOptions mesh;
  mesh.nx = 12;
  mesh.ny = 6;
  mesh.width = 1.5;
  mesh.height = 0.75;
  const auto model = fem::make_cantilever_plate(mesh, 1'000.0);

  for (const auto& kind : topology_kinds()) {
    auto config = four_clusters();
    config.topology = make_topology(kind, config);

    struct Outcome {
      Cycles elapsed = 0;
      std::string machine_dump;
      std::string os_dump;
      std::vector<double> displacements;
    };
    const auto run = [&](unsigned threads) {
      Machine machine(config);
      machine.engine().set_threads(threads);
      sysvm::Os os(machine);
      navm::Runtime runtime(os);
      navm::register_parallel_ops(runtime);
      const auto solution = fem::solve_static_parallel(
          model, "tip-shear", runtime, {.workers = 8, .tolerance = 1e-8});
      Outcome outcome;
      outcome.elapsed = machine.now();
      outcome.machine_dump = machine.metrics().dump();
      outcome.os_dump = os.metrics().dump();
      outcome.displacements = solution.displacements.values;
      return outcome;
    };

    const auto base = run(1);
    ASSERT_GT(base.elapsed, 0u) << "topology=" << kind;
    for (const unsigned threads : {2u, 8u}) {
      const auto other = run(threads);
      EXPECT_EQ(other.elapsed, base.elapsed)
          << "topology=" << kind << " threads=" << threads;
      EXPECT_EQ(other.machine_dump, base.machine_dump)
          << "topology=" << kind << " threads=" << threads;
      EXPECT_EQ(other.os_dump, base.os_dump)
          << "topology=" << kind << " threads=" << threads;
      EXPECT_EQ(other.displacements, base.displacements)
          << "topology=" << kind << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace fem2::hw
