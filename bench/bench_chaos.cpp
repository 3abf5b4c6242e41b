// E13 — commit throughput and recovery under injected storage faults:
// the price of surviving a flaky disk.  A single session commits a fixed
// number of transactions through a FaultVfs whose plan fails 0%, 1% or
// 10% of all fsyncs (seeded, deterministic).  Every failed fsync drives
// the engine through the full fail-safe cycle: the commit is rejected,
// the engine enters sticky read-only degraded mode, the driver calls
// recover() (snapshot load + full log replay) and retries the commit.
//
// Reported per failure rate: acked commit throughput (wall time includes
// the in-line recoveries), the number of recoveries (deterministic: one
// per fired fault), and the cold recovery time of a fresh engine over
// the surviving directory after a simulated power loss.
#include "bench_common.hpp"

#include <chrono>
#include <filesystem>

#include "db/engine.hpp"
#include "db/iofault.hpp"

using namespace fem2;

namespace {

constexpr std::size_t kNamePool = 64;
constexpr std::size_t kPayloadBytes = 1024;

std::size_t total_commits() { return bench::smoke() ? 256 : 2048; }

struct Outcome {
  double elapsed_ms = 0.0;
  std::uint64_t acked = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t faults_fired = 0;
  double recovery_ms = 0.0;
  std::uint64_t recovered_txns = 0;
};

Outcome run_rate(const std::filesystem::path& dir, std::size_t percent) {
  const std::size_t commits = total_commits();
  db::IoFaultPlan plan;
  if (percent > 0)
    plan = db::IoFaultPlan::random_fsync_failures(
        commits * percent / 100, commits, 0xc4a05ULL + percent);
  auto vfs = std::make_shared<db::FaultVfs>(plan);

  db::EngineOptions options;
  options.directory = dir.string();
  options.compact_after_bytes = 0;  // keep the whole log for recovery
  options.vfs = vfs;

  const std::string payload(kPayloadBytes, 'm');
  Outcome out;
  const auto start = std::chrono::steady_clock::now();
  {
    db::Engine engine(options);
    for (std::size_t i = 0; i < commits; ++i) {
      const auto name = "entry-" + std::to_string(i % kNamePool);
      for (;;) {
        try {
          engine.put(name, "model", payload);
          out.acked += 1;
          break;
        } catch (const db::IoError&) {
          // The commit fsync failed: the engine is read-only until it
          // re-opens from durable state.
          if (engine.degraded()) {
            engine.recover();
            out.recoveries += 1;
          }
        } catch (const db::DegradedError&) {
          engine.recover();
          out.recoveries += 1;
        }
      }
    }
  }
  const auto mid = std::chrono::steady_clock::now();
  out.elapsed_ms =
      std::chrono::duration<double, std::milli>(mid - start).count();
  out.faults_fired = vfs->faults_fired();

  // Power loss, then a cold open over whatever is durable.
  vfs->crash_to_durable();
  db::EngineOptions cold;
  cold.directory = dir.string();
  const auto t0 = std::chrono::steady_clock::now();
  db::Engine recovered(cold);
  const auto t1 = std::chrono::steady_clock::now();
  out.recovery_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.recovered_txns = recovered.stats().recovered_txns;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E13", argc, argv);
  std::cout << "E13: fem2-db commit throughput under injected fsync faults\n"
            << "     " << total_commits() << " acked commits per rate, "
            << kPayloadBytes
            << "-byte payloads; each fired fault costs one full\n"
            << "     degrade + recover() cycle in-line\n\n";

  const auto base = std::filesystem::temp_directory_path() / "fem2_bench_chaos";
  std::filesystem::remove_all(base);

  support::Table table("throughput and recovery by injected fsync-failure rate");
  table.set_header({"fail-%", "acked", "faults", "recoveries", "elapsed-ms",
                    "commits/s", "cold-recovery-ms", "replayed-txns"});

  for (const std::size_t percent : {0u, 1u, 10u}) {
    auto dir = base / "f";
    dir += std::to_string(percent);
    const auto outcome = run_rate(dir, percent);
    const double commits_per_s =
        1000.0 * static_cast<double>(outcome.acked) / outcome.elapsed_ms;
    table.row()
        .cell(static_cast<std::uint64_t>(percent))
        .cell(outcome.acked)
        .cell(outcome.faults_fired)
        .cell(outcome.recoveries)
        .cell(outcome.elapsed_ms, 1)
        .cell(commits_per_s, 0)
        .cell(outcome.recovery_ms, 2)
        .cell(outcome.recovered_txns);
    const auto tag = "_f" + std::to_string(percent);
    bench::note("commits_per_s" + tag, commits_per_s, "commits/s");
    bench::note("recovery_ms" + tag, outcome.recovery_ms, "ms");
    bench::note("recoveries" + tag, static_cast<double>(outcome.recoveries),
                "iters");
  }
  table.print(std::cout);
  std::filesystem::remove_all(base);

  std::cout
      << "\nReading: every acked commit survives every run — the fault rate\n"
         "buys latency, never lost data.  At 1% the in-line recoveries are\n"
         "noise; at 10% throughput drops roughly with the cost of replaying\n"
         "the accumulated log once per fault (recovery work grows with log\n"
         "volume, so un-checkpointed logs make faults progressively more\n"
         "expensive — exactly why the checkpointer exists).\n";
  return bench::finish();
}
