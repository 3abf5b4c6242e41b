// E11 — fem2-db under multi-session load: commit throughput and recovery
// time for K = 1, 4, 16 concurrent sessions hammering one persistent
// engine ("provide multi-user access" meets "long-term storage").
//
// Part 1: K threads commit a fixed total number of transactions — a mix
// of unconditional stores over a name pool and compare-and-swap stores on
// one hot name (retried on conflict).  Every commit pays the full WAL
// discipline: append CRC-framed records, one fsync at the commit point.
// Part 2: the crash path — reopen the directory and time snapshot-load +
// log-replay, reporting how much log the recovery had to chew through.
#include "bench_common.hpp"

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "db/engine.hpp"
#include "support/rng.hpp"

using namespace fem2;

namespace {

constexpr std::size_t kNamePool = 64;
constexpr std::size_t kPayloadBytes = 1024;

std::size_t total_commits() { return bench::smoke() ? 256 : 2048; }

struct WorkloadResult {
  double elapsed_ms = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t commits = 0;
};

WorkloadResult run_sessions(db::Engine& engine, std::size_t sessions) {
  const std::string payload(kPayloadBytes, 'm');
  const std::size_t per_session = total_commits() / sessions;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&engine, &payload, s, per_session] {
      support::Rng rng(0x5eedULL + s);
      for (std::size_t i = 0; i < per_session; ++i) {
        if (rng.uniform() < 0.85) {
          // Plain store into the shared name pool.
          const auto name =
              "entry-" + std::to_string(rng.next_below(kNamePool));
          engine.put(name, "model", payload);
        } else {
          // Optimistic store on the hot name, retried on conflict.
          for (;;) {
            const auto rev = engine.revision_of("hot");
            try {
              engine.put("hot", "model", payload, rev);
              break;
            } catch (const db::ConflictError&) {
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stop = std::chrono::steady_clock::now();

  WorkloadResult result;
  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  const auto stats = engine.stats();
  result.conflicts = stats.conflicts;
  result.wal_bytes = stats.wal_bytes;
  result.commits = stats.commits;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E11", argc, argv);
  std::cout << "E11: fem2-db commit throughput and recovery time\n"
            << "     " << total_commits() << " committed transactions total, "
            << kPayloadBytes << "-byte payloads, " << kNamePool
            << "-name pool + 1 hot CAS name, fsync on every commit\n\n";

  const auto base =
      std::filesystem::temp_directory_path() / "fem2_bench_database";
  std::filesystem::remove_all(base);

  support::Table table("commit throughput and recovery by session count");
  table.set_header({"sessions", "commits", "conflicts", "elapsed-ms",
                    "commits/s", "wal-KiB", "recovery-ms", "replayed-txns"});

  for (const std::size_t sessions : {1u, 4u, 16u}) {
    auto dir = base / "k";
    dir += std::to_string(sessions);
    db::EngineOptions options;
    options.directory = dir.string();
    options.compact_after_bytes = 0;  // keep the whole log for recovery

    WorkloadResult workload;
    {
      db::Engine engine(options);
      workload = run_sessions(engine, sessions);
    }

    // Part 2: crash recovery — reopen and replay the full log.
    const auto start = std::chrono::steady_clock::now();
    db::Engine recovered(options);
    const auto stop = std::chrono::steady_clock::now();
    const double recovery_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();

    table.row()
        .cell(static_cast<std::uint64_t>(sessions))
        .cell(workload.commits)
        .cell(workload.conflicts)
        .cell(workload.elapsed_ms, 1)
        .cell(1000.0 * static_cast<double>(workload.commits) /
                  workload.elapsed_ms,
              0)
        .cell(workload.wal_bytes / 1024.0, 1)
        .cell(recovery_ms, 2)
        .cell(recovered.stats().recovered_txns);
    bench::note("commits_per_s_k" + std::to_string(sessions),
                1000.0 * static_cast<double>(workload.commits) /
                    workload.elapsed_ms,
                "commits/s");
    bench::note("recovery_ms_k" + std::to_string(sessions), recovery_ms,
                "ms");
  }
  table.print(std::cout);
  std::filesystem::remove_all(base);

  std::cout
      << "\nReading: one mutex serializes the table and the log tail, so\n"
         "aggregate throughput roughly holds as K grows, minus lock and\n"
         "CAS-retry overhead; conflicts appear only once two sessions race\n"
         "the hot name.  Recovery time scales with log volume, not with\n"
         "the session count that produced it.\n";
  return bench::finish();
}
