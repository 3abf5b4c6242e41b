// Group-commit tests: concurrent transactions batched into one WAL fsync
// must keep every durability and concurrency promise the classic
// one-fsync-per-commit path makes.  The acceptance property is the same
// as fem2-db's: after any crash or injected fault, recovery sees exactly
// the acknowledged commits — nothing lost, nothing phantom — proved here
// over logs produced by real multi-member batches (a byte-level
// crash-point sweep across batched frames), plus batch fsync failures
// that must fail every member cleanly and leave the engine fail-safe.
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/engine.hpp"
#include "db/iofault.hpp"
#include "db/query.hpp"
#include "db/vfs.hpp"

namespace fs = std::filesystem;
using namespace fem2;

namespace {

struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / ("fem2_gc_" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
  std::string str() const { return path.string(); }
};

db::EngineOptions grouped_options(const TempDir& dir,
                                  std::chrono::microseconds window =
                                      std::chrono::milliseconds(20)) {
  db::EngineOptions options;
  options.directory = dir.str();
  options.compact_after_bytes = 0;  // keep every record in the log
  options.group_commit_window = window;
  return options;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Parks the WAL fsync once armed, until the test releases it: a commit
/// can be held inside its fsync while the test probes the engine.
struct SyncGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool armed = false;
  bool parked = false;
  bool released = false;

  void pass() {
    std::unique_lock lock(mutex);
    if (!armed) return;
    parked = true;
    cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }
  bool wait_parked(std::chrono::seconds timeout) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, timeout, [this] { return parked; });
  }
  void release() {
    std::lock_guard lock(mutex);
    released = true;
    cv.notify_all();
  }
};

class GatedFile : public db::VfsFile {
 public:
  GatedFile(std::unique_ptr<db::VfsFile> inner, std::shared_ptr<SyncGate> gate)
      : db::VfsFile(inner->path()),
        inner_(std::move(inner)),
        gate_(std::move(gate)) {}
  std::size_t write_some(const char* data, std::size_t bytes) override {
    return inner_->write_some(data, bytes);
  }
  void sync() override {
    gate_->pass();
    inner_->sync();
  }
  void truncate(std::uint64_t bytes) override { inner_->truncate(bytes); }
  std::uint64_t size() override { return inner_->size(); }

 private:
  std::unique_ptr<db::VfsFile> inner_;
  std::shared_ptr<SyncGate> gate_;
};

/// The real filesystem, with every append-mode file's fsync gated.
class GatedVfs : public db::Vfs {
 public:
  explicit GatedVfs(std::shared_ptr<SyncGate> gate) : gate_(std::move(gate)) {}
  std::unique_ptr<db::VfsFile> open_append(const std::string& path) override {
    return std::make_unique<GatedFile>(inner_->open_append(path), gate_);
  }
  std::unique_ptr<db::VfsFile> create_truncate(
      const std::string& path) override {
    return inner_->create_truncate(path);
  }
  std::optional<std::string> read_file(const std::string& path) override {
    return inner_->read_file(path);
  }
  void rename(const std::string& from, const std::string& to) override {
    inner_->rename(from, to);
  }
  void dir_sync(const std::string& dir) override { inner_->dir_sync(dir); }

 private:
  std::shared_ptr<db::Vfs> inner_ = db::Vfs::posix();
  std::shared_ptr<SyncGate> gate_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Batch formation and acknowledgement

TEST(GroupCommit, ConcurrentAutocommitsShareBatches) {
  TempDir dir("batching");
  db::Engine engine(grouped_options(dir));

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOps = 20;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      for (std::size_t op = 0; op < kOps; ++op) {
        const std::string name =
            "obj-" + std::to_string(t) + "-" + std::to_string(op);
        const std::uint64_t revision = engine.put(name, "model", "v");
        EXPECT_EQ(revision, 1u);  // distinct names: first revision each
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.commits, kThreads * kOps);
  // Every commit went through the group path...
  EXPECT_EQ(stats.group_batched_txns, kThreads * kOps);
  EXPECT_GE(stats.group_batches, 1u);
  // ...and the whole point: fewer fsync barriers than commits.
  EXPECT_LE(stats.group_batches, stats.commits);
  EXPECT_GE(stats.group_max_batch, 1u);
  EXPECT_EQ(engine.size(), kThreads * kOps);
}

TEST(GroupCommit, SingleCommitterStillAcksAfterWindow) {
  TempDir dir("single");
  db::Engine engine(grouped_options(dir, std::chrono::milliseconds(1)));
  EXPECT_EQ(engine.put("alone", "model", "v1"), 1u);
  EXPECT_EQ(engine.put("alone", "model", "v2", 1), 2u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.group_batched_txns, 2u);
  EXPECT_EQ(stats.group_batches, 2u);  // nobody to share with
}

TEST(GroupCommit, ZeroWindowMakesEveryCommitABatchOfOne) {
  TempDir dir("window_zero");
  db::Engine engine(grouped_options(dir, std::chrono::microseconds(0)));

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOps = 20;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      for (std::size_t op = 0; op < kOps; ++op)
        engine.put("obj-" + std::to_string(t) + "-" + std::to_string(op),
                   "model", "v");
    });
  }
  for (auto& thread : threads) thread.join();

  // Concurrent committers never share a fsync at window 0: the leader
  // seals its batch before it can drop the mutex.
  const auto stats = engine.stats();
  EXPECT_EQ(stats.commits, kThreads * kOps);
  EXPECT_EQ(stats.group_batches, stats.commits);
  EXPECT_EQ(stats.group_batched_txns, stats.commits);
  EXPECT_EQ(stats.group_max_batch, 1u);
  EXPECT_EQ(engine.size(), kThreads * kOps);
}

TEST(GroupCommit, ZeroWindowReadsProceedDuringCommitFsync) {
  TempDir dir("window_zero_reads");
  auto gate = std::make_shared<SyncGate>();
  db::EngineOptions options =
      grouped_options(dir, std::chrono::microseconds(0));
  options.vfs = std::make_shared<GatedVfs>(gate);
  db::Engine engine(options);
  engine.put("seed", "model", "durable");

  {
    std::lock_guard lock(gate->mutex);
    gate->armed = true;
  }
  std::thread writer([&engine] {
    EXPECT_EQ(engine.put("parked", "model", "in-flight"), 1u);
  });
  if (!gate->wait_parked(std::chrono::seconds(10))) {
    gate->release();
    writer.join();
    FAIL() << "the commit never reached its fsync";
  }

  // The commit is parked inside its fsync.  Reads must not queue behind
  // it, and they see only acked state.
  auto reader = std::async(std::launch::async, [&engine] {
    db::QueryFilter filter;
    filter.kind = "model";
    const auto rows = engine.query(filter).rows;
    return engine.get("seed").has_value() && !engine.contains("parked") &&
           rows.size() == 1 && rows[0].name == "seed";
  });
  const bool returned = reader.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  gate->release();
  writer.join();
  ASSERT_TRUE(returned) << "a read waited for another commit's fsync";
  EXPECT_TRUE(reader.get());
  EXPECT_EQ(engine.get("parked").value().value, "in-flight");
}

TEST(GroupCommit, RecoverySeesAllAckedBatchedCommits) {
  TempDir dir("recovery");
  {
    db::Engine engine(grouped_options(dir));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&engine, t] {
        for (std::size_t op = 0; op < 10; ++op)
          engine.put("obj-" + std::to_string(t) + "-" + std::to_string(op),
                     "model", "payload-" + std::to_string(op));
      });
    }
    for (auto& thread : threads) thread.join();
  }
  db::EngineOptions reopened;
  reopened.directory = dir.str();
  db::Engine engine(reopened);
  EXPECT_EQ(engine.size(), 40u);
  EXPECT_EQ(engine.get("obj-3-9").value().value, "payload-9");
}

// ---------------------------------------------------------------------------
// Pending heads: validation must see appended-but-unsynced batches

TEST(GroupCommit, ConflictsValidateAgainstPendingHeads) {
  TempDir dir("pending");
  // A long window parks the first committer's batch in flight.
  db::Engine engine(grouped_options(dir, std::chrono::milliseconds(200)));

  std::thread first([&engine] {
    EXPECT_EQ(engine.put("contested", "model", "first", 0), 1u);
  });
  // Deterministic rendezvous: the head is claimed the moment the member's
  // frames are appended, observable through EngineState::pending_heads.
  while (engine.state().pending_heads == 0)
    std::this_thread::yield();

  // A CAS against the pending revision chains onto it, in the same batch.
  const std::uint64_t records = engine.stats().wal_records;
  std::thread chained([&engine] {
    EXPECT_EQ(engine.put("contested", "model", "second", 1), 2u);
  });
  while (engine.stats().wal_records < records + 3)  // begin, put, commit
    std::this_thread::yield();

  // The batch has not fsynced yet, but `expected = 0 (must not exist)`
  // must already fail — otherwise two creators could both ack.  The
  // conflict is raised only once the writes it lost to are readable, so
  // a caller that re-reads before retrying sees the winner.
  EXPECT_THROW(engine.put("contested", "model", "third", 0),
               db::ConflictError);
  EXPECT_EQ(engine.revision_of("contested"), 2u);
  first.join();
  chained.join();

  EXPECT_EQ(engine.stats().conflicts, 1u);
  EXPECT_EQ(engine.get("contested").value().value, "second");
  EXPECT_EQ(engine.state().pending_heads, 0u);  // all applied
}

// ---------------------------------------------------------------------------
// Fault injection: a failed batch fsync fails every member cleanly

TEST(GroupCommit, BatchFsyncFailureFailsEveryMemberAndDegrades) {
  TempDir dir("fsync_fail");
  auto vfs = std::make_shared<db::FaultVfs>();
  db::EngineOptions options =
      grouped_options(dir, std::chrono::milliseconds(100));
  options.vfs = vfs;
  db::Engine engine(options);

  engine.put("durable", "model", "before");  // a healthy baseline commit
  // Fail the NEXT fsync, whichever batch issues it.
  db::IoFaultPlan plan;
  plan.fail(db::IoOp::Fsync, vfs->counts().fsync);
  vfs->set_plan(plan);

  constexpr std::size_t kMembers = 4;
  std::atomic<std::size_t> io_errors{0};
  std::atomic<std::size_t> degraded_rejects{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kMembers; ++t) {
    threads.emplace_back([&engine, &io_errors, &degraded_rejects, t] {
      try {
        engine.put("member-" + std::to_string(t), "model", "doomed");
      } catch (const db::IoError& error) {
        EXPECT_EQ(error.op(), db::IoOp::Fsync);
        io_errors += 1;
      } catch (const db::DegradedError&) {
        // A member arriving after the batch already failed is turned away
        // at the door instead — still a clean, unacked failure.
        degraded_rejects += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every member of the failed batch (and any batch queued behind it)
  // got a clean error — no silent ack, no hang — and the shared fsync
  // failure reached at least the batch that issued it.
  EXPECT_EQ(io_errors.load() + degraded_rejects.load(), kMembers);
  EXPECT_GE(io_errors.load(), 1u);
  // The fsync gate held: an unsynced commit may never be acked, so the
  // engine goes read-only (sticky degraded) instead of carrying on.
  EXPECT_TRUE(engine.degraded());
  EXPECT_THROW(engine.put("after", "model", "rejected"), db::DegradedError);
  // Reads stay live in degraded mode, and no doomed member is visible.
  EXPECT_EQ(engine.get("durable").value().value, "before");
  for (std::size_t t = 0; t < kMembers; ++t)
    EXPECT_FALSE(engine.contains("member-" + std::to_string(t)));

  // recover() replays the durable image: exactly the acked commits.
  engine.recover();
  EXPECT_FALSE(engine.degraded());
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine.put("after", "model", "accepted"), 1u);
}

TEST(GroupCommit, AppendFailureRollsBackOnlyThatMember) {
  TempDir dir("append_fail");
  auto vfs = std::make_shared<db::FaultVfs>();
  db::EngineOptions options =
      grouped_options(dir, std::chrono::milliseconds(1));
  options.vfs = vfs;
  db::Engine engine(options);

  engine.put("keep", "model", "v1");
  db::IoFaultPlan plan;
  plan.fail(db::IoOp::Write, vfs->counts().write);
  vfs->set_plan(plan);

  // The torn append is sheared off before the batch ever forms: the
  // failing transaction throws, the engine stays writable.
  EXPECT_THROW(engine.put("torn", "model", "gone"), db::IoError);
  EXPECT_FALSE(engine.degraded());
  EXPECT_FALSE(engine.contains("torn"));
  EXPECT_EQ(engine.put("keep", "model", "v2", 1), 2u);

  // And the log is still perfectly replayable.
  db::EngineOptions reopened;
  reopened.directory = dir.str();
  reopened.vfs = std::make_shared<db::FaultVfs>();
  db::Engine recovered(reopened);
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.get("keep").value().value, "v2");
}

TEST(GroupCommit, CrashToDurableKeepsExactlyAckedCommits) {
  TempDir dir("crash_durable");
  auto vfs = std::make_shared<db::FaultVfs>();
  std::map<std::string, std::uint64_t> acked;
  std::mutex acked_mutex;
  {
    db::EngineOptions options = grouped_options(dir);
    options.vfs = vfs;
    db::Engine engine(options);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t op = 0; op < 8; ++op) {
          const std::string name =
              "n-" + std::to_string(t) + "-" + std::to_string(op);
          const std::uint64_t revision = engine.put(name, "model", "v");
          std::lock_guard lock(acked_mutex);
          acked[name] = revision;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  // Power loss: only what an honest fsync covered survives.  Every ack
  // above came AFTER its batch's fsync, so nothing may go missing.
  vfs->crash_to_durable();

  db::EngineOptions reopened;
  reopened.directory = dir.str();
  db::Engine engine(reopened);
  EXPECT_EQ(engine.size(), acked.size());
  for (const auto& [name, revision] : acked)
    EXPECT_EQ(engine.revision_of(name), revision) << name;
}

// ---------------------------------------------------------------------------
// The crash-point sweep over a batched log: cut the WAL at EVERY byte
// boundary (frame boundaries of multi-transaction batches included) and
// require that recovery yields a state where each object sits at some
// prefix of its acked revisions, with exactly the acked payload for
// whatever revision survived, and multi-write transactions are atomic.

TEST(GroupCommit, CrashPointSweepAcrossBatchedFrames) {
  TempDir dir("sweep");
  // value each (name, revision) was acked with, for phantom detection.
  std::map<std::pair<std::string, std::uint64_t>, std::string> acked;
  std::mutex acked_mutex;
  // multi-write transactions: (name-a, rev-a, name-b, rev-b) atomic pairs.
  std::vector<std::array<std::uint64_t, 2>> pair_revisions;
  const std::vector<std::string> pair_names = {"atomic-a", "atomic-b"};

  db::EngineOptions options = grouped_options(dir);
  std::map<std::string, std::uint64_t> final_revisions;
  {
    db::Engine engine(options);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t op = 0; op < 6; ++op) {
          const std::string name = "s-" + std::to_string(t);
          const std::string value =
              "t" + std::to_string(t) + "-op" + std::to_string(op);
          const std::uint64_t revision =
              engine.put(name, "model", value);
          std::lock_guard lock(acked_mutex);
          acked[{name, revision}] = value;
        }
      });
    }
    // Interleave multi-write transactions so their frames land inside
    // batches shared with the autocommitters.
    for (std::size_t round = 0; round < 4; ++round) {
      const std::uint64_t txn = engine.begin();
      engine.put(txn, pair_names[0], "model", "pair-" + std::to_string(round));
      engine.put(txn, pair_names[1], "model", "pair-" + std::to_string(round));
      engine.commit(txn);
      std::array<std::uint64_t, 2> revisions{};
      for (std::size_t i = 0; i < 2; ++i) {
        revisions[i] = engine.revision_of(pair_names[i]);
        std::lock_guard lock(acked_mutex);
        acked[{pair_names[i], revisions[i]}] = "pair-" + std::to_string(round);
      }
      pair_revisions.push_back(revisions);
    }
    for (auto& thread : threads) thread.join();
    for (const auto& entry : engine.list())
      final_revisions[entry.name] = entry.revision;
    const auto stats = engine.stats();
    ASSERT_EQ(stats.group_batched_txns, stats.commits);
  }

  const std::string log = read_file(dir.path / "wal.f2db");
  ASSERT_GT(log.size(), 0u);

  TempDir scratch("sweep_cut");
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    const fs::path crash_dir = scratch.path / std::to_string(cut);
    fs::create_directories(crash_dir);
    write_file(crash_dir / "wal.f2db", std::string_view(log).substr(0, cut));

    db::EngineOptions crash_options;
    crash_options.directory = crash_dir.string();
    db::Engine recovered(crash_options);  // recovery must never fail

    for (const auto& entry : recovered.list()) {
      // Prefix property: a recovered revision never exceeds what was
      // acked, and carries exactly the payload acked at that revision.
      const auto final_it = final_revisions.find(entry.name);
      ASSERT_NE(final_it, final_revisions.end())
          << "phantom object '" << entry.name << "' at cut " << cut;
      ASSERT_LE(entry.revision, final_it->second) << "cut " << cut;
      const auto acked_it = acked.find({entry.name, entry.revision});
      ASSERT_NE(acked_it, acked.end())
          << "unacked revision " << entry.revision << " of '" << entry.name
          << "' at cut " << cut;
      ASSERT_EQ(recovered.get(entry.name).value().value, acked_it->second)
          << "cut " << cut;
    }
    // Atomicity: both writes of a committed pair transaction become
    // visible together — a cut can never show one without the other.
    for (const auto& revisions : pair_revisions) {
      const bool a_visible =
          recovered.revision_of(pair_names[0]) >= revisions[0];
      const bool b_visible =
          recovered.revision_of(pair_names[1]) >= revisions[1];
      ASSERT_EQ(a_visible, b_visible)
          << "torn pair transaction at cut " << cut;
    }
    // The full log recovers to exactly the final acked state.
    if (cut == log.size()) {
      ASSERT_EQ(recovered.list().size(), final_revisions.size());
      for (const auto& [name, revision] : final_revisions)
        ASSERT_EQ(recovered.revision_of(name), revision) << name;
    }
    fs::remove_all(crash_dir);
  }
}

// ---------------------------------------------------------------------------
// Maintenance under load: checkpoint/recover drain in-flight batches

TEST(GroupCommit, CheckpointDrainsInFlightBatches) {
  TempDir dir("checkpoint");
  db::Engine engine(grouped_options(dir, std::chrono::milliseconds(2)));

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 3; ++t) {
    writers.emplace_back([&engine, &stop, t] {
      for (std::size_t op = 0; !stop.load(); ++op)
        engine.put("w-" + std::to_string(t), "model", std::to_string(op));
    });
  }
  for (int i = 0; i < 5; ++i) engine.checkpoint();
  stop.store(true);
  for (auto& writer : writers) writer.join();
  engine.checkpoint();

  // Nothing wedged, and a fresh engine agrees with the live one.
  const auto live = engine.list();
  db::EngineOptions reopened;
  reopened.directory = dir.str();
  db::Engine recovered(reopened);
  ASSERT_EQ(recovered.list().size(), live.size());
  for (const auto& entry : live)
    EXPECT_EQ(recovered.revision_of(entry.name), entry.revision);
}
