// Server workload serve_analyze: a closed loop of 4 sessions (2 tenants x
// 2 sessions), one client thread per session, each sending its next command
// only when the previous one answered, against one serve::Server (4
// workers) over a persistent db::Engine (fsync on commit, 200 us
// group-commit window).  Per round: mesh plate (32x8; 16x4 for sor), solve
// (rotating over cg, pcg, skyline and sor), stresses, show peak, retrieve of
// another session's model, query kind=model limit=8 and history; every 4th
// round also stores its results.
//
// The measured phase is a fixed number of passes, sized from --seconds; in
// a pass every session runs a fixed number of rounds, and the run reports
// medians over passes.  Pass times are normalized (calibrate.hpp) by four
// calibration kernels side by side, as a pass spreads over four client and
// four worker threads.  The traced run alternates untraced and traced
// passes; traced passes record client spans, count storage operations
// through a TimingVfs and time the engine's snapshot query path directly.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <malloc.h>
#include <unistd.h>

#include "appvm/command.hpp"
#include "db/engine.hpp"
#include "db/query.hpp"
#include "serve/server.hpp"
#include "calibrate.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fem2;
namespace stdfs = std::filesystem;

constexpr unsigned kSessions = 4;
/// Results names per session.  Each results object is ~35 KB and the store
/// keeps 8 versions of each name, so a small pool bounds the live state
/// (~9 MB) and with it the snapshot images and peak RSS.
constexpr std::size_t kResultsPool = 8;
constexpr std::size_t kKeptProblems = 20;
/// Revisions of each base-<i> model in the seeded base store.
constexpr std::uint64_t kBaseRevisions = 4;
constexpr std::size_t kKeptSpans = 1u << 14;  ///< per client and pass
const char* const kTenants[] = {"tenant-a", "tenant-b"};
const char* const kSolvers[] = {"cg", "pcg", "skyline", "sor"};
constexpr const char* kVerbs[] = {"store_results", "retrieve", "mesh",
                                  "solve",         "stresses", "show",
                                  "query",         "history"};
/// Rounds each session runs in one pass: a pass holds over a thousand
/// commands, so each pass has its own p99.
constexpr int kRoundsPerPass = 36;
/// Passes per second of --seconds, on the reference host (4-core Xeon).
constexpr double kPassesPerSecond = 4.0;
constexpr unsigned kWorkers = 4;  ///< server pool width

std::string verb_of(const std::string& line) {
  if (line.starts_with("store results")) return "store_results";
  return line.substr(0, line.find(' '));
}

/// The number right after `marker` in a response ("... rev N ...",
/// "... in N iterations"); nullopt when the marker or the number is missing.
std::optional<std::uint64_t> number_after(const std::string& text,
                                          const std::string& marker) {
  const auto at = text.find(marker);
  if (at == std::string::npos) return std::nullopt;
  const char* first = text.data() + at + marker.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(first, text.data() + text.size(), value);
  if (ec != std::errc{} || ptr == first) return std::nullopt;
  return value;
}

/// What one client thread saw during one pass.
struct ClientLog {
  std::map<std::string, Samples> verb_ms;
  Samples all_ms, write_ms;
  std::map<std::string, Samples> solve_ms, solve_iters;
  Samples query_us;  ///< direct snapshot-path queries (traced passes)
  struct CallSpan {
    unsigned session = 0;
    std::string verb;
    Clock::time_point start, end;
  };
  std::vector<CallSpan> spans;  ///< client spans (traced passes)
  std::uint64_t commands = 0;
  std::uint64_t operations = 0;  ///< commands plus client-side checks
  std::uint64_t failures = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::uint64_t> writes;  ///< acked writes per name

  /// Count one operation; on failure record why (built only then).
  template <typename Why>
  void check(bool ok, Why&& why) {
    ++operations;
    if (ok) return;
    ++failures;
    if (problems.size() < kKeptProblems) problems.push_back(why());
  }

  void merge(const ClientLog& other) {
    for (const auto& [v, s] : other.verb_ms) verb_ms[v].append(s);
    all_ms.append(other.all_ms);
    write_ms.append(other.write_ms);
    for (const auto& [v, s] : other.solve_ms) solve_ms[v].append(s);
    for (const auto& [v, s] : other.solve_iters) solve_iters[v].append(s);
    query_us.append(other.query_us);
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
    commands += other.commands;
    operations += other.operations;
    failures += other.failures;
    problems.insert(problems.end(), other.problems.begin(),
                    other.problems.end());
    for (const auto& [n, w] : other.writes) writes[n] += w;
  }
};

/// One session's client: its command stream and its own-write ledger.
class Client {
 public:
  Client(serve::Server& server, std::uint64_t session, unsigned index)
      : server_(server), session_(session), index_(index) {}

  void run_pass(int rounds, std::uint64_t seed, bool traced, ClientLog& log) {
    support::Rng rng(seed);
    log_ = &log;
    traced_ = traced;
    for (int r = 0; r < rounds; ++r) {
      round(rng);
      ++round_;
    }
  }

  const std::map<std::string, std::uint64_t>& acked() const { return acked_; }

 private:
  std::string name(const char* prefix, std::uint64_t k) const {
    return std::string(prefix) + "-" + std::to_string(index_) + "-" +
           std::to_string(k);
  }

  appvm::Response call(const std::string& line) {
    const auto t0 = Clock::now();
    appvm::Response r = server_.call(session_, line);
    const auto t1 = Clock::now();
    const double ms = seconds_between(t0, t1) * 1e3;
    const std::string verb = verb_of(line);
    if (traced_ && log_->spans.size() < kKeptSpans)
      log_->spans.push_back({index_, verb, t0, t1});
    log_->verb_ms[verb].add(ms);
    log_->all_ms.add(ms);
    if (verb == "store_results") log_->write_ms.add(ms);
    ++log_->commands;
    log_->check(r.ok, [&] { return "'" + line + "' failed: " + r.text; });
    last_ms_ = ms;
    return r;
  }

  /// A committed write to one of this session's private names.
  void acked_write(const std::string& name,
                   std::optional<std::uint64_t> reported) {
    const std::uint64_t expected = acked_[name] + 1;
    acked_[name] = expected;
    ++log_->writes[name];
    log_->check(reported == expected, [&] {
      return "store of '" + name + "' acked rev " +
             (reported ? std::to_string(*reported) : "?") + ", expected " +
             std::to_string(expected);
    });
  }

  void check_retrieve(const appvm::Response& r, const std::string& name,
                      std::uint64_t expected) {
    if (!r.ok) return;
    const auto rev = number_after(r.text, " rev ");
    log_->check(rev && *rev == expected, [&] {
      return "retrieve of '" + name + "' saw " + r.text + ", expected rev " +
             std::to_string(expected);
    });
  }

  void round(support::Rng& rng) {
    // sor needs ~18k sweeps on the 32x8 plate (0.4 s, 50x a cg solve);
    // its rounds mesh 16x4 instead so it takes a share of the mix without
    // swamping it.
    const char* solver = kSolvers[(round_ + index_) % 4];
    const bool sor = std::string_view(solver) == "sor";
    std::ostringstream mesh;
    mesh << "mesh plate nx=" << (sor ? 16 : 32) << " ny=" << (sor ? 4 : 8)
         << " load=" << rng.uniform(500.0, 2'000.0);
    call(mesh.str());
    const auto solved =
        call(std::string("solve tip-shear using ") + solver);
    if (solved.ok) {
      // Direct solvers report no iteration count.
      log_->solve_ms[solver].add(last_ms_);
      log_->solve_iters[solver].add(static_cast<double>(
          number_after(solved.text, " in ").value_or(0)));
    }
    call("stresses");
    call("show peak");
    if (round_ % 4 == index_ % 4) {
      const std::string results = name("r", rng.next_below(kResultsPool));
      const auto stored = call("store results " + results);
      if (stored.ok) acked_write(results, number_after(stored.text, " rev "));
    }
    const unsigned other =
        (index_ + 1 + static_cast<unsigned>(rng.next_below(kSessions - 1))) %
        kSessions;
    const std::string base = "base-" + std::to_string(other);
    check_retrieve(call("retrieve " + base), base, kBaseRevisions);
    call("query kind=model limit=8");
    call("history " + base);
    if (traced_) {
      db::QueryFilter filter;
      filter.kind = "model";
      filter.limit = 8;
      const auto t0 = Clock::now();
      (void)server_.query(filter);
      log_->query_us.add(seconds_between(t0, Clock::now()) * 1e6);
    }
  }

  serve::Server& server_;
  std::uint64_t session_;
  unsigned index_;
  ClientLog* log_ = nullptr;
  bool traced_ = false;
  double last_ms_ = 0.0;
  std::uint64_t round_ = 0;
  std::map<std::string, std::uint64_t> acked_;
};

std::string base_mesh(unsigned index) {
  return "mesh plate nx=32 ny=8 load=" + std::to_string(1'000 + 100 * index);
}

/// Seed the base store: one 32x8 model per session, each rewritten a few
/// times so recovery replays a log.
void seed_base_store(const std::string& dir) {
  db::EngineOptions options;
  options.directory = dir;
  appvm::Database database(options);
  appvm::Session session(database, "seeder");
  for (unsigned i = 0; i < kSessions; ++i) {
    for (std::uint64_t rev = 0; rev < kBaseRevisions; ++rev) {
      if (!session.execute(base_mesh(i)).ok ||
          !session.execute("store base-" + std::to_string(i)).ok)
        throw std::runtime_error("seeding the base store failed");
    }
  }
}

/// A running server over a fresh copy of the base store.
struct Deployment {
  std::shared_ptr<TimingVfs> vfs;
  std::shared_ptr<db::Engine> engine;
  std::unique_ptr<serve::Server> server;
  std::vector<std::uint64_t> sessions;
  double recovery_ms = 0.0;
  double setup_s = 0.0;

  Deployment(const std::string& dir, bool traced) {
    const auto t0 = Clock::now();
    db::EngineOptions options;
    options.directory = dir;
    options.group_commit_window = std::chrono::microseconds(200);
    if (traced) {
      vfs = std::make_shared<TimingVfs>(db::Vfs::posix());
      vfs->set_recording(false);
      options.vfs = vfs;
    }
    engine = std::make_shared<db::Engine>(options);
    recovery_ms = seconds_between(t0, Clock::now()) * 1e3;
    serve::ServerOptions server_options;
    server_options.workers = kWorkers;
    server_options.default_quota.max_sessions = 2 * kSessions;
    server_options.default_quota.max_inflight = 4 * kSessions;
    server_options.default_quota.ops_per_second = 0.0;  // no rate limit
    server = std::make_unique<serve::Server>(engine, server_options);
    for (unsigned i = 0; i < kSessions; ++i) {
      const auto opened = server->open_session(kTenants[i % 2],
                                               "engineer-" + std::to_string(i));
      if (opened.session == 0)
        throw std::runtime_error("open_session rejected: " +
                                 opened.response.text);
      sessions.push_back(opened.session);
      const auto meshed = server->call(opened.session, base_mesh(i));
      if (!meshed.ok) throw std::runtime_error("mesh failed: " + meshed.text);
    }
    setup_s = seconds_between(t0, Clock::now());
  }

  void shutdown() {
    for (auto id : sessions) server->close_session(id);
    server.reset();
    engine.reset();
  }
};

void copy_store(const std::string& from, const std::string& to) {
  stdfs::remove_all(to);
  stdfs::copy(from, to, stdfs::copy_options::recursive);
}

}  // namespace

void run_serve(const RunArgs& args, Report& report, Fingerprint& fp) {
  // A fixed mmap threshold: large buffers (snapshot images) go back to the
  // OS when freed, so peak RSS follows live memory rather than which worker
  // thread's malloc arena last held a snapshot.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::string root =
      args.work_dir + "/" + args.workload + "-" + std::to_string(::getpid());
  stdfs::remove_all(root);
  stdfs::create_directories(root);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      stdfs::remove_all(dir, ec);
    }
  } cleanup{root};

  const std::string base = root + "/base";
  seed_base_store(base);
  fp.db_filesystem = filesystem_of(root);
  fp.client_threads = kSessions;
  fp.server_workers = kWorkers;

  const std::string run_dir = root + "/run";
  copy_store(base, run_dir);
  Deployment live(run_dir, args.trace);

  // Set-up is timed on a spare deployment over its own copy of the base
  // store after every pass, so its median covers the whole run and not
  // the host's state in its first second.  Set-up times are raw: they are
  // mostly file-system calls, which the calibration kernel does not track
  // (normalizing them did not narrow their spread).
  Samples setup_s, recovery_ms;
  const auto time_setup = [&, spare_dir = root + "/spare"] {
    copy_store(base, spare_dir);
    Deployment spare(spare_dir, false);
    setup_s.add(spare.setup_s);
    recovery_ms.add(spare.recovery_ms);
    spare.shutdown();
  };

  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned i = 0; i < kSessions; ++i)
    clients.push_back(std::make_unique<Client>(
        *live.server, live.sessions[i], i));

  ClientLog untraced, traced;
  Samples pass_wall_s, pass_rate, traced_pass_wall_s, raw_wall_s, factors;
  SpeedTracker pass_speed(kSessions, report.series["calibration_parallel_ms"]);
  db::EngineStats traced_stats{};
  // A fixed amount of work: as many passes as take about --seconds on the
  // reference host.
  const auto passes = static_cast<std::uint64_t>(
      std::max(4L, std::lround(args.seconds * kPassesPerSecond)));
  // Pass 0 is an untimed warm-up (its commands are still checked).
  for (std::uint64_t pass = 0; pass <= passes; ++pass) {
    const bool warmup = pass == 0;
    const bool traced_pass = args.trace && !warmup && pass % 2 == 0;
    std::vector<ClientLog> logs(kSessions);
    if (traced_pass) live.vfs->set_recording(true);
    const auto before = live.engine->stats();
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (unsigned i = 0; i < kSessions; ++i) {
        const std::uint64_t seed =
            (args.seed * 1'000'003 + pass) * 131 + i;
        threads.emplace_back([&, i, seed] {
          clients[i]->run_pass(kRoundsPerPass, seed, traced_pass, logs[i]);
        });
      }
    }
    const double raw_wall = seconds_between(t0, Clock::now());
    const double f = pass_speed.next();
    time_setup();
    const double wall = raw_wall * f;
    const auto after = live.engine->stats();
    if (traced_pass) {
      live.vfs->set_recording(false);
      traced_pass_wall_s.add(wall);
      traced_stats.commits += after.commits - before.commits;
      traced_stats.checkpoints += after.checkpoints - before.checkpoints;
      traced_stats.group_batches += after.group_batches - before.group_batches;
      traced_stats.group_batched_txns +=
          after.group_batched_txns - before.group_batched_txns;
    }
    ClientLog& into = traced_pass ? traced : untraced;
    for (const auto& log : logs) into.merge(log);
    if (!traced_pass && !warmup) {
      std::uint64_t commands = 0;
      for (const auto& log : logs) commands += log.commands;
      pass_wall_s.add(wall);
      pass_rate.add(static_cast<double>(commands) / wall);
      raw_wall_s.add(raw_wall);
      factors.add(f);
      report.series["raw_wall_s"].push_back(raw_wall);
    }
  }
  report.raw["wall_s"] = raw_wall_s.median();
  report.raw["speed_factor"] = factors.median();

  // Every command and client-side check is an operation.
  for (const ClientLog* log : {&untraced, &traced}) {
    report.attempted += log->operations;
    report.failed += log->failures;
    for (const auto& p : log->problems) {
      if (report.problems.size() < kKeptProblems) report.problems.push_back(p);
    }
  }
  const auto server_stats = live.server->stats();
  const auto engine_stats = live.engine->stats();

  // Acked writes must all be present, at their acked revisions, after the
  // store is reopened from disk.
  std::map<std::string, std::uint64_t> acked;
  for (const auto& c : clients) acked.insert(c->acked().begin(), c->acked().end());
  std::map<std::string, std::uint64_t> head_bytes;
  live.shutdown();
  {
    db::EngineOptions options;
    options.directory = run_dir;
    db::Engine reopened(options);
    for (const auto& [name, rev] : acked) {
      const auto view = reopened.get(name);
      if (!view || view->revision != rev) {
        report.fail("after reopen '" + name + "' is at rev " +
                    std::to_string(view ? view->revision : 0) +
                    ", acked rev " + std::to_string(rev));
      } else {
        report.tally(true);
        head_bytes[name] = view->value.size();
      }
    }
  }

  if (!args.trace) {
    report.set("setup_s", setup_s.median());
    report.set("wall_s", pass_wall_s.median());
    report.set("ops_per_s", pass_rate.median());
    return;
  }

  report.set("lat_p50_ms", traced.all_ms.median());
  report.set("lat_p99_ms", traced.all_ms.reported_quantile(0.99));

  for (const char* verb : kVerbs) {
    const auto it = traced.verb_ms.find(verb);
    if (it == traced.verb_ms.end()) continue;
    report.set(std::string("serve.") + verb + ".p50_ms",
               it->second.median());
    report.set(std::string("serve.") + verb + ".p99_ms",
               it->second.reported_quantile(0.99));
  }
  report.set("write_p50_ms", traced.write_ms.median());
  report.set("write_p99_ms", traced.write_ms.reported_quantile(0.99));
  report.set("serve.peak_queue_depth",
             static_cast<double>(server_stats.peak_queue_depth));
  report.set("serve.rejected",
             static_cast<double>(server_stats.rejected_quota +
                                 server_stats.rejected_overload +
                                 server_stats.sessions_rejected));
  for (const char* solver : kSolvers) {
    const auto ms = traced.solve_ms.find(solver);
    if (ms != traced.solve_ms.end())
      report.set(std::string("la.solve_p50_ms.") + solver, ms->second.median());
    const auto iters = traced.solve_iters.find(solver);
    if (iters != traced.solve_iters.end())
      report.set(std::string("la.iters.") + solver, iters->second.median());
  }

  const VfsTally io = live.vfs ? live.vfs->tally() : VfsTally{};
  double user_bytes = 0.0;
  for (const auto& [name, count] : traced.writes) {
    const auto it = head_bytes.find(name);
    if (it != head_bytes.end())
      user_bytes += static_cast<double>(count) * static_cast<double>(it->second);
  }
  report.set("db.fsyncs_per_commit",
             traced_stats.commits
                 ? static_cast<double>(io.fsyncs) /
                       static_cast<double>(traced_stats.commits)
                 : 0.0);
  report.set("db.fsync_p50_ms", io.fsync_ms.median());
  report.set("db.fsync_p99_ms", io.fsync_ms.reported_quantile(0.99));
  report.set("db.txns_per_batch",
             traced_stats.group_batches
                 ? static_cast<double>(traced_stats.group_batched_txns) /
                       static_cast<double>(traced_stats.group_batches)
                 : 0.0);
  report.set("db.checkpoints", static_cast<double>(traced_stats.checkpoints));
  report.set("db.bytes_written_per_user_byte",
             user_bytes > 0 ? static_cast<double>(io.bytes_written) / user_bytes
                            : 0.0);
  report.set("db.snapshot_bytes", static_cast<double>(io.snapshot_bytes));
  report.set("db.query_us", traced.query_us.median());
  report.set("db.recovery_ms", recovery_ms.median());
  report.set("db.conflicts", static_cast<double>(engine_stats.conflicts));
  report.set("trace.overhead_s",
             traced_pass_wall_s.median() - pass_wall_s.median());

  std::ofstream out(args.work_dir + "/trace-" + args.workload + "-seed" +
                    std::to_string(args.seed) + ".jsonl");
  const auto origin = traced.spans.empty() ? Clock::time_point{}
                                           : traced.spans.front().start;
  for (const auto& span : traced.spans) {
    out << "{\"trace\": \"" << args.workload << "\", \"session\": "
        << span.session << ", \"kind\": \"call\", \"label\": \"" << span.verb
        << "\", \"start_ns\": "
        << std::chrono::nanoseconds(span.start - origin).count()
        << ", \"end_ns\": "
        << std::chrono::nanoseconds(span.end - origin).count() << "}\n";
  }
}

}  // namespace perfbench
