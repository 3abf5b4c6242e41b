// Result collection for the FEM-2 benchmark (fem2_perfbench): samples with
// the percentile rule, the metric table a run prints, the host
// fingerprint, and the process-level measurements (peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A bag of measurements (milliseconds or any other unit).
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  /// The quantile, or 0 unless at least `min_beyond` samples lie above
  /// it (a percentile is reported only when the tail holds ten samples).
  double reported_quantile(double q, std::size_t min_beyond = 10) const;
  double median() const { return quantile(0.5); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Named metric values plus the operation tallies of one run.
struct Report {
  std::map<std::string, double> metrics;
  /// Unnormalized host times and the speed factor (context only).
  std::map<std::string, double> raw;
  /// Per-unit series behind the medians (context only).
  std::map<std::string, std::vector<double>> series;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that did not hold (each also counts one failure).
  std::vector<std::string> problems;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Record one attempted operation and whether it succeeded.
  void tally(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Record a failed output check with its explanation.
  void fail(std::string why);
};

/// Host and build description recorded with every result.
struct Fingerprint {
  std::string cpu;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
  std::string db_filesystem;  ///< empty for workloads without a store
  unsigned client_threads = 0;
  unsigned server_workers = 0;
  unsigned host_engine_threads = 0;
};

Fingerprint host_fingerprint();
/// Filesystem type of the directory holding `path` (statfs magic).
std::string filesystem_of(const std::string& path);
/// Peak resident set of this process, in MiB.
double peak_rss_mib();

/// Render a JSON number with every significant digit.
std::string json_number(double v);
std::string json_string(const std::string& s);

/// The result object: {"correct", "attempted", "failed", "metrics"}, with
/// one entry per catalogue metric (0 when the run did not set it).
std::string result_json(const Report& report, bool correct,
                        const std::vector<MetricSpec>& catalogue);
/// Everything else a result needs to be reproduced: workload, seed,
/// fingerprint, problems.
std::string context_json(const std::string& workload, std::uint64_t seed,
                         bool trace, const Fingerprint& fp,
                         const Report& report);

}  // namespace perfbench
