// The benchmark's workloads and the metric catalogue they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< where stores, results and traces are written
};

/// End-to-end metrics (untraced runs) and per-layer metrics (traced
/// runs).  Every workload reports every metric of its mode; a per-layer
/// metric of a layer the workload does not use reads 0.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

bool is_sim_workload(const std::string& name);
bool is_serve_workload(const std::string& name);

/// Run one workload; fills metrics, tallies and the fingerprint fields the
/// workload knows.  Throws on a harness error (no result is printed then).
void run_sim(const RunArgs& args, Report& report, Fingerprint& fp);
void run_serve(const RunArgs& args, Report& report, Fingerprint& fp);

}  // namespace perfbench
