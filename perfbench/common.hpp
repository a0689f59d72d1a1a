#pragma once
/// \file common.hpp
/// Shared plumbing of the end-to-end benchmark runner: run options, the
/// metric table every workload fills, sample statistics and the process
/// probes (CPU time, peak RSS) the end-to-end metrics read.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// One invocation: `--workload NAME --seed N --seconds S --trace 0|1`.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Built `spmap_cli` (the serve_open daemon).
  std::string cli_path;
  /// Output directory inside the checkout (daemon socket, trace files).
  std::string work_dir;
};

/// What one workload run produced. `metrics` holds every metric the mode
/// reports (end-to-end without tracing, per-layer with it), keyed by name.
struct WorkloadResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;
  /// Why `correct` is false (printed to stderr).
  std::vector<std::string> problems;
  /// Free-form detail kept in the result document (not in the last line).
  spmap::Json detail = spmap::Json::object();

  /// Records a failed correctness check.
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// One declared metric: name and unit, in BENCHMARK.json order.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (printed with `--trace 0`, every workload).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics (printed with `--trace 1`, every workload; layers a
/// workload does not exercise read 0).
const std::vector<MetricSpec>& per_layer_metrics();

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The paper's quality metric for one job: the positive relative makespan
/// improvement over the all-CPU baseline (a deterioration counts as 0).
inline double improvement_of(double makespan, double baseline) {
  return baseline > 0.0 && makespan < baseline
             ? (baseline - makespan) / baseline
             : 0.0;
}

/// Timings of one job of a batch pass.
struct JobTimes {
  double latency_s = 0.0;     ///< submit -> result
  double cpu_s = 0.0;         ///< process CPU over the same interval
  double queue_wait_s = 0.0;  ///< submit -> the service's on_start hook
};

/// CPU seconds (user + system) consumed by this process so far.
double process_cpu_seconds();
/// CPU seconds (user + system) consumed by process `pid` so far, from
/// /proc/<pid>/stat (clock-tick resolution).
double pid_cpu_seconds(int pid);
/// Peak resident set of `pid` (0 = self) in MiB, from /proc/<pid>/status.
double peak_rss_mb(int pid = 0);
/// Resets this process's peak-RSS watermark (Linux clear_refs), so a
/// workload run after another one reports its own peak.
void reset_peak_rss();

/// Monotonic seconds since an arbitrary fixed origin (shared by the tracer
/// and the open-loop schedule).
double now_seconds();

/// The workloads. Each fills `result` for the mode in `options`.
void run_paper_fig4(const RunOptions& options, WorkloadResult& result);
void run_refine_wide(const RunOptions& options, WorkloadResult& result);
void run_serve_open(const RunOptions& options, WorkloadResult& result);

}  // namespace perfbench
