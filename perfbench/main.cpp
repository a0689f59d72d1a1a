/// perfbench_runner — the end-to-end benchmark of spmap.
///
///   perfbench_runner --workload paper_fig4|refine_wide|serve_open|all
///                    --seed N --seconds S --trace 0|1
///                    --cli PATH/spmap_cli --work-dir DIR
///
/// Runs one workload (or all three in turn) for about S seconds of timed
/// work, checks the outputs, and prints as its last stdout line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
/// line before it is the run's environment record. The full result
/// document (metrics, environment, per-workload detail) and the trace
/// spans are written under DIR. perfbench/README.md describes every
/// workload and metric; perfbench/run.py builds this binary and runs it.
///
/// Exit codes: 0 on a correct run, 1 when a correctness check failed or
/// the build is not a Release build, 2 on a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},        {"wall_s", "s"},
      {"cpu_s", "s"},          {"improvement_mean", "ratio"},
      {"job_p50_ms", "ms"},    {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"workflows.materialize_s", "s"},
      {"model.cost_model_build_s", "s"},
      {"sched.evaluator_build_s", "s"},
      {"sp.forest_build_s", "s"},
      {"sp.forest_cuts", "count"},
      {"sched.flat_evals", "count"},
      {"sched.flat_ns_per_eval", "ns"},
      {"sched.probe_ns", "ns"},
      {"sched.probe_fallback_share", "ratio"},
      {"sched.probe_replayed_mean", "count"},
      {"sched.full_eval_ns", "ns"},
      {"jobs.latency_p90_ms", "ms"},
      {"jobs.latency_p99_ms", "ms"},
      {"mappers.construct_s", "s"},
      {"mappers.search_s", "s"},
      {"mappers.search_s.heft", "s"},
      {"mappers.search_s.peft", "s"},
      {"mappers.search_s.sn", "s"},
      {"mappers.search_s.snff", "s"},
      {"mappers.search_s.sp", "s"},
      {"mappers.search_s.spff", "s"},
      {"mappers.search_s.hillclimb", "s"},
      {"mappers.search_s.anneal", "s"},
      {"mappers.search_s.tabu", "s"},
      {"mappers.iterations", "count"},
      {"mappers.evaluations", "count"},
      {"mappers.accept_ratio", "ratio"},
      {"bench.reporting_s", "s"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.job_run_ms", "ms"},
      {"serve.ack_p50_ms", "ms"},
      {"serve.mapper_p50_ms", "ms"},
      {"serve.overhead_p50_ms", "ms"},
      {"serve.hit_p50_ms", "ms"},
      {"serve.goodput_rps", "1/s"},
      {"serve.frames_per_request", "count"},
      {"serve.bytes_per_request", "bytes"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_inserts", "count"},
      {"serve.cache_evictions", "count"},
      {"bench.lateness_p99_ms", "ms"},
      {"bench.failed_frac", "ratio"},
      {"bench.trace_overhead_share", "ratio"},
      {"bench.trace_coverage", "ratio"},
  };
  return metrics;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double pid_cpu_seconds(int pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  spmap::require(close != std::string::npos, "cannot read /proc stat of pid");
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
  std::ifstream file(pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream file("/proc/self/clear_refs");
  file << "5";
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string cpu_model() {
  std::ifstream file("/proc/cpuinfo");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

spmap::Json environment(const RunOptions& options) {
  spmap::Json env = spmap::Json::object();
  env.set("hardware_threads",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
  env.set("cpu_model", cpu_model());
  env.set("compiler", PERFBENCH_COMPILER);
  env.set("build_type", PERFBENCH_BUILD_TYPE);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  env.set("commit", commit != nullptr ? commit : "unknown");
  env.set("workload", options.workload);
  env.set("seed", static_cast<std::size_t>(options.seed));
  env.set("seconds", options.seconds);
  env.set("trace", options.trace);
  return env;
}

int usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "paper_fig4|refine_wide|serve_open|all --seed N --seconds S "
               "--trace 0|1 --cli PATH --work-dir DIR\n",
               message.c_str());
  return 2;
}

/// Fills every declared metric of the mode (missing ones read 0) and
/// returns the last-line object.
spmap::Json result_line(const WorkloadResult& result, bool trace) {
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  spmap::Json metrics = spmap::Json::object();
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    double value = it != result.metrics.end() ? it->second : 0.0;
    if (!std::isfinite(value)) value = 0.0;
    spmap::Json entry = spmap::Json::object();
    entry.set("value", value);
    entry.set("unit", spec.unit);
    metrics.set(spec.name, std::move(entry));
  }
  spmap::Json line = spmap::Json::object();
  line.set("correct", result.correct);
  line.set("attempted", result.attempted);
  line.set("failed", result.failed);
  line.set("metrics", std::move(metrics));
  return line;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--cli") {
        options.cli_path = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty() || !have_trace || options.cli_path.empty() ||
      options.work_dir.empty() || !(options.seconds > 0.0)) {
    return usage("--workload, --trace, --cli and --work-dir are required");
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench_runner: refusing a %s build (need Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 1;
  }

  std::vector<std::string> workloads;
  if (options.workload == "all") {
    workloads = {"paper_fig4", "refine_wide", "serve_open"};
  } else {
    workloads = {options.workload};
  }

  const spmap::Json env = environment(options);
  spmap::Json document = spmap::Json::object();
  document.set("schema", "spmap-perfbench-result/1");
  document.set("environment", env);
  spmap::Json per_workload = spmap::Json::object();
  bool all_correct = true;
  std::string last_line;
  for (const std::string& name : workloads) {
    RunOptions run = options;
    run.workload = name;
    WorkloadResult result;
    reset_peak_rss();
    try {
      if (name == "paper_fig4") {
        run_paper_fig4(run, result);
      } else if (name == "refine_wide") {
        run_refine_wide(run, result);
      } else if (name == "serve_open") {
        run_serve_open(run, result);
      } else {
        return usage("unknown workload " + name);
      }
    } catch (const std::exception& ex) {
      result.fail(std::string("exception: ") + ex.what());
    }
    if (options.trace && result.correct &&
        !(result.metrics["bench.trace_coverage"] >= 0.9)) {
      result.fail("layer self times cover less than 90% of the traced wall");
    }
    for (const std::string& problem : result.problems) {
      std::fprintf(stderr, "[%s] CHECK FAILED: %s\n", name.c_str(),
                   problem.c_str());
    }
    all_correct = all_correct && result.correct;
    const spmap::Json line = result_line(result, options.trace);
    spmap::Json entry = spmap::Json::object();
    entry.set("result", line);
    entry.set("detail", result.detail);
    per_workload.set(name, std::move(entry));
    // Human-readable table on stderr: every metric with its unit.
    for (const auto& [metric, value] : line.at("metrics").as_object()) {
      std::fprintf(stderr, "[%s] %-32s %.6g %s\n", name.c_str(),
                   metric.c_str(), value.at("value").as_double(),
                   value.at("unit").as_string().c_str());
    }
    last_line = line.dump();
  }
  document.set("workloads", std::move(per_workload));
  const std::string out = options.work_dir + "/result-" + options.workload +
                          "-seed" + std::to_string(options.seed) + "-trace" +
                          (options.trace ? "1" : "0") + ".json";
  std::ofstream(out) << document.dump(2) << '\n';

  std::printf("%s\n", env.dump().c_str());
  if (workloads.size() > 1) {
    // Several workloads: one line each, then one combined line whose
    // metrics are keyed "<workload>/<metric>".
    spmap::Json combined = spmap::Json::object();
    std::size_t attempted = 0, failed = 0;
    spmap::Json metrics = spmap::Json::object();
    for (const auto& [name, entry] : document.at("workloads").as_object()) {
      const spmap::Json& line = entry.at("result");
      std::printf("%s %s\n", name.c_str(), line.dump().c_str());
      attempted += static_cast<std::size_t>(line.at("attempted").as_int());
      failed += static_cast<std::size_t>(line.at("failed").as_int());
      for (const auto& [metric, value] : line.at("metrics").as_object()) {
        metrics.set(name + "/" + metric, value);
      }
    }
    combined.set("correct", all_correct);
    combined.set("attempted", attempted);
    combined.set("failed", failed);
    combined.set("metrics", std::move(metrics));
    last_line = combined.dump();
  }
  std::printf("%s\n", last_line.c_str());
  std::fflush(stdout);
  return all_correct ? 0 : 1;
}
