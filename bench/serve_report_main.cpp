/// serve_report — machine-readable serving benchmark of the spmap daemon.
///
/// Boots an in-process daemon (serve/daemon.hpp) on a private unix
/// socket, drives it with the load generator (serve/loadgen.hpp) in the
/// configurations below, and writes the results as JSON (default:
/// BENCH_serve.json) — the serving counterpart of BENCH_eval.json, so
/// every revision appends a comparable data point to the repository's
/// performance history.
///
/// Configurations:
///   closed loop, sessions ∈ {8, 32}  — capacity: throughput and
///     per-class latency with the daemon saturated, bit-identity
///     verification on
///   open loop, tiny queue            — overload: offered load far above
///     capacity against max_queued=4; measures the structured-rejection
///     path (shed low/normal traffic, p99 of what completed)
///   warm_cache_repeat                — result cache: one warm-up pass
///     populates the daemon's memo with K distinct identities, then a
///     repeat phase folds many requests onto the same K (`--distinct`);
///     reports the hit rate with bit-identity verification still on
///     (cached answers must equal recomputation exactly)
///
/// Flags:
///   --out=PATH    output file (default BENCH_serve.json)
///   --smoke       tiny request counts: a CI compile-and-run gate, not a
///                 measurement
///   --seed=N      deterministic request-stream seed (default 1)
///
/// JSON schema (`"schema": "spmap-bench-serve/1"`):
///   {
///     "schema": "spmap-bench-serve/1",
///     "smoke": false, "seed": 1,
///     "hardware_threads": ...,
///     "workers": ...,            // daemon worker threads
///     "results": [
///       {"name": "closed_loop", "sessions": S, "requests": R,
///        "wall_seconds": ..., "throughput_rps": ...,
///        "verified": R, "mismatches": 0,     // must stay 0
///        "classes": {"high": {"submitted": ..., "completed": ...,
///                             "rejected": ..., "p50_ms": ...,
///                             "p95_ms": ..., "p99_ms": ...,
///                             "mean_ms": ...}, ...}},
///       {"name": "open_loop_overload", "sessions": S, "rate_hz": ...,
///        "duration_s": ..., "max_queued": 4, ...same fields...,
///        "rejected": N},          // > 0: the shed path was exercised
///       {"name": "warm_cache_repeat", "distinct": K, ...same fields...,
///        "cache_hits": ..., "cache_misses": ..., "cache_none": ...,
///        "cache_hit_rate": ...}
///     ]
///   }

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "exit_codes.hpp"
#include "serve/daemon.hpp"
#include "serve/loadgen.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using namespace spmap;

/// An in-process daemon on a private unix socket; drains on destruction.
class LocalDaemon {
 public:
  explicit LocalDaemon(std::size_t workers, std::size_t max_queued) {
    DaemonOptions options;
    options.endpoint = Endpoint::parse(
        "unix:/tmp/spmap_bench_serve_" + std::to_string(::getpid()) + "_" +
        std::to_string(++instance_) + ".sock");
    options.workers = workers;
    options.max_queued = max_queued;
    daemon_ = std::make_unique<Daemon>(std::move(options));
    daemon_->bind();
    io_ = std::thread([this] { daemon_->run(); });
  }

  ~LocalDaemon() {
    daemon_->request_drain(0.0);
    io_.join();
  }

  const Endpoint& endpoint() const { return daemon_->endpoint(); }

 private:
  static int instance_;
  std::unique_ptr<Daemon> daemon_;
  std::thread io_;
};

int LocalDaemon::instance_ = 0;

/// Appends one result row built from a finished loadgen run.
void report_run(Json& results, const char* name, const LoadgenOptions& options,
                const LoadgenReport& report, std::size_t max_queued) {
  Json row = Json::object();
  row.set("name", name);
  row.set("sessions", report.sessions);
  row.set("mix", Json(options.mix));
  if (options.open_loop) {
    row.set("rate_hz", Json(options.rate_hz));
    row.set("duration_s", Json(options.duration_s));
    row.set("max_queued", max_queued);
  } else {
    row.set("requests", options.requests);
  }
  row.set("tasks", options.tasks);
  row.set("max_evals", options.max_evaluations);
  row.set("submitted", report.submitted);
  row.set("completed", report.completed);
  row.set("rejected", report.rejected);
  row.set("failed", report.failed);
  row.set("wall_seconds", report.wall_seconds);
  row.set("throughput_rps", report.throughput_rps);
  if (options.verify) {
    row.set("verified", report.verified);
    row.set("mismatches", report.mismatches);
  }
  if (options.distinct > 0) {
    row.set("distinct", options.distinct);
    row.set("cache_hits", report.cache_hits);
    row.set("cache_misses", report.cache_misses);
    row.set("cache_none", report.cache_none);
    row.set("cache_hit_rate",
            report.completed > 0
                ? static_cast<double>(report.cache_hits) /
                      static_cast<double>(report.completed)
                : 0.0);
  }
  Json classes = Json::object();
  for (const auto& [cls, stats] : report.classes) {
    Json entry = Json::object();
    entry.set("submitted", stats.submitted);
    entry.set("completed", stats.completed);
    entry.set("rejected", stats.rejected);
    entry.set("p50_ms", stats.p50_ms);
    entry.set("p95_ms", stats.p95_ms);
    entry.set("p99_ms", stats.p99_ms);
    entry.set("mean_ms", stats.mean_ms);
    classes.set(cls, std::move(entry));
  }
  row.set("classes", std::move(classes));
  results.push_back(std::move(row));

  std::printf("%-18s sessions=%-3zu completed=%-5zu rejected=%-5zu "
              "%.0f req/s  (verified=%zu mismatches=%zu)\n",
              name, report.sessions, report.completed, report.rejected,
              report.throughput_rps, report.verified, report.mismatches);
}

/// The report proper; main() maps exceptions to the exit-code contract.
int run(const Flags& flags) {
  const bool smoke = flags.get_bool("smoke", false);
  const std::string out_path = flags.get("out", "BENCH_serve.json");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::size_t workers = 2;

  Json results = Json::array();

  // ---- closed loop: capacity with bit-identity verification ----
  for (const std::size_t sessions : {std::size_t{8}, std::size_t{32}}) {
    LocalDaemon daemon(workers, /*max_queued=*/256);
    LoadgenOptions options;
    options.endpoint = daemon.endpoint();
    options.sessions = sessions;
    options.requests = smoke ? 2 * sessions : 16 * sessions;
    options.mix = "high=1,normal=2,low=1";
    options.tasks = 24;
    options.max_evaluations = 2000;
    options.seed = seed;
    options.verify = true;
    const LoadgenReport report = run_loadgen(options);
    report_run(results, "closed_loop", options, report, 256);
    if (report.failed > 0 || report.mismatches > 0) {
      std::fprintf(stderr,
                   "FATAL: closed loop sessions=%zu failed=%zu "
                   "mismatches=%zu\n",
                   sessions, report.failed, report.mismatches);
      return cli::kExitFailure;
    }
  }

  // ---- open loop: offered load far above a tiny queue ----
  {
    const std::size_t max_queued = 4;
    LocalDaemon daemon(workers, max_queued);
    LoadgenOptions options;
    options.endpoint = daemon.endpoint();
    options.sessions = smoke ? 4 : 16;
    options.open_loop = true;
    options.rate_hz = smoke ? 20.0 : 50.0;
    options.duration_s = smoke ? 0.25 : 2.0;
    options.mix = "high=1,normal=2,low=1";
    options.tasks = 48;
    options.max_evaluations = 20000;  // slow enough to pile up the queue
    options.seed = seed + 1;
    const LoadgenReport report = run_loadgen(options);
    report_run(results, "open_loop_overload", options, report, max_queued);
    if (report.failed > 0) {
      std::fprintf(stderr, "FATAL: open loop failed=%zu\n", report.failed);
      return cli::kExitFailure;
    }
  }

  // ---- warm cache: repeated identities answered from the result memo ----
  {
    const std::size_t distinct = 8;
    LocalDaemon daemon(workers, /*max_queued=*/256);
    // Warm-up: one session, exactly K requests, one per identity — every
    // one a miss that populates the memo.
    LoadgenOptions warmup;
    warmup.endpoint = daemon.endpoint();
    warmup.sessions = 1;
    warmup.requests = distinct;
    warmup.tasks = 24;
    warmup.max_evaluations = 2000;
    warmup.seed = seed + 2;
    warmup.distinct = distinct;
    const LoadgenReport warmed = run_loadgen(warmup);
    if (warmed.failed > 0) {
      std::fprintf(stderr, "FATAL: cache warm-up failed=%zu\n", warmed.failed);
      return cli::kExitFailure;
    }
    // Repeat phase: many sessions folding onto the same K identities; the
    // memo answers the repeats, and verify proves cached == recomputed.
    LoadgenOptions options;
    options.endpoint = daemon.endpoint();
    options.sessions = smoke ? 4 : 8;
    options.requests = smoke ? 4 * distinct : 16 * distinct;
    options.mix = "high=1,normal=2,low=1";
    options.tasks = 24;
    options.max_evaluations = 2000;
    options.seed = seed + 2;  // same stream as the warm-up
    options.distinct = distinct;
    options.verify = true;
    const LoadgenReport report = run_loadgen(options);
    report_run(results, "warm_cache_repeat", options, report, 256);
    if (report.failed > 0 || report.mismatches > 0) {
      std::fprintf(stderr,
                   "FATAL: warm cache repeat failed=%zu mismatches=%zu\n",
                   report.failed, report.mismatches);
      return cli::kExitFailure;
    }
    if (report.cache_hits == 0) {
      std::fprintf(stderr, "FATAL: warm cache repeat saw no cache hits\n");
      return cli::kExitFailure;
    }
  }

  Json doc = Json::object();
  doc.set("schema", "spmap-bench-serve/1");
  doc.set("smoke", smoke);
  doc.set("seed", seed);
  doc.set("hardware_threads",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
  doc.set("workers", workers);
  doc.set("results", std::move(results));

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_serve_report: cannot write %s\n",
                 out_path.c_str());
    return cli::kExitFailure;
  }
  out << doc.dump(2) << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Flags(argc, argv, {"out", "smoke", "seed"}));
  } catch (const UsageError& ex) {
    std::fprintf(stderr, "bench_serve_report: %s\n", ex.what());
    return cli::kExitUsage;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "bench_serve_report: %s\n", ex.what());
    return cli::kExitFailure;
  }
}
