/// spmap_loadgen — load generator / correctness checker for the spmap
/// serving daemon (`spmap_cli daemon`, docs/SERVING.md).
///
/// Drives N concurrent client sessions against a running daemon and
/// reports per-priority-class throughput and latency percentiles. Two
/// driving modes (src/serve/loadgen.hpp):
///
///   closed loop (default)  each session submits again the moment its
///                          previous request finished — capacity test
///   --open-loop            each session submits at --rate-hz for
///                          --duration-s regardless of completions —
///                          overload test; structured `overloaded`
///                          rejections are counted, not errors
///
/// Requests are a pure function of --seed and the request index, with
/// generation/construction/run seeds pinned on the wire; --verify re-runs
/// every completed request through a local MappingService and demands a
/// bit-identical makespan — the end-to-end proof that networked serving
/// returns exactly what local execution would.
///
/// Flags:
///   --endpoint E       unix:PATH or tcp:HOST:PORT (required)
///   --sessions N       concurrent connections (default 8)
///   --requests N       total requests, closed loop (default 64)
///   --open-loop        open-loop mode
///   --rate-hz R        per-session submit rate, open loop (default 20)
///   --duration-s S     open-loop run length (default 2)
///   --mix SPEC         class mix, e.g. high=1,normal=2,low=1
///   --mapper SPEC      mapper submitted with every request
///   --tasks N          generated problem size (default 24)
///   --max-evals N      per-request evaluation budget
///   --reporting-orders N   server-side reporting evaluator orders
///   --seed S           deterministic request stream seed
///   --distinct K       fold requests onto K identities (request i uses
///                      the seeds of i mod K) so repeats hit the daemon's
///                      result cache; cache outcomes are counted from the
///                      done events
///   --min-hit-rate P   fail unless cache_hits/completed >= P
///   --verify           local bit-identity re-execution
///   --connect-retries N   extra connect attempts with backoff
///   --backoff-ms MS    first backoff delay between connect attempts
///   --chaos            closed loop only: deterministically drop the
///                      connection around submit/await points and recover
///                      by reconnecting with a fresh hello and polling
///                      status by job id; the run fails unless every
///                      acknowledged submit is recorded terminal exactly
///                      once (lost=0, duplicated=0)
///   --chaos-drop-rate P   injected drop probability per opportunity
///   --json FILE        write the spmap-loadgen-report/1 document
///   --quiet            no human-readable summary on stdout
///
/// Exit codes (tools/exit_codes.hpp): 0 success, 1 runtime failure (any
/// failed request, verify mismatch, or unreachable daemon; diagnostics on
/// stderr), 2 usage.

#include <cstdio>
#include <fstream>

#include "exit_codes.hpp"
#include "serve/loadgen.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"

using namespace spmap;
using spmap::cli::kExitFailure;
using spmap::cli::kExitOk;
using spmap::cli::kExitUsage;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: spmap_loadgen --endpoint unix:PATH|tcp:HOST:PORT "
               "[--sessions N] [--requests N] [--open-loop] [--rate-hz R] "
               "[--duration-s S] [--mix high=1,normal=2,low=1] "
               "[--mapper SPEC] [--tasks N] [--max-evals N] "
               "[--reporting-orders N] [--seed S] [--distinct K] "
               "[--min-hit-rate P] [--verify] "
               "[--connect-retries N] [--backoff-ms MS] [--chaos] "
               "[--chaos-drop-rate P] [--json FILE] [--quiet]\n");
  return kExitUsage;
}

void print_summary(const LoadgenOptions& options,
                   const LoadgenReport& report) {
  std::printf("endpoint=%s mode=%s sessions=%zu\n",
              options.endpoint.to_string().c_str(),
              options.open_loop ? "open" : "closed", report.sessions);
  std::printf(
      "submitted=%zu completed=%zu rejected=%zu failed=%zu "
      "wall_s=%.3f throughput_rps=%.1f\n",
      report.submitted, report.completed, report.rejected, report.failed,
      report.wall_seconds, report.throughput_rps);
  for (const auto& [cls, stats] : report.classes) {
    std::printf(
        "class=%-6s submitted=%-5zu completed=%-5zu rejected=%-5zu "
        "p50_ms=%-8.2f p95_ms=%-8.2f p99_ms=%-8.2f mean_ms=%.2f\n",
        cls.c_str(), stats.submitted, stats.completed, stats.rejected,
        stats.p50_ms, stats.p95_ms, stats.p99_ms, stats.mean_ms);
  }
  if (options.verify) {
    std::printf("verified=%zu mismatches=%zu\n", report.verified,
                report.mismatches);
  }
  if (options.distinct > 0 || report.cache_hits > 0) {
    const double hit_rate =
        report.completed > 0
            ? static_cast<double>(report.cache_hits) /
                  static_cast<double>(report.completed)
            : 0.0;
    std::printf("cache: hits=%zu miss=%zu none=%zu hit_rate=%.3f\n",
                report.cache_hits, report.cache_misses, report.cache_none,
                hit_rate);
  }
  if (options.chaos) {
    std::printf(
        "chaos: drops=%zu reconnects=%zu lost=%zu duplicated=%zu\n",
        report.drops, report.reconnects, report.lost, report.duplicated);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv,
                      {"endpoint", "sessions", "requests", "open-loop",
                       "rate-hz", "duration-s", "mix", "mapper", "tasks",
                       "max-evals", "reporting-orders", "seed", "distinct",
                       "min-hit-rate", "verify",
                       "connect-retries", "backoff-ms", "chaos",
                       "chaos-drop-rate", "json", "quiet"});
    const std::string endpoint = flags.get("endpoint", "");
    if (endpoint.empty()) return usage();

    LoadgenOptions options;
    options.endpoint = Endpoint::parse(endpoint);
    const std::int64_t sessions = flags.get_int("sessions", 8);
    require(sessions >= 1, "loadgen: --sessions must be >= 1");
    options.sessions = static_cast<std::size_t>(sessions);
    const std::int64_t requests = flags.get_int("requests", 64);
    require(requests >= 1, "loadgen: --requests must be >= 1");
    options.requests = static_cast<std::size_t>(requests);
    options.open_loop = flags.get_bool("open-loop", false);
    options.rate_hz = flags.get_double("rate-hz", 20.0);
    require(options.rate_hz > 0.0, "loadgen: --rate-hz must be > 0");
    options.duration_s = flags.get_double("duration-s", 2.0);
    require(options.duration_s > 0.0, "loadgen: --duration-s must be > 0");
    options.mix = flags.get("mix", "normal=1");
    options.mapper = flags.get("mapper", "spff");
    const std::int64_t tasks = flags.get_int("tasks", 24);
    require(tasks >= 2, "loadgen: --tasks must be >= 2");
    options.tasks = static_cast<std::size_t>(tasks);
    const std::int64_t max_evals = flags.get_int("max-evals", 0);
    require(max_evals >= 0, "loadgen: --max-evals must be >= 0");
    options.max_evaluations = static_cast<std::size_t>(max_evals);
    const std::int64_t orders = flags.get_int("reporting-orders", 0);
    require(orders >= 0, "loadgen: --reporting-orders must be >= 0");
    options.reporting_orders = static_cast<std::size_t>(orders);
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const std::int64_t distinct = flags.get_int("distinct", 0);
    require(distinct >= 0, "loadgen: --distinct must be >= 0");
    options.distinct = static_cast<std::size_t>(distinct);
    options.min_hit_rate = flags.get_double("min-hit-rate", -1.0);
    require(options.min_hit_rate <= 1.0,
            "loadgen: --min-hit-rate must be <= 1");
    options.verify = flags.get_bool("verify", false);
    const std::int64_t retries = flags.get_int("connect-retries", 0);
    require(retries >= 0, "loadgen: --connect-retries must be >= 0");
    options.connect_retries = static_cast<std::size_t>(retries);
    options.backoff_ms = flags.get_double("backoff-ms", 50.0);
    require(options.backoff_ms > 0.0, "loadgen: --backoff-ms must be > 0");
    options.chaos = flags.get_bool("chaos", false);
    require(!options.chaos || !options.open_loop,
            "loadgen: --chaos requires the closed loop");
    options.chaos_drop_rate = flags.get_double("chaos-drop-rate", 0.15);
    require(options.chaos_drop_rate >= 0.0 && options.chaos_drop_rate < 1.0,
            "loadgen: --chaos-drop-rate must be in [0, 1)");

    const LoadgenReport report = run_loadgen(options);

    if (!flags.get_bool("quiet", false)) print_summary(options, report);
    const std::string json_path = flags.get("json", "");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      require(out.good(), "loadgen: cannot open --json file: " + json_path);
      out << loadgen_report_json(options, report).dump(2) << "\n";
    }

    for (const std::string& error : report.errors) {
      std::fprintf(stderr, "spmap_loadgen: %s\n", error.c_str());
    }
    if (report.failed > 0 || report.mismatches > 0 ||
        report.completed + report.rejected == 0) {
      std::fprintf(stderr,
                   "spmap_loadgen: run failed (failed=%zu mismatches=%zu "
                   "completed=%zu)\n",
                   report.failed, report.mismatches, report.completed);
      return kExitFailure;
    }
    if (options.min_hit_rate >= 0.0 && report.completed > 0 &&
        static_cast<double>(report.cache_hits) /
                static_cast<double>(report.completed) <
            options.min_hit_rate) {
      std::fprintf(stderr,
                   "spmap_loadgen: cache hit rate below threshold "
                   "(hits=%zu completed=%zu min=%.3f)\n",
                   report.cache_hits, report.completed, options.min_hit_rate);
      return kExitFailure;
    }
    if (report.lost > 0 || report.duplicated > 0) {
      std::fprintf(stderr,
                   "spmap_loadgen: chaos accounting broken (lost=%zu "
                   "duplicated=%zu)\n",
                   report.lost, report.duplicated);
      return kExitFailure;
    }
    return kExitOk;
  } catch (const UsageError& ex) {
    std::fprintf(stderr, "spmap_loadgen: %s\n", ex.what());
    return kExitUsage;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "spmap_loadgen: %s\n", ex.what());
    return kExitFailure;
  }
}
