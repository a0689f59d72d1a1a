/// spmap_cli — command-line driver for the spmap library.
///
/// Subcommands:
///   generate      Create a task graph (random SP / almost-SP / workflow)
///                 and write it as JSON.
///   decompose     Print the series-parallel decomposition forest of a
///                 graph.
///   map           Run a mapping algorithm and print mapping + makespan
///                 (+ optional Gantt chart / schedule JSON). Takes the
///                 anytime run API bounds: --deadline-ms, --max-evals,
///                 --max-iters, --cancel-after-ms.
///   evaluate      Evaluate an explicit mapping.
///   sweep         Run a declarative scenario file (platform + workload +
///                 mapper line-up; see docs/FORMATS.md) and write a
///                 machine-readable results file.
///   daemon        Serve mapping jobs over a socket: listens on
///                 unix:PATH or tcp:HOST:PORT speaking spmap-wire/1
///                 (newline-delimited JSON; see docs/SERVING.md), with
///                 priority admission, streaming incumbent events and a
///                 graceful SIGTERM drain.
///   list-mappers  Print the MapperRegistry: every algorithm with its
///                 description and default (paper) parameters
///                 (--markdown emits the docs/README table).
///
/// Mapping algorithms are resolved by name through the MapperRegistry;
/// options ride along after a colon, e.g. `--mapper nsga:generations=50`.
///
/// Examples:
///   spmap_cli generate --type sp --tasks 40 --seed 7 --out g.json
///   spmap_cli generate --type workflow --family montage --width 16 --out m.json
///   spmap_cli decompose --in g.json
///   spmap_cli map --in g.json --mapper spff --gantt
///   spmap_cli map --in g.json --mapper nsga:generations=50,pop=100
///   spmap_cli evaluate --in g.json --mapping 0,0,1,2,0,...
///   spmap_cli sweep --scenario scenarios/examples/fig4_small.json --out r.json
///   spmap_cli map --in g.json --mapper anneal:iters=1000000 --deadline-ms 50
///   spmap_cli daemon --listen unix:/tmp/spmap.sock --workers 4
///   spmap_cli list-mappers
///
/// Exit codes (tools/exit_codes.hpp, enforced by cli_contract_test):
/// 0 success, 1 runtime failure (diagnostics on stderr), 2 usage.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "bench/scenario.hpp"
#include "bench/scenario_runner.hpp"
#include "exit_codes.hpp"
#include "serve/daemon.hpp"
#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "mappers/registry.hpp"
#include "sched/schedule.hpp"
#include "sp/decomposition_forest.hpp"
#include "sp/subgraph_set.hpp"
#include "util/failpoint.hpp"
#include "util/flags.hpp"
#include "util/fs.hpp"
#include "util/table.hpp"
#include "workflows/wfcommons.hpp"
#include "workflows/workload_spec.hpp"

using namespace spmap;
using spmap::cli::kExitFailure;
using spmap::cli::kExitOk;
using spmap::cli::kExitUsage;

namespace {

/// Fires a CancelToken after a delay unless destroyed first. The
/// destructor wakes and joins the timer thread immediately, so the CLI
/// neither lingers for the full delay after a fast run nor terminates on
/// exception unwind with a joinable thread.
class DelayedCancel {
 public:
  DelayedCancel(CancelToken token, double after_ms)
      : thread_([this, token, after_ms] {
          std::unique_lock<std::mutex> lock(mutex_);
          const bool dismissed = dismissed_cv_.wait_for(
              lock, std::chrono::duration<double, std::milli>(after_ms),
              [this] { return dismissed_; });
          if (!dismissed) token.request_cancel();
        }) {}

  ~DelayedCancel() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      dismissed_ = true;
    }
    dismissed_cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable dismissed_cv_;
  bool dismissed_ = false;
  std::thread thread_;
};

int usage() {
  std::fprintf(stderr,
               "usage: spmap_cli "
               "<generate|import|decompose|map|evaluate|sweep|daemon|"
               "list-mappers> [flags]\n"
               "  import       --wf FILE [--seed S] [--out FILE]   "
               "(WfCommons wfformat -> spmap JSON)\n"
               "  generate     --type sp|almost-sp|workflow --tasks N "
               "[--extra-edges K] [--family NAME --width W] [--seed S] "
               "[--out FILE]\n"
               "  decompose    --in FILE [--seed S] [--dot]\n"
               "  map          --in FILE --mapper NAME[:key=value,...] "
               "[--seed S] [--gantt] [--schedule-json] [--random-orders N] "
               "[--deadline-ms MS] [--max-evals N] [--max-iters N] "
               "[--cancel-after-ms MS]\n"
               "  evaluate     --in FILE --mapping 0,1,2,... "
               "[--random-orders N]\n"
               "  sweep        --scenario FILE [--out FILE] [--threads N] "
               "[--seed S] [--repetitions N] [--quiet]   (run a declarative "
               "scenario; see docs/FORMATS.md)\n"
               "  daemon       --listen unix:PATH|tcp:HOST:PORT "
               "[--workers N] [--max-queued N] [--idle-timeout-s S] "
               "[--grace-ms MS] [--seed S] [--journal FILE] "
               "[--retention N] [--cache-entries N] [--cache-bytes N] "
               "[--failpoints SPEC] [--quiet]   (spmap-wire/1 "
               "serving daemon; see docs/SERVING.md)\n"
               "  list-mappers [--verbose] [--markdown]   (all registered "
               "algorithm names, descriptions, default parameters)\n");
  return kExitUsage;
}

std::string read_file(const std::string& path) {
  return read_text_file(path, "input file");
}

void write_output(const std::string& path, const std::string& content) {
  if (path.empty()) {
    std::fputs(content.c_str(), stdout);
    return;
  }
  std::ofstream out(path);
  require(out.good(), "cannot open output file: " + path);
  out << content;
}

int cmd_generate(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"type", "tasks", "extra-edges", "family", "width",
                     "seed", "out"});
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const std::string type = flags.get("type", "sp");

  WorkloadSpec workload;
  if (type == "sp" || type == "almost-sp") {
    workload.kind = type == "sp" ? WorkloadKind::Sp : WorkloadKind::AlmostSp;
    workload.tasks = static_cast<std::size_t>(flags.get_int("tasks", 30));
    if (type == "almost-sp") {
      workload.extra_edges =
          static_cast<std::size_t>(flags.get_int("extra-edges", 10));
    }
  } else if (type == "workflow") {
    workload.kind = WorkloadKind::Workflow;
    workload.family = flags.get("family", "montage");
    workload.width = static_cast<std::size_t>(flags.get_int("width", 12));
  } else {
    throw Error("unknown --type: " + type);
  }
  const TaskGraph tg = materialize_workload(workload, rng);
  write_output(flags.get("out", ""), to_json(tg.dag, tg.attrs) + "\n");
  std::fprintf(stderr, "generated %zu tasks, %zu edges\n",
               tg.dag.node_count(), tg.dag.edge_count());
  return kExitOk;
}

int cmd_import(int argc, char** argv) {
  const Flags flags(argc, argv, {"wf", "seed", "out"});
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const TaskGraph tg =
      import_wfcommons_json(read_file(flags.get_required("wf")), rng);
  write_output(flags.get("out", ""), to_json(tg.dag, tg.attrs) + "\n");
  std::fprintf(stderr, "imported %zu tasks, %zu edges\n",
               tg.dag.node_count(), tg.dag.edge_count());
  return kExitOk;
}

int cmd_decompose(int argc, char** argv) {
  const Flags flags(argc, argv, {"in", "seed", "dot"});
  const TaskGraph tg =
      task_graph_from_json(read_file(flags.get_required("in")));
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  if (flags.get_bool("dot", false)) {
    std::fputs(to_dot(tg.dag).c_str(), stdout);
  }
  const Normalized norm = normalize_source_sink(tg.dag);
  const auto result = grow_decomposition_forest(norm.dag, rng);
  std::printf("nodes=%zu edges=%zu trees=%zu cuts=%zu series_parallel=%s\n",
              tg.dag.node_count(), tg.dag.edge_count(),
              result.forest.roots().size(), result.cuts,
              result.cuts == 0 ? "yes" : "no");
  for (std::size_t i = 0; i < result.forest.roots().size(); ++i) {
    std::printf("tree %zu: %s\n", i,
                result.forest.to_string(result.forest.roots()[i]).c_str());
  }
  const auto set = subgraphs_from_forest(result.forest, tg.dag.node_count());
  std::printf("candidate subgraphs: %zu\n", set.size());
  return kExitOk;
}

/// Emits the mapper table as GitHub-flavored markdown. This output is the
/// single source of the table committed at docs/mappers_table.md (and
/// embedded in README.md / docs/MAPPERS.md); CI diffs the two, so the
/// documentation cannot drift from the registry.
int list_mappers_markdown() {
  const MapperRegistry& registry = MapperRegistry::instance();
  std::printf("| name | algorithm | sp-decomp | defaults | description |\n");
  std::printf("|------|-----------|-----------|----------|-------------|\n");
  for (const std::string& name : registry.names()) {
    const MapperEntry& entry = registry.at(name);
    std::printf("| %s | %s | %s | %s | %s |\n", entry.name.c_str(),
                entry.display_name.c_str(),
                entry.needs_sp_decomposition ? "yes" : "no",
                entry.default_spec().c_str(), entry.description.c_str());
  }
  return kExitOk;
}

int cmd_list_mappers(int argc, char** argv) {
  const Flags flags(argc, argv, {"verbose", "markdown"});
  if (flags.get_bool("markdown", false)) return list_mappers_markdown();
  const MapperRegistry& registry = MapperRegistry::instance();
  Table table({"name", "algorithm", "sp-decomp", "defaults", "description"});
  for (const std::string& name : registry.names()) {
    const MapperEntry& entry = registry.at(name);
    table.add_row({entry.name, entry.display_name,
                   entry.needs_sp_decomposition ? "yes" : "no",
                   entry.default_spec(), entry.description});
  }
  std::fputs(table.to_string().c_str(), stdout);
  if (flags.get_bool("verbose", false)) {
    std::printf("\nper-mapper options (--mapper name:key=value,...):\n");
    for (const std::string& name : registry.names()) {
      const MapperEntry& entry = registry.at(name);
      if (entry.options.empty()) continue;
      std::printf("  %s:\n", entry.name.c_str());
      for (const MapperOptionInfo& opt : entry.options) {
        std::printf("    %-14s default=%-8s %s\n", opt.key.c_str(),
                    opt.default_value.empty() ? "-"
                                              : opt.default_value.c_str(),
                    opt.description.c_str());
      }
    }
  }
  return kExitOk;
}

int cmd_map(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"in", "mapper", "seed", "gantt", "schedule-json",
                     "random-orders", "deadline-ms", "max-evals",
                     "max-iters", "cancel-after-ms"});
  const TaskGraph tg =
      task_graph_from_json(read_file(flags.get_required("in")));
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const Platform platform = reference_platform();
  const CostModel cost(tg.dag, tg.attrs, platform);
  const auto orders =
      static_cast<std::size_t>(flags.get_int("random-orders", 100));
  const Evaluator eval(cost, {.random_orders = orders});

  // Anytime run bounds (run_api.hpp): deadline, budgets, and an optional
  // delayed cancellation that exercises the cooperative CancelToken.
  MapRequest request;
  request.deadline_ms = flags.get_double("deadline-ms", 0.0);
  require(request.deadline_ms >= 0.0, "map: --deadline-ms must be >= 0");
  const std::int64_t max_evals = flags.get_int("max-evals", 0);
  require(max_evals >= 0, "map: --max-evals must be >= 0");
  request.max_evaluations = static_cast<std::size_t>(max_evals);
  const std::int64_t max_iters = flags.get_int("max-iters", 0);
  require(max_iters >= 0, "map: --max-iters must be >= 0");
  request.max_iterations = static_cast<std::size_t>(max_iters);
  std::optional<DelayedCancel> canceller;
  if (flags.has("cancel-after-ms")) {
    canceller.emplace(request.cancel,
                      flags.get_double("cancel-after-ms", 0.0));
  }

  auto mapper = MapperRegistry::instance().create(flags.get("mapper", "spff"),
                                                  tg.dag, rng);
  const MapReport r = mapper->map(
      eval, merge_run_bounds(mapper->default_request(), request));
  canceller.reset();
  const double baseline = eval.default_mapping_makespan();
  std::printf("mapper=%s makespan=%.6f baseline=%.6f improvement=%.2f%%\n",
              mapper->name().c_str(), r.predicted_makespan, baseline,
              100.0 * std::max(0.0, (baseline - r.predicted_makespan) /
                                        baseline));
  std::printf(
      "termination=%s iterations=%zu evaluations=%zu wall_ms=%.3f "
      "incumbents=%zu\n",
      to_string(r.termination), r.iterations, r.evaluations,
      1e3 * r.wall_seconds, r.trajectory.size());
  std::printf("mapping=");
  for (std::size_t i = 0; i < r.mapping.size(); ++i) {
    std::printf("%s%u", i ? "," : "", r.mapping.device[i].v);
  }
  std::printf("\n");
  const Schedule schedule = extract_schedule(eval, r.mapping);
  if (flags.get_bool("gantt", false)) {
    std::fputs(schedule.to_gantt(tg.dag, platform).c_str(), stdout);
  }
  if (flags.get_bool("schedule-json", false)) {
    std::fputs((schedule.to_json(tg.dag, platform).dump(2) + "\n").c_str(),
               stdout);
  }
  if (r.predicted_makespan >= kInfeasible) {
    std::fprintf(stderr, "spmap_cli: mapper returned an infeasible mapping\n");
    return kExitFailure;
  }
  return kExitOk;
}

/// Runs a declarative scenario through the MappingService-backed runner
/// and emits its `spmap-sweep-results/1` document.
int cmd_sweep(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"scenario", "out", "threads", "seed", "repetitions",
                     "quiet"});
  Scenario scenario = load_scenario_file(flags.get_required("scenario"));
  if (flags.has("seed")) {
    scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  }
  if (flags.has("repetitions")) {
    const auto reps = flags.get_int("repetitions", 1);
    require(reps >= 1, "sweep: --repetitions must be >= 1");
    scenario.repetitions = static_cast<std::size_t>(reps);
  }
  SweepRunOptions options;
  const auto threads = flags.get_int("threads", 1);
  require(threads >= 1, "sweep: --threads must be >= 1");
  options.threads = static_cast<std::size_t>(threads);
  options.progress = !flags.get_bool("quiet", false);

  const Json results = run_scenario(scenario, options);
  const std::string out = flags.get("out", "");
  if (out.empty()) {
    // No --out: the results document is the output (pipe-friendly).
    write_output("", results.dump(2) + "\n");
  } else {
    print_sweep_tables(results, std::cout);
    write_output(out, results.dump(2) + "\n");
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  }
  return kExitOk;
}

int cmd_evaluate(int argc, char** argv) {
  const Flags flags(argc, argv, {"in", "mapping", "random-orders"});
  const TaskGraph tg =
      task_graph_from_json(read_file(flags.get_required("in")));
  const Platform platform = reference_platform();
  const CostModel cost(tg.dag, tg.attrs, platform);
  const auto orders =
      static_cast<std::size_t>(flags.get_int("random-orders", 100));
  const Evaluator eval(cost, {.random_orders = orders});

  Mapping mapping(tg.dag.node_count(), platform.default_device());
  const std::string spec = flags.get("mapping", "");
  if (!spec.empty()) {
    std::stringstream ss(spec);
    std::string item;
    std::size_t i = 0;
    while (std::getline(ss, item, ',')) {
      require(i < mapping.size(), "evaluate: mapping longer than graph");
      mapping.device[i++] = DeviceId(
          static_cast<std::uint32_t>(std::stoul(item)));
    }
    require(i == mapping.size(), "evaluate: mapping shorter than graph");
  }
  mapping.validate(tg.dag.node_count(), platform.device_count());
  const double ms = eval.evaluate(mapping);
  std::printf("makespan=%.6f feasible=%s\n", ms,
              ms < kInfeasible ? "yes" : "no");
  if (ms >= kInfeasible) {
    // The result line stays on stdout for parsers; the failure itself is
    // an exit-code + stderr affair (the CLI exit-code contract).
    std::fprintf(stderr, "spmap_cli: mapping is infeasible\n");
    return kExitFailure;
  }
  return kExitOk;
}

/// Long-running serving daemon over the MappingService (docs/SERVING.md).
/// Drains gracefully on SIGTERM/SIGINT or a wire `drain`; the exit code
/// is the drain verdict (0 clean, 1 jobs abandoned at the hard deadline).
int cmd_daemon(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"listen", "workers", "max-queued", "idle-timeout-s",
                     "grace-ms", "seed", "journal", "retention",
                     "cache-entries", "cache-bytes", "failpoints", "quiet"});
  DaemonOptions options;
  options.endpoint = Endpoint::parse(flags.get_required("listen"));
  const std::int64_t workers = flags.get_int("workers", 2);
  require(workers >= 1, "daemon: --workers must be >= 1");
  options.workers = static_cast<std::size_t>(workers);
  const std::int64_t max_queued = flags.get_int("max-queued", 64);
  require(max_queued >= 0, "daemon: --max-queued must be >= 0");
  options.max_queued = static_cast<std::size_t>(max_queued);
  options.idle_timeout_s = flags.get_double("idle-timeout-s", 0.0);
  require(options.idle_timeout_s >= 0.0,
          "daemon: --idle-timeout-s must be >= 0");
  options.grace_ms = flags.get_double("grace-ms", 5000.0);
  require(options.grace_ms >= 0.0, "daemon: --grace-ms must be >= 0");
  if (flags.has("seed")) {
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  }
  options.journal_path = flags.get("journal", "");
  const std::int64_t retention =
      flags.get_int("retention", static_cast<std::int64_t>(
                                     options.completed_retention));
  require(retention >= 1, "daemon: --retention must be >= 1");
  options.completed_retention = static_cast<std::size_t>(retention);
  // Cache is on by default (cached answers are bit-identical to
  // recomputation); --cache-entries 0 disables it.
  const std::int64_t cache_entries = flags.get_int(
      "cache-entries", static_cast<std::int64_t>(options.cache_entries));
  require(cache_entries >= 0, "daemon: --cache-entries must be >= 0");
  options.cache_entries = static_cast<std::size_t>(cache_entries);
  const std::int64_t cache_bytes = flags.get_int(
      "cache-bytes", static_cast<std::int64_t>(options.cache_bytes));
  require(cache_bytes >= 1, "daemon: --cache-bytes must be >= 1");
  options.cache_bytes = static_cast<std::size_t>(cache_bytes);
  // Fault injection: the flag takes precedence; the environment is read
  // either way so CI can arm failpoints without touching the invocation.
  Failpoints::instance().arm_from_env();
  if (flags.has("failpoints")) {
    Failpoints::instance().arm(flags.get("failpoints", ""));
  }
  options.install_signal_handlers = true;
  options.log = flags.get_bool("quiet", false) ? nullptr : stderr;

  Daemon daemon(options);
  daemon.bind();
  return daemon.run() == 0 ? kExitOk : kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc - 1, argv + 1);
    if (cmd == "import") return cmd_import(argc - 1, argv + 1);
    if (cmd == "decompose") return cmd_decompose(argc - 1, argv + 1);
    if (cmd == "map") return cmd_map(argc - 1, argv + 1);
    if (cmd == "evaluate") return cmd_evaluate(argc - 1, argv + 1);
    if (cmd == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (cmd == "daemon") return cmd_daemon(argc - 1, argv + 1);
    if (cmd == "list-mappers") return cmd_list_mappers(argc - 1, argv + 1);
  } catch (const UsageError& ex) {
    std::fprintf(stderr, "spmap_cli: %s\n", ex.what());
    return kExitUsage;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "spmap_cli: %s\n", ex.what());
    return kExitFailure;
  }
  return usage();
}
