/// Fig. 4 — HEFT/PEFT vs. decomposition mapping (basic and FirstFit) on
/// random series-parallel graphs from 5 to 200 tasks.
///
/// Paper shape to reproduce: HEFT/PEFT run in microseconds but their
/// mapping quality decays with graph size; the four decomposition variants
/// hold their relative improvement roughly constant, with SeriesParallel
/// about 5 % above SingleNode; FirstFit cuts decomposition execution time
/// by a large fraction at equal quality; for large graphs SeriesParallel
/// becomes *faster* than SingleNode because bigger subgraphs are replaced
/// at once.
///
/// This binary is a thin wrapper over the committed scenario file
/// `scenarios/fig4_list_scheduling.json` — the experiment itself (platform,
/// workload, mapper line-up, sweep) lives there, so `spmap_cli sweep`
/// reproduces it identically. Flags override the scenario for quick runs.
///
/// Flags: --scenario FILE --sizes=5,20,... --graphs N --seed S
///        --threads N --out results.json

#include <cstdio>
#include <iostream>
#include <optional>

#include "bench/scenario.hpp"
#include "bench/scenario_runner.hpp"
#include "exit_codes.hpp"
#include "util/flags.hpp"

using namespace spmap;

int main(int argc, char** argv) {
  std::optional<Flags> parsed;
  try {
    parsed.emplace(argc, argv,
                   std::vector<std::string>{"scenario", "sizes", "graphs",
                                            "seed", "threads", "out"});
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "bench_fig4_list_scheduling: %s\n", ex.what());
    return cli::kExitUsage;
  }
  const Flags& flags = *parsed;
  try {
    Scenario scenario = load_scenario_file(flags.get(
        "scenario", std::string(SPMAP_SCENARIO_DIR) +
                        "/fig4_list_scheduling.json"));
    if (flags.has("sizes")) {
      require(scenario.sweep.enabled(),
              "--sizes: scenario has no sweep axis to override");
      scenario.sweep.values = flags.get_int_list("sizes", {});
      require(!scenario.sweep.values.empty(),
              "--sizes: need at least one value");
    }
    if (flags.has("graphs")) {
      const auto graphs = flags.get_int("graphs", 10);
      require(graphs >= 1, "--graphs must be >= 1");
      scenario.repetitions = static_cast<std::size_t>(graphs);
    }
    if (flags.has("seed")) {
      scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2));
    }
    SweepRunOptions options;
    const auto threads = flags.get_int("threads", 1);
    require(threads >= 1, "--threads must be >= 1");
    options.threads = static_cast<std::size_t>(threads);

    run_report_write(scenario, options, flags.get("out", ""), std::cout);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "bench_fig4_list_scheduling: %s\n", ex.what());
    return cli::kExitFailure;
  }
  return cli::kExitOk;
}
