/// Fig. 7 — almost series-parallel graphs: 100-task random SP graphs with
/// 0..200 extra conflicting edges.
///
/// Paper shape to reproduce: quality of all algorithms degrades slightly
/// with added edges; the SP decomposition converges towards the single-node
/// decomposition (its trees fragment towards single edges); NSGA-II ends up
/// close to the decomposition heuristics; the SP mapper's execution time
/// grows with the number of conflicting edges (about +30 % over SingleNode
/// at 200 added edges) while SingleNode is unaffected.
///
/// This binary is a thin wrapper over the committed scenario file
/// `scenarios/fig7_almost_sp.json` — the experiment itself (platform,
/// workload, mapper line-up, sweep) lives there, so `spmap_cli sweep`
/// reproduces it identically. Flags override the scenario for quick runs.
///
/// Flags: --scenario FILE --edges=0,20,... --tasks N --graphs N --seed S
///        --generations N --threads N --out results.json

#include <cstdio>
#include <iostream>
#include <optional>

#include "bench/scenario.hpp"
#include "bench/scenario_runner.hpp"
#include "exit_codes.hpp"
#include "util/flags.hpp"

using namespace spmap;

namespace {

// Historic convenience flag: rewrite only the generations= option of the
// NSGA-II line-up entries, leaving their other options (pop, threads, ...)
// intact.
void override_nsga_generations(Scenario& scenario, long generations) {
  const std::string key = "generations=";
  for (ScenarioMapper& m : scenario.mappers) {
    if (m.spec.rfind("nsga", 0) != 0) continue;
    const std::size_t pos = m.spec.find(key);
    if (pos == std::string::npos) {
      m.spec += m.spec.find(':') == std::string::npos ? ':' : ',';
      m.spec += key + std::to_string(generations);
    } else {
      const std::size_t value = pos + key.size();
      const std::size_t end = m.spec.find(',', value);
      m.spec.replace(value,
                     (end == std::string::npos ? m.spec.size() : end) - value,
                     std::to_string(generations));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Flags> parsed;
  try {
    parsed.emplace(argc, argv,
                   std::vector<std::string>{"scenario", "edges", "tasks",
                                            "graphs", "seed", "generations",
                                            "threads", "out"});
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "bench_fig7_almost_sp: %s\n", ex.what());
    return cli::kExitUsage;
  }
  const Flags& flags = *parsed;
  try {
    Scenario scenario = load_scenario_file(
        flags.get("scenario",
                  std::string(SPMAP_SCENARIO_DIR) + "/fig7_almost_sp.json"));
    if (flags.has("edges")) {
      require(scenario.sweep.enabled(),
              "--edges: scenario has no sweep axis to override");
      scenario.sweep.values = flags.get_int_list("edges", {});
      require(!scenario.sweep.values.empty(),
              "--edges: need at least one value");
    }
    if (flags.has("tasks")) {
      const auto tasks = flags.get_int("tasks", 100);
      require(tasks >= 2, "--tasks must be >= 2");
      scenario.workload.tasks = static_cast<std::size_t>(tasks);
    }
    if (flags.has("graphs")) {
      const auto graphs = flags.get_int("graphs", 5);
      require(graphs >= 1, "--graphs must be >= 1");
      scenario.repetitions = static_cast<std::size_t>(graphs);
    }
    if (flags.has("seed")) {
      scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
    }
    if (flags.has("generations")) {
      const auto generations = flags.get_int("generations", 200);
      require(generations >= 1, "--generations must be >= 1");
      override_nsga_generations(scenario, generations);
    }
    SweepRunOptions options;
    const auto threads = flags.get_int("threads", 1);
    require(threads >= 1, "--threads must be >= 1");
    options.threads = static_cast<std::size_t>(threads);

    run_report_write(scenario, options, flags.get("out", ""), std::cout);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "bench_fig7_almost_sp: %s\n", ex.what());
    return cli::kExitFailure;
  }
  return cli::kExitOk;
}
