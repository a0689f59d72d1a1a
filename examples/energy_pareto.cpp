/// Multi-objective mapping: makespan vs. energy Pareto fronts.
///
///   ./example_energy_pareto [--tasks N] [--seed S]
///
/// The paper notes its algorithmic ideas transfer to multi-objective
/// optimization. This example compares two routes on one random
/// series-parallel graph:
///  * a true NSGA-II over (makespan, energy), and
///  * the series-parallel decomposition mapper run on a sweep of
///    weighted-sum scalarizations.
/// Both print their non-dominated fronts; typically the GA traces a denser
/// front while the scalarized decomposition finds the extremes in a
/// fraction of the time.

#include <cstdio>

#include "exit_codes.hpp"
#include "graph/generators.hpp"
#include "mappers/multi_objective.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace spmap;

namespace {

void print_front(const char* title, const std::vector<ParetoPoint>& front,
                 double seconds) {
  std::printf("%s (%zu points, %.1f ms)\n", title, front.size(),
              seconds * 1e3);
  std::printf("  %12s  %12s\n", "makespan", "energy");
  for (const auto& p : front) {
    std::printf("  %9.1f ms  %10.1f J\n", p.makespan * 1e3, p.energy);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv, {"tasks", "seed"});
  const auto n = static_cast<std::size_t>(flags.get_int("tasks", 40));
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 11)));

  const Dag dag = generate_sp_dag(n, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);

  const Mapping base = eval.default_mapping();
  const double ms0 = eval.evaluate(base);
  std::printf("graph: %zu tasks; all-CPU: %.1f ms, %.1f J\n\n",
              dag.node_count(), ms0 * 1e3,
              mapping_energy_joules(cost, base, ms0));

  {
    WallTimer timer;
    Nsga2Params params;
    params.population = 60;
    params.generations = 120;
    MoNsga2Mapper mo(params);
    const auto front = mo.optimize(eval);
    print_front("NSGA-II front", front, timer.seconds());
  }
  {
    WallTimer timer;
    const auto front = decomposition_pareto_sweep(
        eval, dag, rng, {0.0, 0.2, 0.4, 0.6, 0.8, 1.0});
    print_front("Scalarized SPFirstFit front", front, timer.seconds());
  }
  return 0;
} catch (const UsageError& ex) {
  std::fprintf(stderr, "example_energy_pareto: %s\n", ex.what());
  return cli::kExitUsage;
}
