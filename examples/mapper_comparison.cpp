/// Side-by-side comparison of every mapping algorithm in spmap on one
/// random series-parallel task graph (the paper's Section IV-B setting).
///
///   ./example_mapper_comparison [--tasks N] [--seed S] [--milp-limit SEC]
///                               [--generations N]
///
/// The algorithms are not hard-coded: the example walks the MapperRegistry,
/// so any newly registered mapper shows up here automatically. Prints
/// mapping quality (relative improvement over all-CPU), execution time of
/// the mapper itself, and how many model evaluations it consumed.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exit_codes.hpp"
#include "graph/generators.hpp"
#include "mappers/registry.hpp"
#include "model/platform.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace spmap;

int main(int argc, char** argv) try {
  const Flags flags(argc, argv,
                    {"tasks", "seed", "milp-limit", "generations"});
  const auto n = static_cast<std::size_t>(flags.get_int("tasks", 20));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));
  const double milp_limit = flags.get_double("milp-limit", 5.0);
  const auto generations = flags.get_int("generations", 100);

  Rng rng(seed);
  const Dag dag = generate_sp_dag(n, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost, {.random_orders = 100});
  const double baseline = eval.default_mapping_makespan();

  std::printf("random series-parallel graph: %zu tasks, %zu edges\n",
              dag.node_count(), dag.edge_count());
  std::printf("all-CPU baseline makespan: %.2f ms\n\n", baseline * 1e3);

  // Walk the registry; tune the expensive algorithms down to example scale
  // through their declared options (the registry rejects unknown keys).
  const MapperRegistry& registry = MapperRegistry::instance();
  std::vector<std::unique_ptr<Mapper>> mappers;
  for (const std::string& name : registry.names()) {
    const MapperEntry& entry = registry.at(name);
    std::string spec = name;
    if (entry.supports_option("time-limit")) {
      char opts[48];
      std::snprintf(opts, sizeof(opts), ":time-limit=%g", milp_limit);
      spec += opts;
    } else if (entry.supports_option("generations")) {
      spec += ":generations=" + std::to_string(generations);
    }
    mappers.push_back(registry.create(spec, dag, rng));
  }

  Table table({"mapper", "improvement", "mapper time", "evaluations"});
  for (const auto& mapper : mappers) {
    WallTimer timer;
    const MapperResult r = mapper->map(eval);
    const double elapsed = timer.seconds();
    const double imp =
        std::max(0.0, (baseline - r.predicted_makespan) / baseline);
    table.add_row({mapper->name(), format_double(100.0 * imp, 1) + " %",
                   format_duration(elapsed), std::to_string(r.evaluations)});
  }
  std::puts(table.to_string().c_str());
  return 0;
} catch (const UsageError& ex) {
  std::fprintf(stderr, "example_mapper_comparison: %s\n", ex.what());
  return cli::kExitUsage;
}
