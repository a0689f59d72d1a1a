/// Quickstart: build a task graph, describe a heterogeneous platform, and
/// let series-parallel decomposition mapping place the tasks.
///
///   ./example_quickstart
///
/// Walks through the full public API surface in ~60 lines: Dag + TaskAttrs
/// -> Platform -> CostModel -> Evaluator -> MapperRegistry -> Mapper.

#include <cstdio>

#include "exit_codes.hpp"
#include "graph/io.hpp"
#include "mappers/registry.hpp"
#include "model/platform.hpp"
#include "util/flags.hpp"

using namespace spmap;

int main(int argc, char** argv) try {
  const Flags flags(argc, argv, {});  // takes no flags

  // 1. The application: a small fork-join pipeline.
  //    decode -> {denoise, fft} -> mix -> encode
  Dag dag;
  const NodeId decode = dag.add_node("decode");
  const NodeId denoise = dag.add_node("denoise");
  const NodeId fft = dag.add_node("fft");
  const NodeId mix = dag.add_node("mix");
  const NodeId encode = dag.add_node("encode");
  dag.add_edge(decode, denoise, 100.0);  // payloads in MB
  dag.add_edge(decode, fft, 100.0);
  dag.add_edge(denoise, mix, 100.0);
  dag.add_edge(fft, mix, 100.0);
  dag.add_edge(mix, encode, 100.0);

  // 2. Task attributes: complexity (ops per data point), Amdahl
  //    parallelizability, FPGA streamability and area demand.
  TaskAttrs attrs;
  attrs.resize(dag.node_count());
  attrs.complexity = {4.0, 12.0, 9.0, 6.0, 5.0};
  attrs.parallelizability = {0.3, 1.0, 1.0, 0.6, 0.2};
  attrs.streamability = {2.0, 10.0, 14.0, 8.0, 3.0};
  attrs.area = {4.0, 12.0, 9.0, 6.0, 5.0};

  // 3. The platform of the paper: Epyc CPU + Vega 56 GPU + Zynq FPGA.
  const Platform platform = reference_platform();

  // 4. Model-based evaluation: cost model + makespan evaluator
  //    (breadth-first schedule + 100 random schedules, Section IV-A).
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost, {.random_orders = 100});
  const double baseline = eval.default_mapping_makespan();

  // 5. Map with the series-parallel decomposition FirstFit heuristic,
  //    picked by name from the MapperRegistry (see `spmap_cli
  //    list-mappers` for everything that is available).
  Rng rng(42);
  auto mapper = MapperRegistry::instance().create("spff", dag, rng);
  const MapperResult result = mapper->map(eval);

  std::printf("all-CPU baseline makespan : %8.2f ms\n", baseline * 1e3);
  std::printf("%s makespan        : %8.2f ms\n", mapper->name().c_str(),
              result.predicted_makespan * 1e3);
  std::printf("relative improvement      : %8.1f %%\n\n",
              100.0 * (baseline - result.predicted_makespan) / baseline);
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    const DeviceId d = result.mapping.device[i];
    std::printf("  %-8s -> %s\n", dag.label(NodeId(i)).c_str(),
                platform.device(d).name.c_str());
  }
  std::printf("\nGraphviz of the task graph:\n%s", to_dot(dag).c_str());
  return 0;
} catch (const UsageError& ex) {
  std::fprintf(stderr, "example_quickstart: %s\n", ex.what());
  return cli::kExitUsage;
}
