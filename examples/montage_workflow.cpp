/// Real-world scenario: mapping a Montage-style astronomy mosaic workflow
/// (paper Section IV-D) onto CPU + GPU + FPGA.
///
///   ./example_montage_workflow [--width N]
///
/// Generates a synthetic Montage instance, runs HEFT, PEFT and both
/// decomposition FirstFit mappers, and reports improvements plus where the
/// heavy tail-end tasks (mBgModel / mAdd) were placed — the paper explains
/// that mapping this handful of dominant tasks correctly is most of the
/// battle on this workflow.

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "exit_codes.hpp"
#include "mappers/registry.hpp"
#include "util/flags.hpp"
#include "workflows/workflows.hpp"

using namespace spmap;

int main(int argc, char** argv) try {
  const Flags flags(argc, argv, {"width", "seed"});
  const auto width = static_cast<std::size_t>(flags.get_int("width", 24));
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 7)));

  const WorkflowInstance inst =
      generate_workflow(WorkflowFamily::Montage, width, rng);
  const Platform platform = reference_platform();
  const CostModel cost(inst.dag, inst.attrs, platform);
  const Evaluator eval(cost, {.random_orders = 100});
  const double baseline = eval.default_mapping_makespan();

  std::printf("workflow %s: %zu tasks, %zu edges, baseline %.1f ms\n\n",
              inst.name.c_str(), inst.dag.node_count(),
              inst.dag.edge_count(), baseline * 1e3);

  std::vector<std::unique_ptr<Mapper>> mappers;
  for (const char* name : {"heft", "peft", "snff", "spff"}) {
    mappers.push_back(
        MapperRegistry::instance().create(name, inst.dag, rng));
  }

  for (const auto& mapper : mappers) {
    const MapperResult r = mapper->map(eval);
    const double imp = (baseline - r.predicted_makespan) / baseline;
    std::printf("%-12s makespan %8.1f ms   improvement %5.1f %%\n",
                mapper->name().c_str(), r.predicted_makespan * 1e3,
                100.0 * (imp > 0 ? imp : 0));
    // Where did the dominant tail tasks land?
    for (std::size_t i = 0; i < inst.dag.node_count(); ++i) {
      const auto& label = inst.dag.label(NodeId(i));
      if (label == "mBgModel" || label == "mAdd") {
        std::printf("             %-8s -> %s\n", label.c_str(),
                    platform.device(r.mapping.device[i]).name.c_str());
      }
    }
  }
  return 0;
} catch (const UsageError& ex) {
  std::fprintf(stderr, "example_montage_workflow: %s\n", ex.what());
  return cli::kExitUsage;
}
