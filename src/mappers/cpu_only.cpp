#include "mappers/cpu_only.hpp"

#include "mappers/builtin_registrations.hpp"
#include "mappers/registry.hpp"

namespace spmap {

MapReport CpuOnlyMapper::map(const Evaluator& eval,
                             const MapRequest& request) {
  // The default mapping IS the incumbent, so there is nothing a budget or
  // cancellation could truncate: the run always converges.
  RunControl control(request);
  MapReport report;
  report.mapping = eval.default_mapping();
  EvalContext ctx;
  report.predicted_makespan = eval.evaluate(report.mapping, ctx);
  report.evaluations = ctx.evaluations();
  control.record_incumbent(report.predicted_makespan, 0);
  control.finalize(report);
  return report;
}

void detail::register_cpu_only_mapper(MapperRegistry& registry) {
  MapperEntry entry;
  entry.name = "cpu";
  entry.display_name = "CpuOnly";
  entry.description =
      "All-CPU baseline: every task on the default device (the reference "
      "point of the paper's relative-improvement metric)";
  entry.factory = [](const MapperContext&) {
    return std::make_unique<CpuOnlyMapper>();
  };
  registry.add(std::move(entry));
}

}  // namespace spmap
