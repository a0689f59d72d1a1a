#include "mappers/cpu_only.hpp"

#include "mappers/builtin_registrations.hpp"
#include "mappers/registry.hpp"

namespace spmap {

MapReport CpuOnlyMapper::map(const Evaluator& eval,
                             const MapRequest& request) {
  // The default mapping IS the incumbent, so there is nothing a budget or
  // cancellation could truncate: the run always converges.
  RunControl control(request);
  return one_shot_report(eval, control, eval.default_mapping(), 0);
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
