/// FPGA dataflow streaming and the single-node local minimum.
///
///   ./example_fpga_streaming
///
/// Reproduces, on a hand-built pipeline, the effect that motivates
/// series-parallel decomposition mapping (paper Sections III-B/III-C):
/// when transfers are expensive, re-mapping any *single* task to the FPGA
/// makes things worse, so single-node decomposition is stuck at the all-CPU
/// mapping — but moving the whole chain at once unlocks dataflow streaming
/// and a large win.

#include <cstdio>

#include "exit_codes.hpp"
#include "mappers/registry.hpp"
#include "model/platform.hpp"
#include "util/flags.hpp"

using namespace spmap;

namespace {

Platform slow_link_platform() {
  Platform p;
  Device cpu;
  cpu.name = "host CPU";
  cpu.kind = DeviceKind::Cpu;
  cpu.lanes = 1.0;
  cpu.lane_gops = 1.0;
  const DeviceId c = p.add_device(cpu);
  Device fpga;
  fpga.name = "FPGA";
  fpga.kind = DeviceKind::Fpga;
  fpga.area_budget = 1000.0;
  fpga.stream_gops_per_streamability = 1.0;
  fpga.stream_fill_fraction = 0.1;
  const DeviceId f = p.add_device(fpga);
  p.set_link(c, f, 0.1, 0.0);  // 0.1 GB/s: a 100 MB hop costs a second
  return p;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv, {});  // takes no flags

  constexpr std::size_t kStages = 6;
  Dag dag(kStages);
  for (std::uint32_t i = 0; i + 1 < kStages; ++i) {
    dag.add_edge(NodeId(i), NodeId(i + 1), 100.0);
  }
  TaskAttrs attrs;
  attrs.resize(kStages);
  for (std::size_t i = 0; i < kStages; ++i) {
    attrs.complexity[i] = 10.0;        // 1 s per stage on the CPU
    attrs.parallelizability[i] = 0.0;  // hostile to thread parallelism
    attrs.streamability[i] = 10.0;     // excellent dataflow kernels
    attrs.area[i] = 10.0;
  }

  const Platform platform = slow_link_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);

  const double baseline = eval.default_mapping_makespan();
  std::printf("all-CPU pipeline makespan            : %6.2f s\n", baseline);

  // Moving one interior stage: pays two 1 s transfers to save 0.9 s.
  Mapping one(kStages, DeviceId(0u));
  one[NodeId(2)] = DeviceId(1u);
  std::printf("stage 2 alone on the FPGA            : %6.2f s  (worse!)\n",
              eval.evaluate(one));

  // The whole chain: no boundary transfers and the stages stream.
  const Mapping whole(kStages, DeviceId(1u));
  std::printf("whole chain on the FPGA (streaming)  : %6.2f s\n",
              eval.evaluate(whole));

  Rng rng(1);
  auto sn = MapperRegistry::instance().create("sn", dag, rng);
  auto sp = MapperRegistry::instance().create("sp", dag, rng);
  const MapperResult rs = sn->map(eval);
  const MapperResult rp = sp->map(eval);
  std::printf("\nSingleNode decomposition finds       : %6.2f s  "
              "(stuck at the local minimum)\n",
              rs.predicted_makespan);
  std::printf("SeriesParallel decomposition finds   : %6.2f s  "
              "(%.0fx faster than all-CPU)\n",
              rp.predicted_makespan, baseline / rp.predicted_makespan);
  return 0;
} catch (const UsageError& ex) {
  std::fprintf(stderr, "example_fpga_streaming: %s\n", ex.what());
  return cli::kExitUsage;
}
