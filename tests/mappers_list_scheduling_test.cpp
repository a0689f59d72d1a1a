#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mappers/heft.hpp"
#include "mappers/peft.hpp"
#include "mappers/registry.hpp"
#include "model/platform_io.hpp"
#include "test_support.hpp"

namespace spmap {
namespace {

using testing::chain_dag;
using testing::cpu_fpga_platform;
using testing::serial_streamable_attrs;

TEST(Heft, UpwardRanksDecreaseAlongChain) {
  const Dag d = chain_dag(4);
  const auto attrs = serial_streamable_attrs(4);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const auto rank = heft_upward_ranks(cost);
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    EXPECT_GT(rank[i], rank[i + 1]);
  }
  // Exit task rank is its own mean execution time.
  EXPECT_NEAR(rank[3], cost.mean_exec_time(NodeId(3)), 1e-12);
}

TEST(Heft, ProducesValidMapping) {
  Rng rng(3);
  const Dag d = generate_sp_dag(50, rng);
  const TaskAttrs attrs = random_task_attrs(d, rng);
  const Platform p = reference_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  HeftMapper mapper;
  const MapperResult r = mapper.map(eval);
  EXPECT_NO_THROW(r.mapping.validate(d.node_count(), p.device_count()));
  EXPECT_TRUE(cost.area_feasible(r.mapping));
  EXPECT_LT(r.predicted_makespan, kInfeasible);
}

TEST(Heft, AcceleratesEmbarrassinglyParallelFanOut) {
  // Source -> 8 independent heavy tasks -> sink. HEFT should offload some
  // work instead of serializing everything on the CPU.
  Dag d(10);
  for (std::uint32_t i = 1; i <= 8; ++i) {
    d.add_edge(NodeId(0), NodeId(i), 100.0);
    d.add_edge(NodeId(i), NodeId(9), 100.0);
  }
  const auto attrs = serial_streamable_attrs(10);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  HeftMapper mapper;
  const MapperResult r = mapper.map(eval);
  EXPECT_LT(r.predicted_makespan, eval.default_mapping_makespan());
}

TEST(Heft, RespectsFpgaAreaGreedily) {
  const Dag d = chain_dag(8);
  const auto attrs = serial_streamable_attrs(8);  // area 10 per task
  const Platform p = cpu_fpga_platform(1.0, /*fpga_area_budget=*/25.0);
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  HeftMapper mapper;
  const MapperResult r = mapper.map(eval);
  EXPECT_TRUE(cost.area_feasible(r.mapping));
}

TEST(Peft, OctIsZeroForExitTasks) {
  const Dag d = chain_dag(3);
  const auto attrs = serial_streamable_attrs(3);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const auto oct = peft_oct(cost);
  const std::size_t m = p.device_count();
  for (std::size_t dd = 0; dd < m; ++dd) {
    EXPECT_DOUBLE_EQ(oct[2 * m + dd], 0.0);
  }
  // Interior tasks carry positive optimistic remaining cost.
  for (std::size_t dd = 0; dd < m; ++dd) {
    EXPECT_GT(oct[0 * m + dd], 0.0);
  }
}

TEST(Peft, ProducesValidMapping) {
  Rng rng(5);
  const Dag d = generate_sp_dag(50, rng);
  const TaskAttrs attrs = random_task_attrs(d, rng);
  const Platform p = reference_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  PeftMapper mapper;
  const MapperResult r = mapper.map(eval);
  EXPECT_NO_THROW(r.mapping.validate(d.node_count(), p.device_count()));
  EXPECT_TRUE(cost.area_feasible(r.mapping));
  EXPECT_LT(r.predicted_makespan, kInfeasible);
}

TEST(Peft, HandlesForkJoinGraphs) {
  Dag d(6);
  d.add_edge(NodeId(0), NodeId(1), 100.0);
  d.add_edge(NodeId(0), NodeId(2), 100.0);
  d.add_edge(NodeId(1), NodeId(3), 100.0);
  d.add_edge(NodeId(2), NodeId(4), 100.0);
  d.add_edge(NodeId(3), NodeId(5), 100.0);
  d.add_edge(NodeId(4), NodeId(5), 100.0);
  const auto attrs = serial_streamable_attrs(6);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  PeftMapper mapper;
  const MapperResult r = mapper.map(eval);
  EXPECT_LT(r.predicted_makespan, kInfeasible);
  EXPECT_LE(r.predicted_makespan, eval.default_mapping_makespan() + 1e-9);
}

TEST(ListScheduling, BothHandleSingleTask) {
  Dag d(1);
  TaskAttrs attrs = serial_streamable_attrs(1);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  HeftMapper heft;
  PeftMapper peft;
  EXPECT_NO_THROW(heft.map(eval));
  EXPECT_NO_THROW(peft.map(eval));
}

// ---- exact results ----
// The list schedulers are deterministic, so each (mapper, graph, platform)
// triple below pins its mapping (by digest) and its makespan bit for bit:
// a change to the shared scheduling core that moves any placement fails
// here, naming the new values.

/// "sp60": a 60-task SP graph; "almost-sp80": an 80-task SP graph with 16
/// extra edges (the Fig. 7 shape).
TaskGraph pinned_graph(const std::string& name) {
  TaskGraph tg;
  if (name == "sp60") {
    Rng rng(11);
    tg.dag = generate_sp_dag(60, rng);
    tg.attrs = random_task_attrs(tg.dag, rng);
  } else {
    Rng rng(23);
    tg.dag = add_random_edges(generate_sp_dag(80, rng), 16, rng);
    tg.attrs = random_task_attrs(tg.dag, rng);
  }
  return tg;
}

struct PinnedRun {
  const char* spec;
  const char* graph;
  const char* platform;  // file under scenarios/platforms/
  const char* digest;    // testing::mapping_digest of the mapping
  double makespan;
};

TEST(ListScheduling, PinnedExactResults) {
  const PinnedRun runs[] = {
      {"heft", "sp60", "paper_cpu_gpu_fpga",
       "1706f10da9705cb249d452f3033c7131", 7.3080489278931982},
      {"heft", "sp60", "dual_fpga",
       "ae14a0281586defb4fae2bb75f248084", 9.4157708283183599},
      {"heft", "almost-sp80", "paper_cpu_gpu_fpga",
       "dd94fa0e7af36f895a351367acf51177", 16.173211145193513},
      {"heft", "almost-sp80", "dual_fpga",
       "9932a6688faee593e7f5d88e39e5041e", 17.160517314175124},
      {"peft", "sp60", "paper_cpu_gpu_fpga",
       "fe8c66c76b5f1bb7398aa12e4b33a052", 7.6128402765433574},
      {"peft", "sp60", "dual_fpga",
       "2b2890990a156709bdc9bd5c6307f709", 8.9437561302685094},
      {"peft", "almost-sp80", "paper_cpu_gpu_fpga",
       "88229daeb0b1d3ab87852b7294738a2d", 16.36124046720882},
      {"peft", "almost-sp80", "dual_fpga",
       "a451758404d9091fe8f7be599a00fea7", 15.264077396752704},
      {"laheft", "sp60", "paper_cpu_gpu_fpga",
       "2cf2c040de4356b15c19c6661d401e57", 7.4704752184866017},
      {"laheft", "sp60", "dual_fpga",
       "169e6e02c0571865c45c150ab1f86a23", 8.6881277607151119},
      {"laheft", "almost-sp80", "paper_cpu_gpu_fpga",
       "46ead811f83a45e3c8ebfe094145fea4", 16.103821620013171},
      {"laheft", "almost-sp80", "dual_fpga",
       "f1476845995c9b4525fb3435030502da", 16.961428492182726},
  };
  for (const PinnedRun& run : runs) {
    const TaskGraph tg = pinned_graph(run.graph);
    const Platform platform =
        load_platform_file(std::string(SPMAP_SCENARIO_DIR) + "/platforms/" +
                           run.platform + ".json")
            .platform;
    const CostModel cost(tg.dag, tg.attrs, platform);
    const Evaluator eval(cost);
    Rng rng(1);
    auto mapper = MapperRegistry::instance().create(run.spec, tg.dag, rng);
    const MapperResult r = mapper->map(eval);
    const std::string where = std::string(run.spec) + " on " + run.graph +
                              " / " + run.platform + ": digest " +
                              testing::mapping_digest(r.mapping) +
                              ", makespan " +
                              testing::exact(r.predicted_makespan);
    EXPECT_EQ(testing::mapping_digest(r.mapping), run.digest) << where;
    EXPECT_EQ(r.predicted_makespan, run.makespan) << where;
  }
}

}  // namespace
}  // namespace spmap
