#include "mappers/nsga2.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "mappers/registry.hpp"
#include "model/platform_io.hpp"
#include "test_support.hpp"

namespace spmap {
namespace {

using testing::chain_dag;
using testing::cpu_fpga_platform;
using testing::serial_streamable_attrs;

Nsga2Params small_params(std::size_t gens = 30, std::size_t pop = 24) {
  Nsga2Params p;
  p.population = pop;
  p.generations = gens;
  return p;
}

TEST(Nsga2, NeverWorseThanDefault) {
  // The initial population contains the all-default individual; elitism
  // guarantees the result is at least as good.
  Rng rng(3);
  for (int rep = 0; rep < 3; ++rep) {
    const Dag d = generate_sp_dag(25, rng);
    const TaskAttrs attrs = random_task_attrs(d, rng);
    const Platform p = reference_platform();
    const CostModel cost(d, attrs, p);
    const Evaluator eval(cost);
    Nsga2Mapper mapper(small_params());
    const MapperResult r = mapper.map(eval);
    EXPECT_LE(r.predicted_makespan, eval.default_mapping_makespan() + 1e-9);
    EXPECT_TRUE(cost.area_feasible(r.mapping));
  }
}

TEST(Nsga2, EscapesSingleNodeLocalMinimum) {
  // Costly transfers: single moves hurt, but the GA can move whole regions
  // in one crossover/mutation step.
  const Dag d = chain_dag(6);
  const auto attrs = serial_streamable_attrs(6);
  const Platform p = cpu_fpga_platform(/*bandwidth_gbps=*/0.2);
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Nsga2Mapper mapper(small_params(60, 40));
  const MapperResult r = mapper.map(eval);
  EXPECT_LT(r.predicted_makespan, 0.7 * eval.default_mapping_makespan());
}

TEST(Nsga2, DeterministicForFixedSeed) {
  Rng rng(9);
  const Dag d = generate_sp_dag(20, rng);
  const TaskAttrs attrs = random_task_attrs(d, rng);
  const Platform p = reference_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Nsga2Mapper a(small_params());
  Nsga2Mapper b(small_params());
  EXPECT_EQ(a.map(eval).mapping, b.map(eval).mapping);
}

TEST(Nsga2, RepairKeepsAreaFeasible) {
  const Dag d = chain_dag(10);
  TaskAttrs attrs = serial_streamable_attrs(10);  // area 10 each
  const Platform p = cpu_fpga_platform(1.0, /*fpga_area_budget=*/35.0);
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Nsga2Mapper mapper(small_params(40, 30));
  const MapperResult r = mapper.map(eval);
  EXPECT_TRUE(cost.area_feasible(r.mapping));
  EXPECT_LT(r.predicted_makespan, kInfeasible);
}

TEST(Nsga2, MoreGenerationsNeverHurt) {
  Rng rng(15);
  const Dag d = generate_sp_dag(30, rng);
  const TaskAttrs attrs = random_task_attrs(d, rng);
  const Platform p = reference_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Nsga2Params short_run = small_params(10);
  Nsga2Params long_run = small_params(80);
  const double short_ms = Nsga2Mapper(short_run).map(eval).predicted_makespan;
  const double long_ms = Nsga2Mapper(long_run).map(eval).predicted_makespan;
  // Same seed, elitist selection: longer runs are monotonically at least
  // as good.
  EXPECT_LE(long_ms, short_ms + 1e-9);
}

TEST(Nsga2, EvaluationCountScalesWithGenerations) {
  const Dag d = chain_dag(8);
  const auto attrs = serial_streamable_attrs(8);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Nsga2Mapper mapper(small_params(5, 10));
  const MapperResult r = mapper.map(eval);
  // init pop + generations * offspring.
  EXPECT_EQ(r.evaluations, 10u + 5u * 10u);
}

TEST(Nsga2, PinnedExactResult) {
  // The GA's whole trajectory follows from its rng stream, so one pinned
  // run fixes the draw order of initialization, tournaments, crossover,
  // mutation and repair: any change there moves this mapping. The two
  // small FPGAs of the dual-FPGA platform keep the repair busy.
  Rng graph_rng(17);
  const Dag d = generate_sp_dag(40, graph_rng);
  const TaskAttrs attrs = random_task_attrs(d, graph_rng);
  const Platform p = load_platform_file(std::string(SPMAP_SCENARIO_DIR) +
                                        "/platforms/dual_fpga.json")
                         .platform;
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Rng rng(1);
  auto mapper = MapperRegistry::instance().create(
      "nsga:generations=20,pop=30", d, rng);
  const MapperResult r = mapper->map(eval);
  EXPECT_EQ(testing::mapping_digest(r.mapping),
            "afdc5ae4f951fe392ec996b19c284a8d");
  EXPECT_EQ(r.predicted_makespan, 7.4000863094000158)
      << testing::exact(r.predicted_makespan);
  EXPECT_EQ(r.evaluations, 30u + 20u * 30u);
}

}  // namespace
}  // namespace spmap
