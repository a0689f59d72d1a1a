#include "mappers/decomposition.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "mappers/cpu_only.hpp"
#include "mappers/registry.hpp"
#include "test_support.hpp"

namespace spmap {
namespace {

using testing::chain_dag;
using testing::cpu_fpga_platform;
using testing::serial_streamable_attrs;

/// A registry-built mapper, the way every experiment constructs one.
std::unique_ptr<Mapper> create(const char* spec, const Dag& d, Rng& rng) {
  return MapperRegistry::instance().create(spec, d, rng);
}

TEST(CpuOnlyMapper, MatchesDefaultMapping) {
  const Dag d = chain_dag(4);
  const auto attrs = serial_streamable_attrs(4);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  CpuOnlyMapper mapper;
  const MapperResult r = mapper.map(eval);
  EXPECT_EQ(r.mapping, eval.default_mapping());
  EXPECT_NEAR(r.predicted_makespan, 4.0, 1e-9);
}

TEST(DecompositionMapper, SingleNodeAcceleratesChainWithCheapTransfers) {
  // Transfers (0.1 s) are far below the per-task gain (0.9 s): even the
  // single-node decomposition migrates everything to the FPGA.
  const Dag d = chain_dag(5);
  const auto attrs = serial_streamable_attrs(5);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Rng rng(1);
  auto mapper = create("sn", d, rng);
  const MapperResult r = mapper->map(eval);
  EXPECT_LT(r.predicted_makespan, eval.default_mapping_makespan());
  EXPECT_GT(r.iterations, 0u);
}

TEST(DecompositionMapper, SingleNodeStuckInLocalMinimumOnCostlyTransfers) {
  // Section III-B's predicted failure mode: with expensive transfers
  // (1 s each way at 0.1 GB/s), moving any single task — even a chain
  // endpoint paying only one transfer — costs more than the 0.9 s it
  // gains, so single-node decomposition stays at the CPU mapping...
  const Dag d = chain_dag(6);
  const auto attrs = serial_streamable_attrs(6);
  const Platform p = cpu_fpga_platform(/*bandwidth_gbps=*/0.1);
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const double base = eval.default_mapping_makespan();

  Rng rng(1);
  auto sn = create("sn", d, rng);
  const MapperResult rs = sn->map(eval);
  EXPECT_NEAR(rs.predicted_makespan, base, 1e-9);

  // ...while the series-parallel decomposition can move the whole chain at
  // once, unlocking FPGA streaming (Section III-C).
  auto sp = create("sp", d, rng);
  const MapperResult rp = sp->map(eval);
  EXPECT_LT(rp.predicted_makespan, 0.5 * base);
}

TEST(DecompositionMapper, NeverWorseThanDefaultMapping) {
  Rng rng(7);
  for (int rep = 0; rep < 5; ++rep) {
    const Dag d = generate_sp_dag(30, rng);
    const TaskAttrs attrs = random_task_attrs(d, rng);
    const Platform p = reference_platform();
    const CostModel cost(d, attrs, p);
    const Evaluator eval(cost);
    const double base = eval.default_mapping_makespan();
    for (const bool first_fit : {false, true}) {
      auto sn = create(first_fit ? "snff" : "sn", d, rng);
      EXPECT_LE(sn->map(eval).predicted_makespan, base + 1e-9);
      auto sp = create(first_fit ? "spff" : "sp", d, rng);
      EXPECT_LE(sp->map(eval).predicted_makespan, base + 1e-9);
    }
  }
}

TEST(DecompositionMapper, FirstFitQualityCloseToBasic) {
  // Paper Section IV-B: the difference between the basic principle and the
  // FirstFit heuristic is almost negligible; FirstFit needs fewer
  // evaluations.
  Rng rng(11);
  double basic_total = 0.0;
  double ff_total = 0.0;
  std::size_t basic_evals = 0;
  std::size_t ff_evals = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Dag d = generate_sp_dag(40, rng);
    const TaskAttrs attrs = random_task_attrs(d, rng);
    const Platform p = reference_platform();
    const CostModel cost(d, attrs, p);
    const Evaluator eval(cost);
    auto basic = create("sp", d, rng);
    Rng rng2 = rng;  // same decomposition stream is not required; sets differ
    const MapperResult rb = basic->map(eval);
    auto ff = create("spff", d, rng2);
    const MapperResult rf = ff->map(eval);
    basic_total += rb.predicted_makespan;
    ff_total += rf.predicted_makespan;
    basic_evals += rb.evaluations;
    ff_evals += rf.evaluations;
  }
  // Within 15 % of each other on aggregate.
  EXPECT_NEAR(ff_total / basic_total, 1.0, 0.15);
  // And distinctly cheaper in model evaluations.
  EXPECT_LT(ff_evals, basic_evals);
}

TEST(DecompositionMapper, RespectsFpgaAreaBudget) {
  // Budget fits only two tasks; mapping must stay feasible even though the
  // FPGA is much faster.
  const Dag d = chain_dag(6);
  const auto attrs = serial_streamable_attrs(6);
  const Platform p = cpu_fpga_platform(1.0, /*fpga_area_budget=*/25.0);
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Rng rng(1);
  for (const bool first_fit : {false, true}) {
    auto sn = create(first_fit ? "snff" : "sn", d, rng);
    const MapperResult r = sn->map(eval);
    EXPECT_TRUE(cost.area_feasible(r.mapping));
    EXPECT_LT(r.predicted_makespan, kInfeasible);
  }
}

TEST(DecompositionMapper, GammaVariantsAllValid) {
  const Dag d = chain_dag(8);
  const auto attrs = serial_streamable_attrs(8);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const double base = eval.default_mapping_makespan();
  for (const double gamma : {1.0, 1.5, 2.0, 4.0}) {
    DecompositionParams params;
    params.variant = DecompositionVariant::Threshold;
    params.gamma = gamma;
    DecompositionMapper mapper("gamma", single_node_subgraphs(8), params);
    const MapperResult r = mapper.map(eval);
    EXPECT_LE(r.predicted_makespan, base + 1e-9) << "gamma=" << gamma;
    EXPECT_TRUE(cost.area_feasible(r.mapping));
  }
}

TEST(DecompositionMapper, IterationCapRespected) {
  const Dag d = chain_dag(10);
  const auto attrs = serial_streamable_attrs(10);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  DecompositionParams params;
  params.max_iterations = 2;
  DecompositionMapper mapper("capped", single_node_subgraphs(10), params);
  const MapperResult r = mapper.map(eval);
  EXPECT_LE(r.iterations, 2u);
}

TEST(DecompositionMapper, EmptySubgraphSetRejected) {
  EXPECT_THROW(DecompositionMapper("bad", SubgraphSet{}, {}), Error);
}

TEST(DecompositionMapper, PredictedMakespanMatchesEvaluator) {
  Rng rng(13);
  const Dag d = generate_sp_dag(25, rng);
  const TaskAttrs attrs = random_task_attrs(d, rng);
  const Platform p = reference_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  auto sp = create("spff", d, rng);
  const MapperResult r = sp->map(eval);
  EXPECT_NEAR(r.predicted_makespan, eval.evaluate(r.mapping), 1e-12);
}

}  // namespace
}  // namespace spmap
