#include "mappers/decomposition.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mappers/cpu_only.hpp"
#include "mappers/registry.hpp"
#include "model/platform_io.hpp"
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

// ---- exact results ----
// Every decomposition run is deterministic for a fixed rng seed, so each
// row below pins its mapping (by digest), its makespan bit for bit, and
// its iteration and evaluation counts: a change to frontier pricing that
// moves any accepted operation, any candidate value or any count fails
// here, naming the new values.

/// "sp80": an 80-task SP graph; "almost-sp80": an 80-task SP graph with 16
/// extra edges (the Fig. 7 shape).
TaskGraph pinned_graph(const std::string& name) {
  TaskGraph tg;
  Rng rng(name == "sp80" ? 31 : 37);
  tg.dag = generate_sp_dag(80, rng);
  if (name != "sp80") tg.dag = add_random_edges(tg.dag, 16, rng);
  tg.attrs = random_task_attrs(tg.dag, rng);
  return tg;
}

struct PinnedRun {
  const char* spec;
  const char* graph;
  const char* platform;  // file under scenarios/platforms/
  std::size_t random_orders;
  std::size_t max_evaluations;  // 0 = unbounded
  const char* digest;           // testing::mapping_digest of the mapping
  double makespan;
  std::size_t iterations;
  std::size_t evaluations;
};

TEST(DecompositionMapper, PinnedExactResults) {
  const PinnedRun runs[] = {
      {"sn", "sp80", "paper_cpu_gpu_fpga", 0, 0,
       "28d6322314b1775169280708229281d1", 12.43187489356151, 16, 2722},
      {"sn", "sp80", "dual_fpga", 0, 0,
       "e6f0a1751ba7355b40d2209b5e86fb46", 13.160650584564596, 25, 3518},
      {"sn", "almost-sp80", "paper_cpu_gpu_fpga", 0, 0,
       "18d78f91dba06383a45df90d91d6adcb", 11.543209274446003, 22, 3096},
      {"sn", "almost-sp80", "dual_fpga", 0, 0,
       "6567c85c9e37b2e8f1bd2aea22e90cd5", 12.474893749986654, 20, 2707},
      {"snff", "sp80", "paper_cpu_gpu_fpga", 0, 0,
       "9392b3059050d883d4de249b35b88a9e", 12.058223861070655, 33, 1266},
      {"snff", "sp80", "dual_fpga", 0, 0,
       "4d317ed0f38a1fd7c6787c4e139c678b", 13.393902687178249, 30, 907},
      {"snff", "almost-sp80", "paper_cpu_gpu_fpga", 0, 0,
       "92333c0b981500d9bae6f279d5c75663", 11.516436239518184, 26, 560},
      {"snff", "almost-sp80", "dual_fpga", 0, 0,
       "5688da9a2ff34572b47a6f5e87b4a191", 12.422465293207814, 21, 598},
      {"snff:gamma=2", "sp80", "paper_cpu_gpu_fpga", 0, 0,
       "9392b3059050d883d4de249b35b88a9e", 12.058223861070655, 33, 1266},
      {"snff:gamma=2", "sp80", "dual_fpga", 0, 0,
       "4d317ed0f38a1fd7c6787c4e139c678b", 13.393902687178249, 30, 907},
      {"snff:gamma=2", "almost-sp80", "paper_cpu_gpu_fpga", 0, 0,
       "92333c0b981500d9bae6f279d5c75663", 11.516436239518184, 26, 560},
      {"snff:gamma=2", "almost-sp80", "dual_fpga", 0, 0,
       "5688da9a2ff34572b47a6f5e87b4a191", 12.422465293207814, 21, 598},
      {"sp", "sp80", "paper_cpu_gpu_fpga", 0, 0,
       "ffebcfd42fb89ff8f57a5ab431250c0e", 12.037770861512197, 10, 2015},
      {"sp", "sp80", "dual_fpga", 0, 0,
       "e0ad30aa86f725438058dbc7220aab4f", 12.888052544192071, 8, 1102},
      {"sp", "almost-sp80", "paper_cpu_gpu_fpga", 0, 0,
       "0137de63cc85d5248801c4a27e8db4f6", 9.9554526346886014, 12, 2581},
      {"sp", "almost-sp80", "dual_fpga", 0, 0,
       "616f627e9bd870dd3aeb5d86598bd280", 9.5873290290645947, 7, 1687},
      {"spff", "sp80", "paper_cpu_gpu_fpga", 0, 0,
       "c7d88502a0046ecb26b09c44fc1a32d9", 11.853941035792483, 23, 1397},
      {"spff", "sp80", "dual_fpga", 0, 0,
       "835050d7b19f445dc5dca9341fae2e42", 13.317412952420785, 7, 371},
      {"spff", "almost-sp80", "paper_cpu_gpu_fpga", 0, 0,
       "22e80eb9dbf3a0aaad06b5da46b95ff3", 9.9366436726232372, 16, 844},
      {"spff", "almost-sp80", "dual_fpga", 0, 0,
       "649f8c51bd46ad3522616493c7099495", 9.9358296780352262, 7, 428},
      {"spff:cut=smallest", "sp80", "paper_cpu_gpu_fpga", 0, 0,
       "c7d88502a0046ecb26b09c44fc1a32d9", 11.853941035792483, 23, 1397},
      {"spff:cut=smallest", "sp80", "dual_fpga", 0, 0,
       "835050d7b19f445dc5dca9341fae2e42", 13.317412952420785, 7, 371},
      {"spff:cut=smallest", "almost-sp80", "paper_cpu_gpu_fpga", 0, 0,
       "b51a82f369121dc1b8b3ba82ff1e9987", 11.978496056690197, 18, 1053},
      {"spff:cut=smallest", "almost-sp80", "dual_fpga", 0, 0,
       "7a02136bff9aed915c56d51fb4615ee9", 10.71941333178496, 15, 645},
      {"sp", "sp80", "paper_cpu_gpu_fpga", 3, 0,
       "ffebcfd42fb89ff8f57a5ab431250c0e", 12.037770861512197, 10, 8060},
      {"spff", "sp80", "paper_cpu_gpu_fpga", 3, 0,
       "c7d88502a0046ecb26b09c44fc1a32d9", 11.853941035792483, 23, 5588},
      {"sn", "sp80", "paper_cpu_gpu_fpga", 0, 300,
       "46779bb0947d3c0b0208795ebe3afacf", 13.572603570358741, 2, 322},
      {"spff", "sp80", "paper_cpu_gpu_fpga", 0, 300,
       "b25c27ebc96f0464df8b7d859190fd39", 12.170380780625644, 12, 466},
      {"sn", "sp80", "paper_cpu_gpu_fpga", 3, 0,
       "28d6322314b1775169280708229281d1", 12.43187489356151, 16, 10888},
      {"sn:threads=2", "sp80", "paper_cpu_gpu_fpga", 0, 0,
       "28d6322314b1775169280708229281d1", 12.43187489356151, 16, 2722},
      {"sp:threads=2", "sp80", "paper_cpu_gpu_fpga", 0, 0,
       "ffebcfd42fb89ff8f57a5ab431250c0e", 12.037770861512197, 10, 2015},
      // No FPGA: every tail lead is a run or a run plus a transfer.
      {"sn", "sp80", "cpu_gpu", 0, 0,
       "90ab9a4171767e7f66a64a91517f00f2", 12.932180209373481, 16, 1362},
      {"sp", "sp80", "cpu_gpu", 0, 0,
       "b9e8f95ac010162b897bd0ee5bd1ad3d", 12.883271899899235, 16, 2438},
  };
  for (const PinnedRun& run : runs) {
    const TaskGraph tg = pinned_graph(run.graph);
    const Platform platform =
        load_platform_file(std::string(SPMAP_SCENARIO_DIR) + "/platforms/" +
                           run.platform + ".json")
            .platform;
    const CostModel cost(tg.dag, tg.attrs, platform);
    const Evaluator eval(cost, {.random_orders = run.random_orders});
    Rng rng(1);
    auto mapper = MapperRegistry::instance().create(run.spec, tg.dag, rng);
    MapRequest request;
    request.max_evaluations = run.max_evaluations;
    const MapReport r = mapper->map(eval, request);
    const std::string where =
        std::string(run.spec) + " on " + run.graph + " / " + run.platform +
        " orders=" + std::to_string(run.random_orders) +
        " max_evals=" + std::to_string(run.max_evaluations) + ": {\"" +
        testing::mapping_digest(r.mapping) + "\", " +
        testing::exact(r.predicted_makespan) + ", " +
        std::to_string(r.iterations) + ", " + std::to_string(r.evaluations) +
        "}";
    EXPECT_EQ(testing::mapping_digest(r.mapping), run.digest) << where;
    EXPECT_EQ(r.predicted_makespan, run.makespan) << where;
    EXPECT_EQ(r.iterations, run.iterations) << where;
    EXPECT_EQ(r.evaluations, run.evaluations) << where;
  }
}

}  // namespace
}  // namespace spmap
