#include "mappers/multi_objective.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "test_support.hpp"

namespace spmap {
namespace {

using testing::chain_dag;
using testing::serial_streamable_attrs;

// ---- energy model ----

TEST(Energy, AllCpuBaseline) {
  const Dag d = chain_dag(3);
  const auto attrs = serial_streamable_attrs(3);
  // Build a platform with distinct, easy-to-check power numbers.
  Platform pw;
  Device cpu;
  cpu.kind = DeviceKind::Cpu;
  cpu.lanes = 1;
  cpu.lane_gops = 1.0;
  cpu.idle_watts = 10.0;
  cpu.active_watts = 100.0;
  cpu.transfer_watts = 5.0;
  const DeviceId c = pw.add_device(cpu);
  Device fpga;
  fpga.kind = DeviceKind::Fpga;
  fpga.area_budget = 1000.0;
  fpga.stream_gops_per_streamability = 1.0;
  fpga.idle_watts = 2.0;
  fpga.active_watts = 20.0;
  fpga.transfer_watts = 4.0;
  pw.add_device(fpga);
  pw.set_link(c, DeviceId(1u), 1.0, 0.0);

  const CostModel cost(d, attrs, pw);
  const Evaluator eval(cost);
  const Mapping m(3, c);
  const double ms = eval.evaluate(m);  // 3 s serial
  // idle: (10 + 2) * 3; active: (100 - 10) * 3 tasks * 1 s; no transfers.
  EXPECT_NEAR(mapping_energy_joules(cost, m, ms), 12.0 * 3.0 + 90.0 * 3.0,
              1e-9);
}

TEST(Energy, CrossDeviceTransferCharged) {
  Dag d(2);
  d.add_edge(NodeId(0), NodeId(1), 100.0);
  const auto attrs = serial_streamable_attrs(2);
  Platform pw;
  Device cpu;
  cpu.kind = DeviceKind::Cpu;
  cpu.lanes = 1;
  cpu.lane_gops = 1.0;
  cpu.transfer_watts = 7.0;
  const DeviceId c = pw.add_device(cpu);
  Device fpga;
  fpga.kind = DeviceKind::Fpga;
  fpga.area_budget = 1000.0;
  fpga.stream_gops_per_streamability = 1.0;
  pw.add_device(fpga);
  pw.set_link(c, DeviceId(1u), 1.0, 0.0);
  const CostModel cost(d, attrs, pw);
  const Evaluator eval(cost);
  Mapping m(2, c);
  m[NodeId(1)] = DeviceId(1u);
  const double ms = eval.evaluate(m);
  // transfer = 0.1 s at 7 W from the CPU side; active powers are zero.
  EXPECT_NEAR(mapping_energy_joules(cost, m, ms), 0.7, 1e-9);
}

TEST(Energy, ValidationErrors) {
  const Dag d = chain_dag(2);
  const auto attrs = serial_streamable_attrs(2);
  const Platform p = testing::cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  EXPECT_THROW(mapping_energy_joules(cost, Mapping(5, DeviceId(0u)), 1.0),
               Error);
  EXPECT_THROW(mapping_energy_joules(cost, Mapping(2, DeviceId(0u)), -1.0),
               Error);
}

// ---- pareto utilities ----

TEST(Pareto, DominatesSemantics) {
  const ParetoPoint a{{}, 1.0, 1.0};
  const ParetoPoint b{{}, 2.0, 2.0};
  const ParetoPoint c{{}, 1.0, 2.0};
  const ParetoPoint d{{}, 2.0, 1.0};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_TRUE(dominates(a, c));
  EXPECT_FALSE(dominates(c, d));
  EXPECT_FALSE(dominates(d, c));
  EXPECT_FALSE(dominates(a, a));
}

TEST(Pareto, FilterKeepsOnlyNonDominated) {
  std::vector<ParetoPoint> pts{{{}, 3.0, 1.0}, {{}, 1.0, 3.0},
                               {{}, 2.0, 2.0}, {{}, 3.0, 3.0},
                               {{}, 2.0, 2.0}};
  const auto front = pareto_filter(pts);
  ASSERT_EQ(front.size(), 3u);
  // Sorted by makespan; (3,3) dominated; duplicate (2,2) collapsed.
  EXPECT_DOUBLE_EQ(front[0].makespan, 1.0);
  EXPECT_DOUBLE_EQ(front[1].makespan, 2.0);
  EXPECT_DOUBLE_EQ(front[2].makespan, 3.0);
  for (std::size_t i = 0; i + 1 < front.size(); ++i) {
    EXPECT_GT(front[i].energy, front[i + 1].energy);
  }
}

// ---- optimizers ----

class MultiObjectiveTest : public ::testing::Test {
 protected:
  MultiObjectiveTest() : rng_(7), platform_(reference_platform()) {
    dag_ = generate_sp_dag(25, rng_);
    attrs_ = random_task_attrs(dag_, rng_);
    cost_.emplace(dag_, attrs_, platform_);
    eval_.emplace(*cost_, EvalParams{});
  }

  Rng rng_;
  Platform platform_;
  Dag dag_;
  TaskAttrs attrs_;
  std::optional<CostModel> cost_;
  std::optional<Evaluator> eval_;
};

TEST_F(MultiObjectiveTest, Nsga2FrontIsNonDominated) {
  Nsga2Params params;
  params.population = 24;
  params.generations = 20;
  MoNsga2Mapper mo(params);
  const auto front = mo.optimize(*eval_);
  ASSERT_FALSE(front.empty());
  for (std::size_t i = 0; i < front.size(); ++i) {
    EXPECT_TRUE(cost_->area_feasible(front[i].mapping));
    EXPECT_NEAR(front[i].makespan, eval_->evaluate(front[i].mapping), 1e-12);
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(dominates(front[i], front[j]));
      }
    }
  }
}

TEST_F(MultiObjectiveTest, Nsga2FindsTradeoffs) {
  // With a seeded all-CPU individual and conflicting objectives, the front
  // should usually contain more than one point.
  Nsga2Params params;
  params.population = 30;
  params.generations = 30;
  MoNsga2Mapper mo(params);
  const auto front = mo.optimize(*eval_);
  EXPECT_GE(front.size(), 2u);
  // Sorted by makespan => energy strictly decreasing along the front.
  for (std::size_t i = 0; i + 1 < front.size(); ++i) {
    EXPECT_LT(front[i].makespan, front[i + 1].makespan);
    EXPECT_GT(front[i].energy, front[i + 1].energy);
  }
}

TEST_F(MultiObjectiveTest, Nsga2FrontIsPinned) {
  // The whole front (every mapping, makespan and energy, in front order)
  // follows from the GA's rng stream; pin it bit for bit.
  Nsga2Params params;
  params.population = 30;
  params.generations = 30;
  const auto front = MoNsga2Mapper(params).optimize(*eval_);
  ContentHasher h("test-front");
  for (const ParetoPoint& point : front) {
    h.str(testing::mapping_digest(point.mapping))
        .f64(point.makespan)
        .f64(point.energy);
  }
  EXPECT_EQ(front.size(), 4u);
  EXPECT_EQ(h.digest().hex(), "f31465cab4b543f376049eea273cf2c9");
}

TEST_F(MultiObjectiveTest, ScalarizedDecompositionSweep) {
  const auto front = decomposition_pareto_sweep(*eval_, dag_, rng_);
  ASSERT_FALSE(front.empty());
  for (const auto& p : front) {
    EXPECT_TRUE(cost_->area_feasible(p.mapping));
    EXPECT_LT(p.makespan, kInfeasible);
  }
  // The pure-makespan scalarization (w = 1) must be at least as fast as the
  // all-CPU default.
  EXPECT_LE(front.front().makespan, eval_->default_mapping_makespan() + 1e-9);
}

TEST_F(MultiObjectiveTest, SweepExtremesOrdering) {
  // w = 1 optimizes makespan only; w = 0 optimizes energy only. The
  // fastest point cannot be more energy-frugal than the frugal extreme.
  const auto front = decomposition_pareto_sweep(*eval_, dag_, rng_,
                                                {0.0, 1.0});
  ASSERT_FALSE(front.empty());
  if (front.size() >= 2) {
    EXPECT_LT(front.front().makespan, front.back().makespan);
    EXPECT_GT(front.front().energy, front.back().energy);
  }
}

}  // namespace
}  // namespace spmap
