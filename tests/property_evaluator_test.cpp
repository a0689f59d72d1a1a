/// Parameterized property suite for the model-based evaluator: simulation
/// invariants that must hold for every (graph, platform, mapping)
/// combination.

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"

namespace spmap {
namespace {

struct EvalCase {
  std::size_t nodes;
  std::size_t extra_edges;
  std::uint64_t seed;
};

class EvaluatorProperty : public ::testing::TestWithParam<EvalCase> {
 protected:
  EvaluatorProperty() : rng_(GetParam().seed), platform_(reference_platform()) {
    Dag base = generate_sp_dag(GetParam().nodes, rng_);
    dag_ = add_random_edges(base, GetParam().extra_edges, rng_);
    attrs_ = random_task_attrs(dag_, rng_);
    cost_.emplace(dag_, attrs_, platform_);
    eval_.emplace(*cost_, EvalParams{.random_orders = 20});
  }

  /// A random area-feasible mapping.
  Mapping random_mapping() {
    Mapping m(dag_.node_count(), platform_.default_device());
    for (auto& d : m.device) {
      d = DeviceId(rng_.below(platform_.device_count()));
    }
    // Repair FPGA overflow.
    for (const DeviceId f : platform_.fpga_devices()) {
      for (std::size_t i = 0; i < m.size() && !cost_->area_feasible(m); ++i) {
        if (m.device[i] == f) m.device[i] = platform_.default_device();
      }
    }
    return m;
  }

  Rng rng_;
  Platform platform_;
  Dag dag_;
  TaskAttrs attrs_;
  std::optional<CostModel> cost_;
  std::optional<Evaluator> eval_;
};

TEST_P(EvaluatorProperty, MakespanIsFiniteAndPositive) {
  for (int rep = 0; rep < 5; ++rep) {
    const Mapping m = random_mapping();
    const double ms = eval_->evaluate(m);
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, kInfeasible);
  }
}

TEST_P(EvaluatorProperty, DeterministicAcrossCalls) {
  const Mapping m = random_mapping();
  EXPECT_DOUBLE_EQ(eval_->evaluate(m), eval_->evaluate(m));
}

TEST_P(EvaluatorProperty, MinOverOrdersIsMinimum) {
  const Mapping m = random_mapping();
  const double best = eval_->evaluate(m);
  EvalContext ctx;
  for (const auto& order : eval_->orders()) {
    EXPECT_LE(best, eval_->evaluate_order(m, order, ctx) + 1e-12);
  }
}

TEST_P(EvaluatorProperty, CriticalPathLowerBound) {
  // No schedule can beat the longest path of min-device exec times.
  const auto topo = topological_order(dag_);
  std::vector<double> dist(dag_.node_count(), 0.0);
  double lb = 0.0;
  for (const NodeId v : topo) {
    dist[v.v] += cost_->min_exec_time(v);
    lb = std::max(lb, dist[v.v]);
    for (const EdgeId e : dag_.out_edges(v)) {
      dist[dag_.dst(e).v] = std::max(dist[dag_.dst(e).v], dist[v.v]);
    }
  }
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_GE(eval_->evaluate(random_mapping()) + 1e-9, lb);
  }
}

TEST_P(EvaluatorProperty, TotalWorkUpperBound) {
  // No schedule is worse than running everything serially on the slowest
  // device plus every transfer paid serially.
  double ub = cost_->max_serial_time();
  for (std::size_t e = 0; e < dag_.edge_count(); ++e) {
    double worst = 0.0;
    for (std::size_t a = 0; a < platform_.device_count(); ++a) {
      for (std::size_t b = 0; b < platform_.device_count(); ++b) {
        if (a != b) {
          worst = std::max(worst, cost_->transfer_time(EdgeId(e), DeviceId(a),
                                                       DeviceId(b)));
        }
      }
    }
    ub += worst;
  }
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_LE(eval_->evaluate(random_mapping()), ub + 1e-9);
  }
}

TEST_P(EvaluatorProperty, AllCpuBaselineIndependentOfSchedule) {
  // Without transfers and with symmetric slots, every topological order of
  // the all-CPU mapping must respect precedence; the makespan varies by
  // order, but it can never drop below total CPU work / slots.
  const Mapping m = eval_->default_mapping();
  double total = 0.0;
  for (std::size_t i = 0; i < dag_.node_count(); ++i) {
    total += cost_->exec_time(NodeId(i), platform_.default_device());
  }
  const double slots = static_cast<double>(
      platform_.device(platform_.default_device()).slots);
  EXPECT_GE(eval_->evaluate(m) + 1e-9, total / slots);
}

TEST_P(EvaluatorProperty, MovingZeroComplexityTaskIsFreeOnSameDevice) {
  // A zero-complexity task costs nothing anywhere; mapping it elsewhere
  // only adds transfers, so the all-CPU makespan is never beaten by moving
  // only such a task... but with zero *data*, it is exactly equal.
  TaskAttrs attrs = attrs_;
  const NodeId victim(0);
  attrs.complexity[victim.v] = 0.0;
  attrs.area[victim.v] = 0.0;
  const CostModel cost(dag_, attrs, platform_);
  const Evaluator eval(cost);
  Mapping base = eval.default_mapping();
  const double baseline = eval.evaluate(base);
  Mapping moved = base;
  moved[victim] = DeviceId(1u);
  // Moving it can only add transfer cost.
  EXPECT_GE(eval.evaluate(moved) + 1e-12, baseline);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EvaluatorProperty,
    ::testing::Values(EvalCase{2, 0, 21}, EvalCase{8, 0, 22},
                      EvalCase{8, 4, 23}, EvalCase{25, 0, 24},
                      EvalCase{25, 12, 25}, EvalCase{60, 0, 26},
                      EvalCase{60, 30, 27}, EvalCase{120, 60, 28},
                      EvalCase{250, 50, 29}),
    [](const ::testing::TestParamInfo<EvalCase>& param_info) {
      return "n" + std::to_string(param_info.param.nodes) + "_e" +
             std::to_string(param_info.param.extra_edges) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace spmap
