/// Differential property sweep for the incremental delta-evaluation engine:
/// on random (SP and almost-SP) graphs, random reassignment sequences —
/// about 30% of them moving an earlier-moved task back, as an accept-then-
/// revert search does — must keep IncrementalEvaluator, the flat Evaluator
/// and the naive ReferenceEvaluator in exact agreement — makespans, per-task
/// times and area-feasibility verdicts — after every single apply and probe.
/// Well over 1000 randomized cases run across the parameter grid (a case =
/// one apply or probe followed by the three-way comparison).
///
/// The grid spans both the paper platform and the wide manycore platform,
/// and every hybrid probe mode: kAuto (online routing), kForceIncremental
/// and kForceFallback. Agreement in the forced modes proves each probe path
/// is bit-identical on its own, not just whichever one the router happens
/// to pick; a mixed-route case redraws the mode before every probe. A
/// cutoff case checks probes given a cutoff: exact below it, at or above
/// it otherwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>

#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_evaluator.hpp"
#include "sched/reference_evaluator.hpp"

namespace spmap {
namespace {

struct IncCase {
  std::size_t nodes;
  std::size_t extra_edges;
  std::size_t moves;
  std::uint64_t seed;
  bool wide = false;  // wide manycore platform instead of the paper one
  ProbeMode mode = ProbeMode::kAuto;
};

constexpr ProbeMode kInc = ProbeMode::kForceIncremental;
constexpr ProbeMode kFb = ProbeMode::kForceFallback;

constexpr IncCase kGrid[] = {
    // Paper platform, auto routing (the production configuration).
    IncCase{2, 0, 30, 41}, IncCase{8, 0, 60, 42}, IncCase{8, 4, 60, 43},
    IncCase{25, 0, 80, 44}, IncCase{25, 12, 80, 45},
    IncCase{60, 0, 120, 46}, IncCase{60, 30, 120, 47},
    IncCase{120, 60, 160, 48}, IncCase{250, 50, 200, 49},
    IncCase{500, 0, 220, 50},
    // Wide manycore platform, auto routing.
    IncCase{25, 12, 80, 51, true}, IncCase{60, 30, 120, 52, true},
    IncCase{250, 50, 200, 53, true}, IncCase{500, 0, 220, 54, true},
    // Forced modes: each probe path must be exact on its own, on both
    // platforms, dense and sparse graphs alike.
    IncCase{60, 30, 120, 55, false, kFb},
    IncCase{120, 60, 160, 56, false, kFb},
    IncCase{500, 0, 220, 57, false, kFb},
    IncCase{120, 60, 160, 58, false, kInc},
    IncCase{60, 30, 120, 59, true, kFb},
    IncCase{250, 50, 200, 60, true, kFb},
    IncCase{250, 50, 200, 61, true, kInc},
    IncCase{500, 0, 220, 62, true, kInc},
};

// Stopped probes of the cutoff case, summed over the wide-manycore cases.
// A cutoff that never stops a probe would pass every per-probe check, so
// once all of those cases ran, the sum must be positive.
class WideStopTally : public ::testing::Environment {
 public:
  void add(std::size_t stopped) {
    ++cases_;
    stopped_ += stopped;
  }
  void TearDown() override {
    const auto wide = std::count_if(std::begin(kGrid), std::end(kGrid),
                                    [](const IncCase& c) { return c.wide; });
    if (cases_ == static_cast<std::size_t>(wide)) {
      EXPECT_GT(stopped_, 0u) << "no wide-manycore probe stopped";
    }
  }

 private:
  std::size_t cases_ = 0;
  std::size_t stopped_ = 0;
};

WideStopTally* const wide_stops = static_cast<WideStopTally*>(
    ::testing::AddGlobalTestEnvironment(new WideStopTally));

class IncrementalProperty : public ::testing::TestWithParam<IncCase> {
 protected:
  IncrementalProperty()
      : rng_(GetParam().seed),
        platform_(GetParam().wide ? manycore_platform()
                                  : reference_platform()) {
    Dag base = generate_sp_dag(GetParam().nodes, rng_);
    dag_ = add_random_edges(base, GetParam().extra_edges, rng_);
    attrs_ = random_task_attrs(dag_, rng_);
    cost_.emplace(dag_, attrs_, platform_);
    eval_.emplace(*cost_);  // one (breadth-first) order: the bound order
    ref_.emplace(*cost_);
  }

  /// The three-way agreement that must hold after every state change.
  void expect_agreement(const IncrementalEvaluator& inc,
                        const Mapping& expected_mapping) {
    ASSERT_EQ(inc.mapping(), expected_mapping);
    EvalContext ctx;
    const double flat =
        eval_->evaluate_order(expected_mapping, inc.order(), ctx);
    const double naive = ref_->evaluate_order(expected_mapping, inc.order());
    EXPECT_EQ(inc.order_makespan(), flat);
    EXPECT_EQ(inc.order_makespan(), naive);
    // Per-task times, not just the max: the sweep above leaves them in
    // the context.
    const auto start = ctx.start_times();
    const auto finish = ctx.finish_times();
    for (std::size_t v = 0; v < expected_mapping.size(); ++v) {
      ASSERT_EQ(inc.start_times()[v], start[v]) << "node " << v;
      ASSERT_EQ(inc.finish_times()[v], finish[v]) << "node " << v;
    }
    // Feasibility-aware makespan matches the full evaluator verdict.
    EXPECT_EQ(inc.makespan(), eval_->evaluate(expected_mapping));
    EXPECT_EQ(inc.feasible(), cost_->area_feasible(expected_mapping));
  }

  Rng rng_;
  Platform platform_;
  Dag dag_;
  TaskAttrs attrs_;
  std::optional<CostModel> cost_;
  std::optional<Evaluator> eval_;
  std::optional<ReferenceEvaluator> ref_;
};

TEST_P(IncrementalProperty, RandomWalkAgreesAfterEveryApplyAndProbe) {
  IncrementalEvaluator inc(*eval_);
  inc.set_probe_mode(GetParam().mode);
  const Mapping initial = random_feasible_mapping(*cost_, rng_);
  Mapping current = initial;
  inc.reset(current);
  expect_agreement(inc, current);

  // The moves not yet reverted, newest last: a revert puts the newest
  // moved task back on the device it left.
  std::vector<TaskReassignment> reverts;
  const auto move_to = [&](TaskReassignment move) {
    inc.apply(move);
    current[move.node] = move.device;
    ASSERT_NO_FATAL_FAILURE(expect_agreement(inc, current));
  };
  for (std::size_t i = 0; i < GetParam().moves; ++i) {
    if (!reverts.empty() && rng_.chance(0.3)) {
      const TaskReassignment back = reverts.back();
      reverts.pop_back();
      ASSERT_NO_FATAL_FAILURE(move_to(back));
    } else {
      const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
      const DeviceId device(
          static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
      reverts.push_back({node, current[node]});
      ASSERT_NO_FATAL_FAILURE(move_to({node, device}));
    }
    // Probe from this (arbitrarily mutated) state too: trace-free probing
    // must agree with the full evaluator and leave no mark.
    if (rng_.chance(0.5)) {
      const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
      const DeviceId device(
          static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
      Mapping probed = current;
      probed[node] = device;
      EXPECT_EQ(inc.probe({node, device}), eval_->evaluate(probed));
      ASSERT_NO_FATAL_FAILURE(expect_agreement(inc, current));
    }
  }
  // Revert everything: the initial state must come back exactly.
  while (!reverts.empty()) {
    const TaskReassignment back = reverts.back();
    reverts.pop_back();
    ASSERT_NO_FATAL_FAILURE(move_to(back));
  }
  ASSERT_EQ(current, initial);
}

TEST_P(IncrementalProperty, ProbeLeavesStateUntouched) {
  IncrementalEvaluator inc(*eval_);
  inc.set_probe_mode(GetParam().mode);
  const Mapping mapping = random_feasible_mapping(*cost_, rng_);
  inc.reset(mapping);
  const double before = inc.makespan();
  for (std::size_t i = 0; i < 25; ++i) {
    const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
    const DeviceId device(
        static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
    Mapping probed = mapping;
    probed[node] = device;
    EXPECT_EQ(inc.probe({node, device}), eval_->evaluate(probed));
    EXPECT_EQ(inc.makespan(), before);
    EXPECT_EQ(inc.mapping(), mapping);
  }
}

// One engine whose route changes from probe to probe: its ProbeMode is
// redrawn from the test rng before every probe, and one to four probes
// come between consecutive applies. A probe view left dirty by one route
// would show in a later probe or apply, whichever route that takes.
TEST_P(IncrementalProperty, MixedRoutesAgreeWithEvaluateOrder) {
  constexpr ProbeMode kModes[] = {ProbeMode::kAuto,
                                  ProbeMode::kForceIncremental,
                                  ProbeMode::kForceFallback};
  IncrementalEvaluator inc(*eval_);
  Mapping current = random_feasible_mapping(*cost_, rng_);
  inc.reset(current);
  EvalContext ctx;
  const auto random_move = [&] {
    const NodeId node(static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
    const DeviceId device(
        static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
    return TaskReassignment{node, device};
  };
  for (std::size_t i = 0; i < GetParam().moves; ++i) {
    const std::size_t probes = 1 + rng_.below(4);
    for (std::size_t k = 0; k < probes; ++k) {
      inc.set_probe_mode(kModes[rng_.below(3)]);
      const TaskReassignment move = random_move();
      Mapping probed = current;
      probed[move.node] = move.device;
      const double expected =
          cost_->area_feasible(probed)
              ? eval_->evaluate_order(probed, inc.order(), ctx)
              : kInfeasible;
      ASSERT_EQ(inc.probe(move), expected) << "step " << i << " probe " << k;
    }
    const TaskReassignment move = random_move();
    inc.apply(move);
    current[move.node] = move.device;
    ASSERT_NO_FATAL_FAILURE(expect_agreement(inc, current)) << "step " << i;
  }
}

// The cutoff contract: a probe whose makespan is below its cutoff returns
// evaluate_order's value bit for bit; any other probe returns some value
// >= the cutoff. Cutoffs are drawn around the exact value (equal, one ulp
// either side, 1.5x) and at the committed makespan, where tail bounds can
// stop a worse candidate. The walk runs once in the case's own mode and
// once with the mode redrawn before every probe.
TEST_P(IncrementalProperty, CutoffProbesAreExactBelowTheCutoff) {
  constexpr ProbeMode kModes[] = {ProbeMode::kAuto,
                                  ProbeMode::kForceIncremental,
                                  ProbeMode::kForceFallback};
  EvalContext ctx;
  std::size_t stopped = 0;
  for (const bool mixed : {false, true}) {
    IncrementalEvaluator inc(*eval_);
    inc.set_probe_mode(GetParam().mode);
    Mapping current = random_feasible_mapping(*cost_, rng_);
    inc.reset(current);
    const auto random_move = [&] {
      const NodeId node(
          static_cast<std::uint32_t>(rng_.below(dag_.node_count())));
      const DeviceId device(
          static_cast<std::uint32_t>(rng_.below(platform_.device_count())));
      return TaskReassignment{node, device};
    };
    for (std::size_t i = 0; i < GetParam().moves; ++i) {
      const std::size_t probes = 1 + rng_.below(4);
      for (std::size_t k = 0; k < probes; ++k) {
        if (mixed) inc.set_probe_mode(kModes[rng_.below(3)]);
        const TaskReassignment move = random_move();
        Mapping probed = current;
        probed[move.node] = move.device;
        const double exact =
            cost_->area_feasible(probed)
                ? eval_->evaluate_order(probed, inc.order(), ctx)
                : kInfeasible;
        const double cutoffs[] = {exact, std::nextafter(exact, 0.0),
                                  std::nextafter(exact, kInfeasible),
                                  1.5 * exact, inc.order_makespan()};
        const double cutoff = cutoffs[rng_.below(5)];
        const double got = inc.probe(move, cutoff);
        if (exact < cutoff) {
          ASSERT_EQ(got, exact) << "step " << i << " probe " << k;
        } else {
          ASSERT_GE(got, cutoff) << "step " << i << " probe " << k;
        }
        ASSERT_NO_FATAL_FAILURE(expect_agreement(inc, current))
            << "step " << i << " probe " << k;
      }
      const TaskReassignment move = random_move();
      inc.apply(move);
      current[move.node] = move.device;
      ASSERT_NO_FATAL_FAILURE(expect_agreement(inc, current)) << "step " << i;
    }
    if (GetParam().wide) stopped += inc.stopped_probe_count();
  }
  if (GetParam().wide) wide_stops->add(stopped);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IncrementalProperty, ::testing::ValuesIn(kGrid),
    [](const ::testing::TestParamInfo<IncCase>& info) {
      const char* mode = info.param.mode == kInc  ? "_finc"
                         : info.param.mode == kFb ? "_ffb"
                                                  : "";
      return "n" + std::to_string(info.param.nodes) + "_e" +
             std::to_string(info.param.extra_edges) + "_s" +
             std::to_string(info.param.seed) +
             (info.param.wide ? "_wide" : "") + mode;
    });

}  // namespace
}  // namespace spmap
