/// The anytime run API (mappers/run_api.hpp): deadlines and cancellation
/// terminate promptly with the right TerminationReason and a valid
/// incumbent; budgets truncate deterministically (identical budget + seed
/// => bit-identical MapReport across threads= values, wall-clock fields
/// excluded); one-shot mappers report convergence; shared run options bake
/// into the default request.

#include <gtest/gtest.h>

#include <thread>

#include "graph/generators.hpp"
#include "mappers/registry.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"
#include "test_support.hpp"

namespace spmap {
namespace {

struct RunApiCase {
  Dag dag;
  TaskAttrs attrs;
  Platform platform;
  CostModel cost;
  Evaluator eval;

  explicit RunApiCase(std::uint64_t seed, std::size_t tasks = 40)
      : dag([&] {
          Rng rng(seed);
          return generate_sp_dag(tasks, rng);
        }()),
        attrs([&] {
          Rng rng(seed + 1);
          return random_task_attrs(dag, rng);
        }()),
        platform(reference_platform()),
        cost(dag, attrs, platform),
        eval(cost) {}

  MapReport run(const std::string& spec, const MapRequest& request,
                std::uint64_t rng_seed = 1) const {
    Rng rng(rng_seed);
    auto mapper = MapperRegistry::instance().create(spec, dag, rng);
    return mapper->map(eval, request);
  }
};

void expect_valid_mapping(const RunApiCase& c, const MapReport& report) {
  ASSERT_EQ(report.mapping.size(), c.dag.node_count());
  EXPECT_NO_THROW(
      report.mapping.validate(c.dag.node_count(), c.platform.device_count()));
  EXPECT_LT(report.predicted_makespan, kInfeasible);
}

// ---- termination reasons ----

TEST(RunApi, OneShotMappersConverge) {
  const RunApiCase c(11);
  for (const char* spec : {"cpu", "heft", "peft", "laheft", "spff"}) {
    const MapReport report = c.run(spec, MapRequest{});
    EXPECT_EQ(report.termination, TerminationReason::kConverged) << spec;
    expect_valid_mapping(c, report);
    ASSERT_FALSE(report.trajectory.empty()) << spec;
    EXPECT_EQ(report.trajectory.back().makespan, report.predicted_makespan)
        << spec;
  }
}

TEST(RunApi, LocalSearchDeadlineReturnsIncumbentPromptly) {
  const RunApiCase c(12);
  MapRequest request;
  request.deadline_ms = 10.0;
  // A search that would take minutes unbounded.
  const MapReport report =
      c.run("anneal:iters=500000000,restarts=8,seed=3", request);
  EXPECT_EQ(report.termination, TerminationReason::kDeadline);
  expect_valid_mapping(c, report);
  // "Promptly": the same order of magnitude as the deadline, far from the
  // unbounded runtime. Generous bound for loaded CI machines.
  EXPECT_LT(report.wall_seconds, 2.0);
}

TEST(RunApi, ParallelLocalSearchDeadline) {
  const RunApiCase c(13);
  MapRequest request;
  request.deadline_ms = 10.0;
  const MapReport report =
      c.run("hillclimb:iters=500000000,restarts=8,threads=4,seed=3", request);
  EXPECT_EQ(report.termination, TerminationReason::kDeadline);
  expect_valid_mapping(c, report);
  EXPECT_LT(report.wall_seconds, 2.0);
}

TEST(RunApi, NsgaDeadlineReturnsIncumbentPromptly) {
  const RunApiCase c(14);
  MapRequest request;
  request.deadline_ms = 10.0;
  const MapReport report = c.run("nsga:generations=100000000,pop=20", request);
  EXPECT_EQ(report.termination, TerminationReason::kDeadline);
  expect_valid_mapping(c, report);
  EXPECT_LT(report.wall_seconds, 2.0);
}

TEST(RunApi, DecompositionDeadlineReturnsIncumbentPromptly) {
  // Unbounded, either mapper takes seconds on this graph; the deadline is
  // polled between chunks of frontier candidates.
  const RunApiCase c(15, /*tasks=*/1000);
  MapRequest request;
  request.deadline_ms = 10.0;
  for (const char* spec : {"sn", "sp"}) {
    const MapReport report = c.run(spec, request);
    EXPECT_EQ(report.termination, TerminationReason::kDeadline) << spec;
    expect_valid_mapping(c, report);
    EXPECT_LT(report.wall_seconds, 2.0) << spec;
  }
}

TEST(RunApi, PreCancelledTokenStopsEveryMapper) {
  const RunApiCase c(15, 20);
  MapRequest request;
  request.cancel.request_cancel();
  for (const char* spec :
       {"heft", "peft", "laheft", "sn", "spff", "nsga:generations=5,pop=8",
        "hillclimb:iters=1000", "tabu:iters=1000", "wgdp-dev"}) {
    const MapReport report = c.run(spec, request);
    EXPECT_EQ(report.termination, TerminationReason::kCancelled) << spec;
    expect_valid_mapping(c, report);
  }
}

TEST(RunApi, CancellationFromAnotherThreadTerminates) {
  const RunApiCase c(16);
  MapRequest request;
  CancelToken token = request.cancel;  // copies alias the same flag
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.request_cancel();
  });
  const MapReport report =
      c.run("anneal:iters=500000000,restarts=4,seed=9", request);
  canceller.join();
  EXPECT_EQ(report.termination, TerminationReason::kCancelled);
  expect_valid_mapping(c, report);
  EXPECT_LT(report.wall_seconds, 5.0);
}

// ---- budgets ----

TEST(RunApi, NsgaIterationBudget) {
  const RunApiCase c(17);
  MapRequest request;
  request.max_iterations = 3;
  const MapReport report = c.run("nsga:generations=50,pop=10,seed=2", request);
  EXPECT_EQ(report.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(report.iterations, 3u);
  expect_valid_mapping(c, report);
}

TEST(RunApi, NsgaEvaluationBudget) {
  const RunApiCase c(18);
  MapRequest request;
  request.max_evaluations = 25;  // initial pop (10) + two generations
  const MapReport report = c.run("nsga:generations=50,pop=10,seed=2", request);
  EXPECT_EQ(report.termination, TerminationReason::kBudgetExhausted);
  EXPECT_LE(report.evaluations, 30u);
  expect_valid_mapping(c, report);
}

TEST(RunApi, LocalSearchBudgetTruncatesProbes) {
  const RunApiCase c(19);
  MapRequest request;
  request.max_iterations = 100;
  const MapReport report =
      c.run("hillclimb:iters=5000,restarts=4,seed=7", request);
  EXPECT_EQ(report.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(report.iterations, 100u);
  expect_valid_mapping(c, report);
}

TEST(RunApi, BudgetLargerThanPlannedWorkConverges) {
  const RunApiCase c(20);
  MapRequest request;
  request.max_iterations = 1000000;
  const MapReport report =
      c.run("hillclimb:iters=50,restarts=2,seed=7", request);
  EXPECT_EQ(report.termination, TerminationReason::kConverged);
  EXPECT_EQ(report.iterations, 100u);  // 2 restarts * 50 probes, untruncated
}

TEST(RunApi, MilpNodeBudget) {
  const RunApiCase c(21, 12);
  MapRequest request;
  request.max_iterations = 5;  // B&B nodes
  const MapReport report = c.run("zhouliu:time-limit=10", request);
  EXPECT_EQ(report.termination, TerminationReason::kBudgetExhausted);
  EXPECT_LE(report.iterations, 5u);
  expect_valid_mapping(c, report);  // warm start guarantees an incumbent
}

// ---- determinism ----

/// Deterministic (non-wall-clock) fields of two reports must match.
void expect_reports_identical(const MapReport& a, const MapReport& b,
                              const std::string& label) {
  EXPECT_EQ(a.mapping, b.mapping) << label;
  EXPECT_EQ(a.predicted_makespan, b.predicted_makespan) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.evaluations, b.evaluations) << label;
  EXPECT_EQ(a.termination, b.termination) << label;
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << label;
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].makespan, b.trajectory[i].makespan) << label;
    EXPECT_EQ(a.trajectory[i].iteration, b.trajectory[i].iteration) << label;
  }
}

TEST(RunApi, BudgetedReportBitIdenticalAcrossThreadCounts) {
  const RunApiCase c(22);
  MapRequest request;
  request.max_iterations = 777;  // truncates mid-restart
  for (const char* base : {"hillclimb", "anneal", "tabu"}) {
    const std::string spec =
        std::string(base) + ":iters=400,restarts=4,seed=11,threads=";
    const MapReport serial = c.run(spec + "1", request);
    const MapReport parallel = c.run(spec + "4", request);
    EXPECT_EQ(serial.termination, TerminationReason::kBudgetExhausted);
    expect_reports_identical(serial, parallel, base);
  }
}

TEST(RunApi, NsgaBudgetedReportBitIdenticalAcrossThreadCounts) {
  const RunApiCase c(23);
  MapRequest request;
  request.max_evaluations = 64;
  const MapReport serial =
      c.run("nsga:generations=50,pop=16,seed=4,threads=1", request);
  const MapReport parallel =
      c.run("nsga:generations=50,pop=16,seed=4,threads=4", request);
  expect_reports_identical(serial, parallel, "nsga");
}

TEST(RunApi, RequestSeedOverridesConstructedSeed) {
  const RunApiCase c(24);
  MapRequest pinned;
  pinned.seed = 99;
  const MapReport a = c.run("anneal:iters=2000,seed=5", pinned);
  const MapReport b = c.run("anneal:iters=2000,seed=6", pinned);
  expect_reports_identical(a, b, "request-seed");
}

TEST(RunApi, RequestSeedPinsStochasticInitToo) {
  const RunApiCase c(29);
  MapRequest pinned;
  pinned.seed = 99;
  // Unseeded stochastic init: each construction draws a different nsga
  // seed, so reproducibility across mapper objects requires the per-run
  // seed to reach the init sub-run as well. Distinct construction rngs
  // (rng_seed 1 vs 2) make any leak of constructed seeds visible.
  const std::string spec = "hillclimb:init=nsga:generations=3,iters=500";
  const MapReport a = c.run(spec, pinned, /*rng_seed=*/1);
  const MapReport b = c.run(spec, pinned, /*rng_seed=*/2);
  expect_reports_identical(a, b, "request-seed-init");
}

void expect_monotone_trajectory(const MapReport& report) {
  ASSERT_FALSE(report.trajectory.empty());
  for (std::size_t i = 1; i < report.trajectory.size(); ++i) {
    EXPECT_LE(report.trajectory[i].makespan,
              report.trajectory[i - 1].makespan);
    EXPECT_GE(report.trajectory[i].seconds,
              report.trajectory[i - 1].seconds);
  }
  EXPECT_EQ(report.trajectory.back().makespan, report.predicted_makespan);
}

TEST(RunApi, TrajectoryIsMonotonicAndEndsAtReportedMakespan) {
  const RunApiCase c(30);
  expect_monotone_trajectory(c.run("anneal:iters=3000,seed=4", MapRequest{}));
}

TEST(RunApi, TrajectoryMonotonicUnderReportingEvaluator) {
  // The seed incumbent is priced by the evaluator's min-over-orders
  // metric while probes use the BFS order; the trajectory must stay a
  // monotone best-makespan curve regardless.
  const RunApiCase c(31);
  const Evaluator reporting(c.cost, {.random_orders = 32});
  Rng rng(1);
  auto mapper =
      MapperRegistry::instance().create("anneal:iters=3000,seed=4", c.dag, rng);
  expect_monotone_trajectory(mapper->map(reporting, MapRequest{}));
}

// ---- shared pool + baked requests ----

TEST(RunApi, SharedPoolMatchesPrivatePool) {
  const RunApiCase c(25);
  ThreadPool pool(4);
  MapRequest shared;
  shared.pool = &pool;
  const MapReport a = c.run("nsga:generations=6,pop=12,seed=8", shared);
  const MapReport b =
      c.run("nsga:generations=6,pop=12,seed=8,threads=4", MapRequest{});
  expect_reports_identical(a, b, "shared-pool");
}

TEST(RunApi, SharedRunOptionsBakeIntoDefaultRequest) {
  const RunApiCase c(26);
  Rng rng(1);
  auto mapper = MapperRegistry::instance().create(
      "hillclimb:iters=5000,restarts=4,seed=7,max_iters=100", c.dag, rng);
  EXPECT_EQ(mapper->default_request().max_iterations, 100u);
  const MapReport report = mapper->map(c.eval);  // request-free overload
  EXPECT_EQ(report.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(report.iterations, 100u);
}

TEST(RunApi, SharedRunOptionsAcceptedByEveryMapper) {
  const RunApiCase c(27, 10);
  Rng rng(1);
  for (const std::string& name : MapperRegistry::instance().names()) {
    EXPECT_NO_THROW(MapperRegistry::instance().create(
        name + ":deadline_ms=1000,max_evals=100000,max_iters=100000", c.dag,
        rng))
        << name;
  }
  EXPECT_THROW(
      MapperRegistry::instance().create("heft:deadline_ms=-1", c.dag, rng),
      Error);
  EXPECT_THROW(
      MapperRegistry::instance().create("heft:max_evals=-1", c.dag, rng),
      Error);
}

TEST(RunApi, IncumbentCallbackFires) {
  const RunApiCase c(28);
  MapRequest request;
  std::size_t calls = 0;
  double last = kInfeasible;
  request.on_incumbent = [&](const IncumbentRecord& r) {
    ++calls;
    last = r.makespan;
  };
  const MapReport report = c.run("anneal:iters=2000,seed=3", request);
  EXPECT_EQ(calls, report.trajectory.size());
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(last, report.trajectory.back().makespan);
}

TEST(RunApi, TerminationReasonLabels) {
  EXPECT_STREQ(to_string(TerminationReason::kConverged), "converged");
  EXPECT_STREQ(to_string(TerminationReason::kBudgetExhausted),
               "budget_exhausted");
  EXPECT_STREQ(to_string(TerminationReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(TerminationReason::kCancelled), "cancelled");
}

}  // namespace
}  // namespace spmap
