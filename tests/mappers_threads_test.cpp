/// Thread-count invariance of the search mappers: a mapper configured with
/// threads=k must produce the exact same mapping and predicted makespan as
/// its serial (threads=1) configuration — the parallel batch evaluation is
/// an implementation detail, never a semantic one. Runs sharing one
/// Evaluator from several threads must not see each other either.

#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "bench/scenario.hpp"
#include "graph/generators.hpp"
#include "mappers/registry.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"
#include "workflows/workload_spec.hpp"

namespace spmap {
namespace {

/// Runs one registry spec twice (threads=1 vs threads=4) on the same graph
/// and expects bit-identical outcomes.
void expect_thread_invariant(const std::string& base_spec,
                             std::uint64_t graph_seed) {
  Rng graph_rng(graph_seed);
  const Dag dag = generate_sp_dag(40, graph_rng);
  const TaskAttrs attrs = random_task_attrs(dag, graph_rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);

  const char* const sep = base_spec.find(':') == std::string::npos ? ":" : ",";
  MapperResult serial;
  MapperResult parallel;
  {
    Rng rng(1);
    auto mapper = MapperRegistry::instance().create(base_spec + sep +
                                                    "threads=1", dag, rng);
    serial = mapper->map(eval);
  }
  {
    Rng rng(1);
    auto mapper = MapperRegistry::instance().create(base_spec + sep +
                                                    "threads=4", dag, rng);
    parallel = mapper->map(eval);
  }
  EXPECT_EQ(serial.mapping, parallel.mapping) << base_spec;
  EXPECT_EQ(serial.predicted_makespan, parallel.predicted_makespan)
      << base_spec;
  EXPECT_EQ(serial.iterations, parallel.iterations) << base_spec;
  EXPECT_EQ(serial.evaluations, parallel.evaluations) << base_spec;
}

TEST(MapperThreads, Nsga2Invariant) {
  expect_thread_invariant("nsga:generations=8,pop=16,seed=5", 301);
}

TEST(MapperThreads, SingleNodeInvariant) {
  expect_thread_invariant("sn", 302);
}

TEST(MapperThreads, SnFirstFitInvariant) {
  expect_thread_invariant("snff", 303);
}

TEST(MapperThreads, SeriesParallelInvariant) {
  expect_thread_invariant("sp", 304);
}

TEST(MapperThreads, SpFirstFitInvariant) {
  expect_thread_invariant("spff:gamma=2", 305);
}

TEST(MapperThreads, HillClimbInvariant) {
  expect_thread_invariant("hillclimb:init=heft,iters=400,restarts=4,seed=9",
                          307);
}

TEST(MapperThreads, AnnealInvariant) {
  expect_thread_invariant("anneal:init=heft,iters=400,restarts=4,seed=9",
                          308);
}

TEST(MapperThreads, TabuInvariant) {
  expect_thread_invariant("tabu:init=heft,iters=400,restarts=4,seed=9", 309);
}

// The committed fig4 local-search scenario's own mapper specs must be
// thread-count invariant: every spec of the line-up, run with threads=1 and
// threads=4 on a graph materialized from the scenario's workload, produces
// identical mappings and makespans.
TEST(MapperThreads, CommittedLocalSearchScenarioInvariant) {
  const Scenario scenario =
      load_scenario_file(std::string(SPMAP_SCENARIO_DIR) +
                         "/fig4_local_search.json");
  Rng workload_rng(scenario.seed);
  const TaskGraph tg =
      materialize_workload(scenario.workload, workload_rng, 0);
  const Platform platform = reference_platform();
  const CostModel cost(tg.dag, tg.attrs, platform);
  const Evaluator eval(cost);

  for (const ScenarioMapper& m : scenario.mappers) {
    const auto [name, options] = MapperRegistry::split_spec(m.spec);
    if (!MapperRegistry::instance().at(name).supports_option("threads")) {
      continue;  // the plain HEFT baseline has no parallel path
    }
    const char* const sep =
        m.spec.find(':') == std::string::npos ? ":" : ",";
    MapperResult serial;
    MapperResult parallel;
    {
      Rng rng(7);
      auto mapper = MapperRegistry::instance().create(
          m.spec + sep + "threads=1", tg.dag, rng);
      serial = mapper->map(eval);
    }
    {
      Rng rng(7);
      auto mapper = MapperRegistry::instance().create(
          m.spec + sep + "threads=4", tg.dag, rng);
      parallel = mapper->map(eval);
    }
    EXPECT_EQ(serial.mapping, parallel.mapping) << m.spec;
    EXPECT_EQ(serial.predicted_makespan, parallel.predicted_makespan)
        << m.spec;
    EXPECT_EQ(serial.evaluations, parallel.evaluations) << m.spec;
  }
}

// The Evaluator holds no per-run state (each run prices through its own
// EvalContext), so runs started together on one shared Evaluator report
// exactly what each reports alone — evaluation counts included.
TEST(MapperThreads, SharedEvaluatorRunsMatchSoloRuns) {
  Rng graph_rng(310);
  const Dag dag = generate_sp_dag(200, graph_rng);
  const TaskAttrs attrs = random_task_attrs(dag, graph_rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);

  const std::vector<std::string> specs = {
      "sp", "snff", "nsga:generations=40,pop=40,seed=3",
      "anneal:iters=4000,seed=9"};
  const auto run = [&](const std::string& spec) {
    Rng rng(1);
    return MapperRegistry::instance().create(spec, dag, rng)->map(eval);
  };
  std::vector<MapperResult> solo;
  for (const std::string& spec : specs) solo.push_back(run(spec));

  for (int round = 0; round < 3; ++round) {
    std::vector<MapperResult> shared(specs.size());
    std::latch start(static_cast<std::ptrdiff_t>(specs.size()));
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        shared[i] = run(specs[i]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(shared[i].mapping, solo[i].mapping) << specs[i];
      EXPECT_EQ(shared[i].predicted_makespan, solo[i].predicted_makespan)
          << specs[i];
      EXPECT_EQ(shared[i].iterations, solo[i].iterations) << specs[i];
      EXPECT_EQ(shared[i].evaluations, solo[i].evaluations) << specs[i];
    }
  }
}

}  // namespace
}  // namespace spmap
