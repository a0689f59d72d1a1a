/// Thread-count invariance of the search mappers: a mapper configured with
/// threads=k must produce the exact same mapping and predicted makespan as
/// its serial (threads=1) configuration — the parallel batch evaluation is
/// an implementation detail, never a semantic one. Runs sharing one
/// Evaluator from several threads must not see each other either. The
/// local-search mappers' exact results are pinned too.

#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "bench/scenario.hpp"
#include "graph/generators.hpp"
#include "mappers/registry.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"
#include "test_support.hpp"
#include "workflows/workload_spec.hpp"
#include "../bench/wide_case.hpp"

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

// Exact results of hillclimb, anneal and tabu: a change to how the
// incremental engine computes a probe route must leave all of them
// unchanged.
// The rows cover both routes of the engine's probe, by its per-path
// counters: on the 1024-task wide graph hillclimb and anneal from init=cpu
// stay on the incremental path, every init=heft row and every row on the
// SP graph take the suffix sweep for almost all probes, and the two tabu
// init=cpu rows mix both.
TEST(LocalSearch, PinnedExactResults) {
  struct Row {
    const char* spec;
    bool wide;           // wide 1024-task graph, else the SP graph
    const char* digest;  // testing::mapping_digest of the mapping
    double makespan;
    std::size_t iterations;
    std::size_t evaluations;
  };
  const Row rows[] = {
      {"hillclimb:init=cpu", true, "0e4cb9a20afc06884b1cdee54a2e4ab4",
       103.38152241988008, 1500, 1530},
      {"hillclimb:init=heft", true, "f0b2215334363ff226445c8f4e5b089e",
       115.65858107886781, 1500, 1677},
      {"anneal:init=cpu", true, "e06c89b8874993fe225e145d9f14bce6",
       111.82216232021048, 1500, 2007},
      {"anneal:init=heft", true, "2c79b86d93be0ae1424abdaa75a4169e",
       123.22264105345585, 1500, 1904},
      {"tabu:init=cpu", true, "552a54720e9ae511f97e51d67a8d383a",
       104.22566691418888, 1488, 1583},
      {"tabu:init=heft", true, "8b0ce8fe73900f946e57c4146c96f3f0",
       119.04436818829468, 1488, 1583},
      {"tabu:init=cpu,restarts=2,threads=2", true,
       "cd6c3aae288af7fb2b508f1d254dc0b0", 101.07717418599397, 2976, 3164},
      {"hillclimb:init=cpu", false, "174d84052d10ca51b497ea9a1f7ca434",
       27.202768186278242, 1500, 1574},
      {"hillclimb:init=heft", false, "82425366e64e6f31d2e0a2ef2e582d2a",
       26.184649498062061, 1500, 1544},
      {"anneal:init=cpu", false, "7f9ec36e93a3806fe96f0d3d85a02767",
       27.738311405965717, 1500, 1819},
      {"anneal:init=heft", false, "e3bb5664273819bd99c1d347b17c6ea3",
       28.47887937755549, 1500, 1757},
      {"tabu:init=cpu", false, "3ac1de5ac2b74ce07851d174685fd117",
       25.69338313272857, 1488, 1583},
      {"tabu:init=heft", false, "0d7dfe7112796ea1c675f2872df881c2",
       27.063292219671286, 1488, 1583},
  };
  const benchcase::WideCase wide(1024, 3);
  Rng rng(5);
  const Dag sp_dag = generate_sp_dag(200, rng);
  const TaskAttrs sp_attrs = random_task_attrs(sp_dag, rng);
  const Platform paper = reference_platform();
  const CostModel wide_cost(wide.dag, wide.attrs, wide.platform);
  const CostModel sp_cost(sp_dag, sp_attrs, paper);
  const Evaluator wide_eval(wide_cost);
  const Evaluator sp_eval(sp_cost);
  for (const Row& row : rows) {
    const std::string spec = std::string(row.spec) + ",iters=1500,seed=7";
    const Evaluator& eval = row.wide ? wide_eval : sp_eval;
    Rng mapper_rng(1);
    auto mapper =
        MapperRegistry::instance().create(spec, eval.dag(), mapper_rng);
    const MapReport r = mapper->map(eval, MapRequest{});
    const std::string where =
        spec + (row.wide ? " on wide" : " on sp") + ": {\"" +
        testing::mapping_digest(r.mapping) + "\", " +
        testing::exact(r.predicted_makespan) + ", " +
        std::to_string(r.iterations) + ", " + std::to_string(r.evaluations) +
        "}";
    EXPECT_EQ(testing::mapping_digest(r.mapping), row.digest) << where;
    EXPECT_EQ(r.predicted_makespan, row.makespan) << where;
    EXPECT_EQ(r.iterations, row.iterations) << where;
    EXPECT_EQ(r.evaluations, row.evaluations) << where;
  }
}

}  // namespace
}  // namespace spmap
