/// End-to-end integration tests: the full pipeline a downstream user runs —
/// generate / import a workload, decompose, map with several algorithms,
/// extract and validate the schedule, round-trip through serialization.

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mappers/cpu_only.hpp"
#include "mappers/heft.hpp"
#include "mappers/lookahead_heft.hpp"
#include "mappers/peft.hpp"
#include "mappers/registry.hpp"
#include "sched/schedule.hpp"
#include "sp/decomposition_forest.hpp"
#include "sp/recognizer.hpp"
#include "workflows/workflows.hpp"

namespace spmap {
namespace {

TEST(Integration, FullPipelineOnWorkflow) {
  Rng rng(42);
  // 1. Generate a realistic workload.
  WorkflowInstance inst =
      generate_workflow(WorkflowFamily::Epigenomics, 10, rng);

  // 2. Serialize and re-import (as a user persisting workloads would).
  const std::string json = to_json(inst.dag, inst.attrs);
  const TaskGraph tg = task_graph_from_json(json);

  // 3. Model + evaluator.
  const Platform platform = reference_platform();
  const CostModel cost(tg.dag, tg.attrs, platform);
  const Evaluator eval(cost, {.random_orders = 50});
  const double baseline = eval.default_mapping_makespan();
  ASSERT_GT(baseline, 0.0);

  // 4. Map with the headline algorithm.
  auto mapper = MapperRegistry::instance().create("spff", tg.dag, rng);
  const MapperResult r = mapper->map(eval);
  EXPECT_LE(r.predicted_makespan, baseline);

  // 5. Extract, validate and export the schedule.
  const Schedule schedule = extract_schedule(eval, r.mapping);
  EXPECT_NO_THROW(schedule.validate(tg.dag, platform, r.mapping));
  EXPECT_NEAR(schedule.makespan, eval.evaluate(r.mapping), 1e-12);
  const Json sjson = schedule.to_json(tg.dag, platform);
  EXPECT_EQ(sjson.at("tasks").as_array().size(), tg.dag.node_count());
}

TEST(Integration, AllMappersAgreeOnTrivialGraph) {
  // A single-task graph: every algorithm must map it somewhere feasible
  // and report the same best single-device time.
  Dag dag(1);
  dag.set_label(NodeId(0), "only");
  TaskAttrs attrs;
  attrs.resize(1);
  attrs.complexity[0] = 8.0;
  attrs.parallelizability[0] = 1.0;
  attrs.streamability[0] = 8.0;
  attrs.area[0] = 8.0;
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);

  // With no edges there is no data; the task is free everywhere.
  CpuOnlyMapper cpu;
  HeftMapper heft;
  LookaheadHeftMapper laheft;
  PeftMapper peft;
  Rng rng(1);
  auto sp = MapperRegistry::instance().create("spff", dag, rng);
  for (Mapper* m : std::initializer_list<Mapper*>{&cpu, &heft, &laheft,
                                                  &peft, sp.get()}) {
    const MapperResult r = m->map(eval);
    EXPECT_NO_THROW(r.mapping.validate(1, platform.device_count()))
        << m->name();
    EXPECT_LT(r.predicted_makespan, kInfeasible) << m->name();
  }
}

TEST(Integration, DecompositionBeatsListSchedulingOnStreamChains) {
  // The paper's central claim, end to end: on deep, data-bound streamable
  // pipelines pinned to the host at both ends, per-task EFT reasoning
  // (HEFT) never crosses the expensive boundary transfer, while the SP
  // decomposition moves whole branch interiors onto the FPGA at once.
  //
  // Structure: io_head -> one deep 8-stage chain -> io_tail, plus a tiny
  // metadata side branch head -> m -> tail (so the chain interior is a
  // series operation nested in a parallel one, i.e. an SP candidate).
  Rng rng(5);
  constexpr std::size_t kStages = 8;
  Dag dag(3 + kStages);
  const NodeId head(0);
  const NodeId tail(1);
  const NodeId meta(2);
  dag.add_edge(head, meta, 10.0);
  dag.add_edge(meta, tail, 10.0);
  std::uint32_t next = 3;
  NodeId prev = head;
  for (std::size_t s = 0; s < kStages; ++s) {
    const NodeId cur(next++);
    dag.add_edge(prev, cur, 400.0);  // heavy payloads
    prev = cur;
  }
  dag.add_edge(prev, tail, 400.0);
  TaskAttrs attrs;
  attrs.resize(dag.node_count());
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    // Data-bound stages: the ~270 ms boundary transfer exceeds what any
    // single move can save.
    attrs.complexity[i] = 2.0;
    attrs.parallelizability[i] = 0.2;  // thread-hostile
    attrs.streamability[i] = 12.0;     // dataflow-friendly
    attrs.area[i] = 6.0;               // both branches fit the FPGA
  }
  // Head and tail are host I/O: they pin the pipeline ends to the CPU.
  for (const NodeId io : {head, tail}) {
    attrs.parallelizability[io.v] = 0.9;
    attrs.streamability[io.v] = 0.05;
  }
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost, {.random_orders = 20});
  const double baseline = eval.default_mapping_makespan();

  HeftMapper heft;
  auto sn = MapperRegistry::instance().create("snff", dag, rng);
  auto sp = MapperRegistry::instance().create("spff", dag, rng);
  const double heft_ms = eval.evaluate(heft.map(eval).mapping);
  const double sn_ms = eval.evaluate(sn->map(eval).mapping);
  const double sp_ms = eval.evaluate(sp->map(eval).mapping);

  EXPECT_LT(sp_ms, 0.75 * baseline) << "SP must stream the branches";
  EXPECT_LT(sp_ms, heft_ms) << "HEFT stays behind the transfer barrier";
  EXPECT_LT(sp_ms, sn_ms) << "single moves cannot cross the barrier";
}

TEST(Integration, LookaheadHeftValidAndComparableToHeft) {
  Rng rng(9);
  for (int rep = 0; rep < 5; ++rep) {
    const Dag base = generate_sp_dag(40, rng);
    const Dag dag = add_random_edges(base, 10, rng);
    const TaskAttrs attrs = random_task_attrs(dag, rng);
    const Platform platform = reference_platform();
    const CostModel cost(dag, attrs, platform);
    const Evaluator eval(cost);
    HeftMapper heft;
    LookaheadHeftMapper laheft;
    const MapperResult rh = heft.map(eval);
    const MapperResult rl = laheft.map(eval);
    EXPECT_NO_THROW(
        rl.mapping.validate(dag.node_count(), platform.device_count()));
    EXPECT_TRUE(cost.area_feasible(rl.mapping));
    // Not necessarily better on every instance, but in the same regime.
    EXPECT_LT(rl.predicted_makespan, 3.0 * rh.predicted_makespan);
  }
}

TEST(Integration, DecomposeRecognizeAgreeOnWorkflows) {
  Rng rng(11);
  for (const WorkflowFamily family : all_workflow_families()) {
    const WorkflowInstance inst = generate_workflow(family, 8, rng);
    const Normalized norm = normalize_source_sink(inst.dag);
    const bool sp = is_series_parallel(norm.dag);
    const auto result = grow_decomposition_forest(norm.dag, rng);
    EXPECT_EQ(result.cuts == 0, sp) << workflow_family_name(family);
    result.forest.validate(norm.dag);
  }
}

}  // namespace
}  // namespace spmap
