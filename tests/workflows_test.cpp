#include "workflows/workflows.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.hpp"
#include "mappers/decomposition.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"
#include "sp/recognizer.hpp"

namespace spmap {
namespace {

TEST(Workflows, AllFamiliesGenerateValidDags) {
  Rng rng(1);
  for (const WorkflowFamily family : all_workflow_families()) {
    const WorkflowInstance inst = generate_workflow(family, 12, rng);
    EXPECT_NO_THROW(inst.dag.validate()) << inst.name;
    EXPECT_NO_THROW(inst.attrs.validate(inst.dag)) << inst.name;
    EXPECT_GT(inst.dag.node_count(), 10u) << inst.name;
    EXPECT_GT(inst.dag.edge_count(), 0u) << inst.name;
    EXPECT_EQ(weakly_connected_components(inst.dag), 1u) << inst.name;
  }
}

TEST(Workflows, FamilyNamesMatchTable1) {
  const std::set<std::string> expected{
      "1000genome", "blast",      "bwa",    "cycles", "epigenomics",
      "montage",    "seismology", "soykb",  "srasearch"};
  std::set<std::string> got;
  for (const WorkflowFamily f : all_workflow_families()) {
    got.insert(workflow_family_name(f));
    EXPECT_EQ(workflow_family_from_name(workflow_family_name(f)), f);
  }
  EXPECT_EQ(got, expected);
  EXPECT_THROW(workflow_family_from_name("montaage"), Error);
}

TEST(Workflows, WidthScalesTaskCount) {
  Rng rng(2);
  for (const WorkflowFamily family : all_workflow_families()) {
    const auto small = generate_workflow(family, 5, rng);
    const auto large = generate_workflow(family, 40, rng);
    EXPECT_LT(small.dag.node_count(), large.dag.node_count())
        << workflow_family_name(family);
  }
}

TEST(Workflows, EpigenomicsIsAlmostSeriesParallel) {
  // The paper singles out epigenomics as "long chains executed in parallel,
  // forming a series-parallel graph".
  Rng rng(3);
  const auto inst = generate_workflow(WorkflowFamily::Epigenomics, 12, rng);
  const auto norm = normalize_source_sink(inst.dag);
  EXPECT_TRUE(is_series_parallel(norm.dag));
}

TEST(Workflows, MontageHasHeavyTail) {
  // A few end-of-pipeline tasks (mBgModel, mAdd) must dominate per-task
  // compute demand (the paper's explanation for PEFT doing well there).
  Rng rng(4);
  const auto inst = generate_workflow(WorkflowFamily::Montage, 20, rng);
  double max_complexity = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < inst.attrs.size(); ++i) {
    max_complexity = std::max(max_complexity, inst.attrs.complexity[i]);
    sum += inst.attrs.complexity[i];
  }
  // The heaviest task alone carries a sizable share of the total work.
  EXPECT_GT(max_complexity / sum, 0.05);
}

TEST(Workflows, NegativeControlsResistAcceleration) {
  // bwa and seismology: no algorithm should find a significant improvement
  // (paper Section IV-D) — verify for the decomposition mappers.
  Rng rng(6);
  const Platform platform = reference_platform();
  for (const WorkflowFamily family :
       {WorkflowFamily::Bwa, WorkflowFamily::Seismology}) {
    const auto inst = generate_workflow(family, 10, rng);
    const CostModel cost(inst.dag, inst.attrs, platform);
    const Evaluator eval(cost);
    const double base = eval.default_mapping_makespan();
    auto sp = make_series_parallel_mapper(inst.dag, rng, true);
    const MapperResult r = sp->map(eval);
    const double improvement = (base - r.predicted_makespan) / base;
    EXPECT_LT(improvement, 0.08) << workflow_family_name(family);
  }
}

TEST(Workflows, AcceleratableFamiliesImprove) {
  // Epigenomics and montage must allow double-digit improvements.
  Rng rng(7);
  const Platform platform = reference_platform();
  for (const WorkflowFamily family :
       {WorkflowFamily::Epigenomics, WorkflowFamily::Montage}) {
    const auto inst = generate_workflow(family, 10, rng);
    const CostModel cost(inst.dag, inst.attrs, platform);
    const Evaluator eval(cost);
    const double base = eval.default_mapping_makespan();
    auto sp = make_series_parallel_mapper(inst.dag, rng, true);
    const MapperResult r = sp->map(eval);
    const double improvement = (base - r.predicted_makespan) / base;
    EXPECT_GT(improvement, 0.05) << workflow_family_name(family);
  }
}

TEST(Workflows, DeterministicForSameSeed) {
  Rng a(9);
  Rng b(9);
  const auto i1 = generate_workflow(WorkflowFamily::Soykb, 8, a);
  const auto i2 = generate_workflow(WorkflowFamily::Soykb, 8, b);
  ASSERT_EQ(i1.dag.node_count(), i2.dag.node_count());
  ASSERT_EQ(i1.dag.edge_count(), i2.dag.edge_count());
  for (std::size_t i = 0; i < i1.attrs.size(); ++i) {
    EXPECT_DOUBLE_EQ(i1.attrs.complexity[i], i2.attrs.complexity[i]);
  }
}

TEST(Workflows, WidthZeroRejected) {
  Rng rng(10);
  EXPECT_THROW(generate_workflow(WorkflowFamily::Blast, 0, rng), Error);
}

}  // namespace
}  // namespace spmap
