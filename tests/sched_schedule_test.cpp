#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "mappers/registry.hpp"
#include "test_support.hpp"

namespace spmap {
namespace {

using testing::chain_dag;
using testing::cpu_fpga_platform;
using testing::serial_streamable_attrs;

TEST(Schedule, ExtractChainAllCpu) {
  const Dag d = chain_dag(3);
  const auto attrs = serial_streamable_attrs(3);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const Mapping m(3, DeviceId(0u));
  const Schedule s = extract_schedule(eval, m);
  ASSERT_EQ(s.tasks.size(), 3u);
  EXPECT_NEAR(s.makespan, 3.0, 1e-12);
  // Serial chain: tasks back to back.
  EXPECT_DOUBLE_EQ(s.tasks[0].start, 0.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 1.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 2.0);
  EXPECT_NO_THROW(s.validate(d, p, m));
}

TEST(Schedule, MakespanMatchesEvaluator) {
  Rng rng(3);
  const Dag d = generate_sp_dag(40, rng);
  const TaskAttrs attrs = random_task_attrs(d, rng);
  const Platform p = reference_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost, {.random_orders = 20});
  auto mapper = MapperRegistry::instance().create("spff", d, rng);
  const MapperResult r = mapper->map(eval);
  const Schedule s = extract_schedule(eval, r.mapping);
  EXPECT_NEAR(s.makespan, eval.evaluate(r.mapping), 1e-12);
  EXPECT_NO_THROW(s.validate(d, p, r.mapping));
}

TEST(Schedule, ValidatePassesForManyRandomMappings) {
  Rng rng(5);
  for (int rep = 0; rep < 10; ++rep) {
    const Dag base = generate_sp_dag(30, rng);
    const Dag d = add_random_edges(base, 10, rng);
    const TaskAttrs attrs = random_task_attrs(d, rng);
    const Platform p = reference_platform();
    const CostModel cost(d, attrs, p);
    const Evaluator eval(cost, {.random_orders = 5});
    Mapping m(d.node_count(), DeviceId(0u));
    for (auto& dev : m.device) dev = DeviceId(rng.below(3));
    if (!cost.area_feasible(m)) {
      for (auto& dev : m.device) {
        if (dev == DeviceId(2u)) dev = DeviceId(0u);
      }
    }
    const Schedule s = extract_schedule(eval, m);
    EXPECT_NO_THROW(s.validate(d, p, m)) << "rep " << rep;
  }
}

TEST(Schedule, StreamedStagesMayOverlap) {
  const Dag d = chain_dag(4);
  const auto attrs = serial_streamable_attrs(4);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const Mapping m(4, DeviceId(1u));  // all on FPGA
  const Schedule s = extract_schedule(eval, m);
  // Pipeline: downstream stages start before upstream ones finish.
  EXPECT_LT(s.tasks[1].start, s.tasks[0].finish);
  EXPECT_NO_THROW(s.validate(d, p, m));
}

TEST(Schedule, InfeasibleMappingRejected) {
  const Dag d = chain_dag(3);
  TaskAttrs attrs = serial_streamable_attrs(3);
  attrs.area = {60.0, 60.0, 60.0};
  const Platform p = cpu_fpga_platform(1.0, /*fpga_area_budget=*/100.0);
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const Mapping m(3, DeviceId(1u));
  EXPECT_THROW(extract_schedule(eval, m), Error);
}

TEST(Schedule, JsonRendering) {
  Dag d(2);
  d.set_label(NodeId(0), "produce");
  d.set_label(NodeId(1), "consume");
  d.add_edge(NodeId(0), NodeId(1), 100.0);
  const auto attrs = serial_streamable_attrs(2);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const Schedule s = extract_schedule(eval, Mapping(2, DeviceId(0u)));
  const Json doc = s.to_json(d, p);
  EXPECT_DOUBLE_EQ(doc.at("makespan").as_double(), s.makespan);
  const auto& tasks = doc.at("tasks").as_array();
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].at("label").as_string(), "produce");
  EXPECT_EQ(tasks[0].at("device").as_string(), "cpu");
}

TEST(Schedule, GanttRendering) {
  const Dag d = chain_dag(3);
  const auto attrs = serial_streamable_attrs(3);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const Schedule s = extract_schedule(eval, Mapping(3, DeviceId(0u)));
  const std::string gantt = s.to_gantt(d, p, 30);
  // Three rows, each with bars.
  EXPECT_EQ(std::count(gantt.begin(), gantt.end(), '\n'), 3);
  EXPECT_NE(gantt.find('#'), std::string::npos);
}

TEST(Schedule, ValidateCatchesCorruption) {
  const Dag d = chain_dag(3);
  const auto attrs = serial_streamable_attrs(3);
  const Platform p = cpu_fpga_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const Mapping m(3, DeviceId(0u));
  Schedule s = extract_schedule(eval, m);
  s.tasks[2].start = 0.0;  // consumer now starts before producer finishes
  EXPECT_THROW(s.validate(d, p, m), Error);
}

}  // namespace
}  // namespace spmap
