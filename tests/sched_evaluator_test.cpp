#include "sched/evaluator.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "sched/incremental_evaluator.hpp"
#include "sched/timeline.hpp"

namespace spmap {
namespace {

/// Two-device platform with deterministic, easy-to-hand-check numbers:
/// CPU: 1 lane @ 1 Gops; FPGA: 1 Gops per streamability unit, area 100,
/// fill fraction 0.1; link 1 GB/s with zero latency
/// => a 100 MB transfer takes 0.1 s.
Platform tiny_platform() {
  Platform p;
  Device cpu;
  cpu.name = "cpu";
  cpu.kind = DeviceKind::Cpu;
  cpu.lanes = 1.0;
  cpu.lane_gops = 1.0;
  const DeviceId c = p.add_device(cpu);
  Device fpga;
  fpga.name = "fpga";
  fpga.kind = DeviceKind::Fpga;
  fpga.area_budget = 100.0;
  fpga.stream_gops_per_streamability = 1.0;
  fpga.stream_fill_fraction = 0.1;
  const DeviceId f = p.add_device(fpga);
  p.set_link(c, f, 1.0, 0.0);
  return p;
}

/// Uniform attributes: complexity 10, streamability 10, p = 1, area 10.
/// With 100 MB edges: work = 1000 Mops, CPU exec = 1 s, FPGA exec = 0.1 s.
TaskAttrs uniform_attrs(std::size_t n) {
  TaskAttrs a;
  a.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.complexity[i] = 10.0;
    a.parallelizability[i] = 1.0;
    a.streamability[i] = 10.0;
    a.area[i] = 10.0;
  }
  return a;
}

const DeviceId kCpu{0};
const DeviceId kFpga{1};

TEST(Evaluator, ChainAllCpuIsSerialSum) {
  Dag d(3);
  d.add_edge(NodeId(0), NodeId(1), 100.0);
  d.add_edge(NodeId(1), NodeId(2), 100.0);
  const auto attrs = uniform_attrs(3);
  const Platform p = tiny_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  // Each task: 1 s on CPU, no transfers.
  EXPECT_NEAR(eval.default_mapping_makespan(), 3.0, 1e-12);
}

TEST(Evaluator, IndependentTasksSerializeOnOneDevice) {
  // Two independent chains: 0->1 and 2->3.
  Dag g(4);
  g.add_edge(NodeId(0), NodeId(1), 100.0);
  g.add_edge(NodeId(2), NodeId(3), 100.0);
  const auto attrs = uniform_attrs(4);
  const Platform p = tiny_platform();
  const CostModel cost(g, attrs, p);
  const Evaluator eval(cost);
  // All four tasks on the single-lane CPU: 4 s.
  EXPECT_NEAR(eval.default_mapping_makespan(), 4.0, 1e-12);
  // Put one chain on the FPGA (streams, 0.1 s per stage): the CPU chain
  // (2 s) dominates.
  Mapping m(4, kCpu);
  m[NodeId(2)] = kFpga;
  m[NodeId(3)] = kFpga;
  const double ms = eval.evaluate(m);
  EXPECT_NEAR(ms, 2.0, 1e-9);
}

TEST(Evaluator, CrossDeviceTransferPaid) {
  Dag d(2);
  d.add_edge(NodeId(0), NodeId(1), 100.0);
  const auto attrs = uniform_attrs(2);
  const Platform p = tiny_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Mapping m(2, kCpu);
  m[NodeId(1)] = kFpga;
  // CPU task 1 s + transfer 0.1 s + FPGA task 0.1 s.
  EXPECT_NEAR(eval.evaluate(m), 1.2, 1e-12);
}

TEST(Evaluator, FpgaStreamingOverlapsChain) {
  // 4-task chain fully on FPGA: stage 0.1 s each, fill fraction 0.1.
  Dag d(4);
  for (std::uint32_t i = 0; i + 1 < 4; ++i) {
    d.add_edge(NodeId(i), NodeId(i + 1), 100.0);
  }
  const auto attrs = uniform_attrs(4);
  const Platform p = tiny_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  const Mapping m(4, kFpga);
  // start(i) = i * 0.01; finish(3) = 0.03 + 0.1.
  EXPECT_NEAR(eval.evaluate(m), 0.13, 1e-9);
  // Without streaming this would be 0.4 s; with it, far less.
  EXPECT_LT(eval.evaluate(m), 0.2);
}

TEST(Evaluator, AreaOverflowIsInfeasible) {
  Dag d(3);
  d.add_edge(NodeId(0), NodeId(1), 100.0);
  d.add_edge(NodeId(1), NodeId(2), 100.0);
  TaskAttrs attrs = uniform_attrs(3);
  attrs.area = {60.0, 60.0, 60.0};  // any two tasks overflow budget 100
  const Platform p = tiny_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  Mapping m(3, kFpga);
  EXPECT_EQ(eval.evaluate(m), kInfeasible);
  m[NodeId(0)] = kCpu;
  m[NodeId(1)] = kCpu;
  EXPECT_LT(eval.evaluate(m), kInfeasible);
}

TEST(Evaluator, DiamondParallelBranchesOverlapAcrossDevices) {
  // 0 -> {1, 2} -> 3 with 1 on FPGA: branches overlap.
  Dag d(4);
  d.add_edge(NodeId(0), NodeId(1), 100.0);
  d.add_edge(NodeId(0), NodeId(2), 100.0);
  d.add_edge(NodeId(1), NodeId(3), 100.0);
  d.add_edge(NodeId(2), NodeId(3), 100.0);
  const auto attrs = uniform_attrs(4);
  const Platform p = tiny_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost);
  // All CPU, serial. Fork/join tasks 0 and 3 see 200 MB (data volume is
  // max of in/out totals) => 2 s each; tasks 1, 2 are 1 s: 6 s total.
  EXPECT_NEAR(eval.default_mapping_makespan(), 6.0, 1e-12);
  Mapping m(4, kCpu);
  m[NodeId(1)] = kFpga;
  // CPU: 0 in [0,2] and 2 in [2,3] (transfers occupy links, not compute);
  // FPGA: 1 gets its input at 2.1, runs to 2.2, result back at 2.3; join 3
  // starts at max(2.3, 3.0) and runs 2 s => 5 s.
  EXPECT_NEAR(eval.evaluate(m), 5.0, 1e-9);
}

TEST(Evaluator, MinOverSchedulesNeverWorseThanBfs) {
  Rng rng(5);
  const Dag d = generate_sp_dag(60, rng);
  const TaskAttrs attrs = random_task_attrs(d, rng);
  const Platform p = reference_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator bfs_only(cost, {.random_orders = 0});
  const Evaluator with_random(cost, {.random_orders = 50});
  Mapping m(d.node_count(), DeviceId(0u));
  // Scatter some tasks across devices.
  for (std::size_t i = 0; i < m.size(); i += 3) {
    m.device[i] = DeviceId(1u + (i % 2));
  }
  if (!cost.area_feasible(m)) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m.device[i] == DeviceId(2u)) m.device[i] = DeviceId(0u);
    }
  }
  EXPECT_LE(with_random.evaluate(m), bfs_only.evaluate(m) + 1e-12);
}

TEST(Evaluator, MakespanAtLeastCriticalPathLowerBound) {
  // Property: makespan >= sum over any path of min-over-device exec times.
  Rng rng(6);
  for (int rep = 0; rep < 5; ++rep) {
    const Dag d = generate_sp_dag(40, rng);
    const TaskAttrs attrs = random_task_attrs(d, rng);
    const Platform p = reference_platform();
    const CostModel cost(d, attrs, p);
    const Evaluator eval(cost, {.random_orders = 10});
    // Lower bound via longest path of min exec times (no transfers).
    const auto topo = topological_order(d);
    std::vector<double> dist(d.node_count(), 0.0);
    double lb = 0.0;
    for (const NodeId v : topo) {
      dist[v.v] += cost.min_exec_time(v);
      lb = std::max(lb, dist[v.v]);
      for (const EdgeId e : d.out_edges(v)) {
        dist[d.dst(e).v] = std::max(dist[d.dst(e).v], dist[v.v]);
      }
    }
    Mapping m(d.node_count(), DeviceId(0u));
    EXPECT_GE(eval.evaluate(m) + 1e-9, lb);
  }
}

TEST(Evaluator, EvaluationCountTracksCalls) {
  Dag d(2);
  d.add_edge(NodeId(0), NodeId(1), 100.0);
  const auto attrs = uniform_attrs(2);
  const Platform p = tiny_platform();
  const CostModel cost(d, attrs, p);
  const Evaluator eval(cost, {.random_orders = 4});
  EvalContext ctx;
  EXPECT_EQ(ctx.evaluations(), 0u);
  eval.evaluate(Mapping(2, kCpu), ctx);
  EXPECT_EQ(ctx.evaluations(), 5u);  // BFS + 4 random orders
}

// ---- IncrementalEvaluator probe routing ----

/// Feeds 1024 random genuine reassignments to the kAuto probe of two
/// engines and returns the share of probes routed through the suffix
/// sweep. Routing is a pure function of the probe stream, so both engines
/// must report identical per-path counters.
double auto_sweep_share(const Dag& dag, const TaskAttrs& attrs,
                        const Platform& platform, const Mapping& mapping) {
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);
  IncrementalEvaluator a(eval);
  IncrementalEvaluator b(eval);
  a.reset(mapping);
  b.reset(mapping);
  Rng rng(12);
  for (std::size_t i = 0; i < 1024; ++i) {
    const TaskReassignment move =
        random_reassignment(mapping, platform.device_count(), rng);
    EXPECT_EQ(a.probe(move), b.probe(move));
  }
  EXPECT_EQ(a.incremental_probe_count(), b.incremental_probe_count());
  EXPECT_EQ(a.fallback_probe_count(), b.fallback_probe_count());
  EXPECT_EQ(a.incremental_replayed_total(), b.incremental_replayed_total());
  const std::size_t routed =
      a.incremental_probe_count() + a.fallback_probe_count();
  EXPECT_EQ(routed, 1024u);
  return static_cast<double>(a.fallback_probe_count()) /
         static_cast<double>(routed);
}

TEST(IncrementalRouting, SaturatedPaperCaseTakesTheSweep) {
  // SP graph on the reference platform, every 4th task on device 1: most
  // moves cascade through the suffix.
  Rng rng(8);
  const Dag dag = generate_sp_dag(1024, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  Mapping mapping(dag.node_count(), DeviceId(0u));
  for (std::size_t i = 0; i < mapping.size(); i += 4) {
    mapping.device[i] = DeviceId(1u);
  }
  EXPECT_GE(auto_sweep_share(dag, attrs, platform, mapping), 0.9);
}

TEST(IncrementalRouting, WideCaseStaysIncremental) {
  // 16-wide layered DAG on the many-core platform: moves heal quickly.
  Rng rng(8);
  const Dag dag = generate_layered_dag(rng, {.layers = 64,
                                             .min_width = 16,
                                             .max_width = 16,
                                             .edge_probability = 0.25});
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = manycore_platform();
  const Mapping mapping(dag.node_count(), platform.default_device());
  EXPECT_LE(auto_sweep_share(dag, attrs, platform, mapping), 0.1);
}

// ---- DeviceTimeline ----

TEST(DeviceTimeline, EmptyTimelineStartsAtEst) {
  DeviceTimeline t;
  EXPECT_DOUBLE_EQ(t.earliest_start(3.5, 1.0), 3.5);
}

TEST(DeviceTimeline, InsertionFillsGap) {
  DeviceTimeline t;
  t.reserve(0.0, 1.0);
  t.reserve(3.0, 1.0);
  // A 1-second task fits into the [1, 3) gap.
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 1.0), 1.0);
  // A 2.5-second task does not; it must go after the last interval.
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 2.5), 4.0);
}

TEST(DeviceTimeline, EstInsideBusyIntervalPushed) {
  DeviceTimeline t;
  t.reserve(1.0, 2.0);
  EXPECT_DOUBLE_EQ(t.earliest_start(1.5, 0.5), 3.0);
}

TEST(DeviceTimeline, ReserveKeepsOrder) {
  DeviceTimeline t;
  t.reserve(5.0, 1.0);
  t.reserve(0.0, 1.0);
  t.reserve(2.0, 1.0);
  EXPECT_EQ(t.interval_count(), 3u);
  EXPECT_DOUBLE_EQ(t.last_finish(), 6.0);
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 1.0), 1.0);
}

TEST(DeviceTimeline, ZeroDurationTask) {
  DeviceTimeline t;
  t.reserve(0.0, 2.0);
  EXPECT_DOUBLE_EQ(t.earliest_start(1.0, 0.0), 2.0);
}

}  // namespace
}  // namespace spmap
