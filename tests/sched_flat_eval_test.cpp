/// Equivalence and determinism suite for the flat evaluation core:
///  * the flat Evaluator must agree with the retained naive
///    ReferenceEvaluator on random SP, almost-SP and workflow DAGs under
///    random mappings and every prepared schedule order;
///  * Evaluator::evaluate_batch must be bit-identical across thread counts
///    (and to the serial path);
///  * every value of Evaluator::evaluate_moves must equal `evaluate` of
///    the moved mapping bit for bit, for every thread count, with the
///    evaluation count `evaluate` would have made; under a cutoff, every
///    value below it must still be exact and every other one at or above
///    it, at an unchanged count;
///  * the FlatGraph CSR view must mirror the Dag adjacency exactly;
///  * the incremental engine's slot rings (`SortedSlots`) must hold each
///    device's sorted multiset after every `replace_min`, and compare
///    equal exactly when their logical orders do, whatever their heads.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <vector>

#include "graph/flat_graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "model/platform.hpp"
#include "model/platform_io.hpp"
#include "sched/evaluator.hpp"
#include "sched/reference_evaluator.hpp"
#include "sched/sweep_kernel.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"
#include "workflows/workflows.hpp"

namespace spmap {
namespace {

/// Flat evaluator and naive reference must agree on every prepared order
/// and on the min-over-orders makespan, for several random mappings.
/// Exact equality, not a tolerance: both paths are written to perform the
/// same floating-point operations in the same order (the documented
/// contract of reference_evaluator.hpp), which is well inside the issue's
/// 1e-12 requirement.
void expect_flat_matches_reference(const Dag& dag, const TaskAttrs& attrs,
                                   Rng& rng) {
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const EvalParams params{.random_orders = 10, .seed = 77};
  const Evaluator flat(cost, params);
  ReferenceEvaluator reference(cost, params);
  ASSERT_EQ(flat.orders().size(), reference.orders().size());

  for (int rep = 0; rep < 5; ++rep) {
    const Mapping m = random_feasible_mapping(cost, rng);
    const double a = flat.evaluate(m);
    const double b = reference.evaluate(m);
    ASSERT_LT(a, kInfeasible);
    EXPECT_EQ(a, b);
    EvalContext ctx;
    for (std::size_t o = 0; o < flat.orders().size(); ++o) {
      EXPECT_EQ(flat.evaluate_order(m, flat.orders()[o], ctx),
                reference.evaluate_order(m, reference.orders()[o]));
    }
  }
}

TEST(FlatEvalEquivalence, RandomSpDags) {
  Rng rng(101);
  for (const std::size_t n : {2u, 9u, 40u, 150u}) {
    const Dag dag = generate_sp_dag(n, rng);
    const TaskAttrs attrs = random_task_attrs(dag, rng);
    expect_flat_matches_reference(dag, attrs, rng);
  }
}

TEST(FlatEvalEquivalence, AlmostSpDags) {
  Rng rng(102);
  for (const std::size_t n : {12u, 60u, 200u}) {
    const Dag base = generate_sp_dag(n, rng);
    const Dag dag = add_random_edges(base, n / 2, rng);
    const TaskAttrs attrs = random_task_attrs(dag, rng);
    expect_flat_matches_reference(dag, attrs, rng);
  }
}

TEST(FlatEvalEquivalence, WorkflowDags) {
  Rng rng(103);
  for (const WorkflowFamily family : all_workflow_families()) {
    WorkflowInstance instance = generate_workflow(family, 8, rng);
    expect_flat_matches_reference(instance.dag, instance.attrs, rng);
  }
}

TEST(FlatEvalEquivalence, InfeasibleMappingAgreed) {
  // Saturate the FPGA so both paths must report +infinity.
  Rng rng(104);
  const Dag dag = generate_sp_dag(30, rng);
  TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  double budget = 0.0;
  for (const DeviceId f : platform.fpga_devices()) {
    budget = std::max(budget, platform.device(f).area_budget);
  }
  for (auto& a : attrs.area) a = budget;  // any two FPGA tasks overflow
  const CostModel cost(dag, attrs, platform);
  const Evaluator flat(cost);
  ReferenceEvaluator reference(cost);
  Mapping m(dag.node_count(), platform.fpga_devices().front());
  EXPECT_EQ(flat.evaluate(m), kInfeasible);
  EXPECT_EQ(reference.evaluate(m), kInfeasible);
}

TEST(FlatEvalEquivalence, ForeignOrderFallback) {
  // evaluate_order on an order the evaluator did not prepare (a transient
  // walk plan) must match the reference as well.
  Rng rng(105);
  const Dag dag = generate_sp_dag(50, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator flat(cost);  // breadth-first order only
  ReferenceEvaluator reference(cost);
  const Mapping m = random_feasible_mapping(cost, rng);
  EvalContext ctx;
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<NodeId> order = random_topological_order(dag, rng);
    EXPECT_DOUBLE_EQ(flat.evaluate_order(m, order, ctx),
                     reference.evaluate_order(m, order));
  }
}

TEST(EvaluateBatch, BitIdenticalAcrossThreadCounts) {
  Rng rng(106);
  const Dag dag = generate_sp_dag(80, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost, {.random_orders = 3});

  std::vector<Mapping> batch;
  for (int i = 0; i < 37; ++i) {
    batch.push_back(random_feasible_mapping(cost, rng));
  }
  EvalContext ctx;
  const std::vector<double> serial = eval.evaluate_batch(batch, ctx);
  ASSERT_EQ(serial.size(), batch.size());
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    const std::vector<double> parallel =
        eval.evaluate_batch(batch, ctx, &pool);
    // Bitwise equality, not approximate: the partition is static and each
    // item's arithmetic is identical on every worker.
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(EvaluateBatch, MatchesSingleEvaluations) {
  Rng rng(107);
  const Dag dag = generate_sp_dag(40, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);
  std::vector<Mapping> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(random_feasible_mapping(cost, rng));
  }
  ThreadPool pool(4);
  EvalContext ctx;
  const std::vector<double> results = eval.evaluate_batch(batch, ctx, &pool);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], eval.evaluate(batch[i]));
  }
}

TEST(EvaluateBatch, CountsEvaluations) {
  Rng rng(108);
  const Dag dag = generate_sp_dag(20, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost, {.random_orders = 2});  // 3 orders total
  // 20 mappings are three chunks, one per worker: the caller's context
  // and both child contexts price some.
  std::vector<Mapping> batch(20, eval.default_mapping());
  ThreadPool pool(3);
  EvalContext ctx;
  eval.evaluate_batch(batch, ctx, &pool);
  EXPECT_EQ(ctx.evaluations(), 60u);  // 20 mappings x 3 orders
  eval.evaluate_batch(batch, ctx, &pool);
  EXPECT_EQ(ctx.evaluations(), 120u);  // each child's count is folded once
}

TEST(EvalContext, ConcurrentContextsIndependent) {
  // The documented thread-safety contract: const evaluation with distinct
  // contexts. Hammer one evaluator from several threads and check every
  // result against the serial answer.
  Rng rng(109);
  const Dag dag = generate_sp_dag(60, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost, {.random_orders = 2});
  std::vector<Mapping> mappings;
  std::vector<double> expected;
  for (int i = 0; i < 24; ++i) {
    mappings.push_back(random_feasible_mapping(cost, rng));
    expected.push_back(eval.evaluate(mappings.back()));
  }
  ThreadPool pool(4);
  std::vector<double> got(mappings.size());
  pool.parallel_for(mappings.size(), [&](std::size_t begin, std::size_t end,
                                         std::size_t /*worker*/) {
    EvalContext ctx;  // per-block private context
    for (std::size_t i = begin; i < end; ++i) {
      got[i] = eval.evaluate(mappings[i], ctx);
    }
  });
  EXPECT_EQ(got, expected);
}

// ---- evaluate_moves ----

/// A move that owns its node list (`Move` only views one).
struct OwnedMove {
  std::vector<NodeId> nodes;
  DeviceId device;
};

Platform scenario_platform(const char* name) {
  return load_platform_file(std::string(SPMAP_SCENARIO_DIR) +
                            "/platforms/" + name + ".json")
      .platform;
}

/// Prices `owned` against `base` serially and on 2- and 4-worker pools,
/// through one reused context: every value must be `evaluate` of the moved
/// mapping bit for bit, and each call must count exactly (feasible moves)
/// x (orders). Returns the number of infeasible moves.
std::size_t expect_moves_exact(const Evaluator& eval, const Mapping& base,
                               const std::vector<OwnedMove>& owned) {
  std::vector<Move> moves;
  std::vector<double> expected;
  std::size_t feasible = 0;
  for (const OwnedMove& o : owned) {
    moves.push_back({o.nodes, o.device});
    Mapping moved = base;
    for (const NodeId v : o.nodes) moved[v] = o.device;
    expected.push_back(eval.evaluate(moved));
    if (expected.back() < kInfeasible) ++feasible;
  }
  EvalContext ctx;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const std::size_t before = ctx.evaluations();
    const std::span<const double> got =
        eval.evaluate_moves(base, moves, ctx, threads == 1 ? nullptr : &pool);
    EXPECT_EQ(ctx.evaluations() - before, feasible * eval.orders().size())
        << "threads=" << threads;
    EXPECT_EQ(std::vector<double>(got.begin(), got.end()), expected)
        << "threads=" << threads;
  }
  return owned.size() - feasible;
}

/// `count` moves of 1-30 distinct random nodes onto random devices (members
/// already on the target included), one move of min(30, n) nodes onto
/// each device (an FPGA overflow where areas allow), and an all-noop move
/// per device in use.
std::vector<OwnedMove> random_moves(const Mapping& base, std::size_t devices,
                                    std::size_t count, Rng& rng) {
  const std::size_t n = base.size();
  std::vector<NodeId> nodes;
  for (std::size_t v = 0; v < n; ++v) nodes.push_back(NodeId(v));
  const auto draw = [&](std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      std::swap(nodes[i], nodes[i + rng.below(n - i)]);
    }
    return std::vector<NodeId>(nodes.begin(), nodes.begin() + size);
  };
  const std::size_t max_size = std::min<std::size_t>(30, n);
  std::vector<OwnedMove> moves;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t size = 1 + rng.below(max_size);
    moves.push_back({draw(size), DeviceId(rng.below(devices))});
  }
  for (std::size_t d = 0; d < devices; ++d) {
    moves.push_back({draw(max_size), DeviceId(d)});
    OwnedMove noop{{}, DeviceId(d)};
    for (std::size_t v = 0; v < n && noop.nodes.size() < 5; ++v) {
      if (base.device[v] == DeviceId(d)) noop.nodes.push_back(NodeId(v));
    }
    if (!noop.nodes.empty()) moves.push_back(std::move(noop));
  }
  return moves;
}

/// The graphs of the evaluate_moves grids: random SP, almost-SP and
/// montage.
std::vector<TaskGraph> grid_graphs(Rng& rng) {
  std::vector<TaskGraph> graphs;
  TaskGraph sp;
  sp.dag = generate_sp_dag(60, rng);
  sp.attrs = random_task_attrs(sp.dag, rng);
  graphs.push_back(std::move(sp));
  TaskGraph almost;
  almost.dag = add_random_edges(generate_sp_dag(60, rng), 20, rng);
  almost.attrs = random_task_attrs(almost.dag, rng);
  graphs.push_back(std::move(almost));
  WorkflowInstance montage = generate_workflow(WorkflowFamily::Montage, 6, rng);
  graphs.push_back({std::move(montage.dag), std::move(montage.attrs)});
  return graphs;
}

std::vector<Platform> grid_platforms() {
  return {scenario_platform("paper_cpu_gpu_fpga"),
          scenario_platform("dual_fpga"), scenario_platform("cpu_gpu"),
          manycore_platform()};
}

TEST(EvaluateMoves, MatchesEvaluateAcrossGraphsPlatformsAndOrders) {
  Rng rng(111);
  const std::vector<TaskGraph> graphs = grid_graphs(rng);
  const std::vector<Platform> platforms = grid_platforms();
  std::size_t infeasible = 0;
  for (const TaskGraph& g : graphs) {
    for (const Platform& platform : platforms) {
      const CostModel cost(g.dag, g.attrs, platform);
      for (const std::size_t orders : {0u, 3u}) {
        const Evaluator eval(cost, {.random_orders = orders});
        for (const Mapping& base :
             {eval.default_mapping(), random_feasible_mapping(cost, rng)}) {
          infeasible += expect_moves_exact(
              eval, base,
              random_moves(base, platform.device_count(), 40, rng));
        }
      }
    }
  }
  EXPECT_GT(infeasible, 0u);  // FPGA overflows were exercised
}

/// Prices `owned` against `base` under each cutoff (just below the base,
/// the median exact value, 0 and +inf), serially and on 2- and 4-worker
/// pools: a move whose `evaluate` is below the cutoff must get exactly
/// that value, any other some value >= the cutoff, and every call must
/// count what an uncut call counts. Returns the number of values reported
/// inexactly (moves stopped early).
std::size_t expect_cutoff_sound(const Evaluator& eval, const Mapping& base,
                                const std::vector<OwnedMove>& owned) {
  std::vector<Move> moves;
  std::vector<double> exact;
  for (const OwnedMove& o : owned) {
    moves.push_back({o.nodes, o.device});
    Mapping moved = base;
    for (const NodeId v : o.nodes) moved[v] = o.device;
    exact.push_back(eval.evaluate(moved));
  }
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  EvalContext ctx;
  eval.evaluate_moves(base, moves, ctx);
  const std::size_t uncut = ctx.evaluations();
  std::size_t stopped = 0;
  for (const double cutoff : {eval.evaluate(base) - 1e-15,
                              sorted[sorted.size() / 2], 0.0, kInfeasible}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      const std::size_t before = ctx.evaluations();
      const std::span<const double> got = eval.evaluate_moves(
          base, moves, ctx, threads == 1 ? nullptr : &pool, cutoff);
      EXPECT_EQ(ctx.evaluations() - before, uncut);
      for (std::size_t i = 0; i < moves.size(); ++i) {
        if (exact[i] < cutoff) {
          EXPECT_EQ(got[i], exact[i]) << "cutoff " << cutoff;
        } else {
          EXPECT_GE(got[i], cutoff) << "exact " << exact[i];
        }
        stopped += got[i] != exact[i];
      }
    }
  }
  return stopped;
}

TEST(EvaluateMoves, CutoffKeepsEveryMoveBelowItExact) {
  Rng rng(113);
  std::vector<TaskGraph> graphs = grid_graphs(rng);
  TaskGraph one;
  one.dag = Dag(1);
  one.attrs = random_task_attrs(one.dag, rng);
  graphs.push_back(std::move(one));
  std::vector<Platform> platforms = grid_platforms();
  // Starved links: at 1e-300 GB/s a transfer takes ~1e299 s, so tails and
  // makespans reach the top of the double range; at the smallest
  // subnormal bandwidth it takes +inf.
  for (const double gbps :
       {1e-300, std::numeric_limits<double>::denorm_min()}) {
    platforms.push_back(scenario_platform("paper_cpu_gpu_fpga"));
    platforms.back().set_link(DeviceId(0u), DeviceId(1u), gbps, 0.0);
  }
  std::size_t stopped = 0;
  for (const TaskGraph& g : graphs) {
    for (const Platform& platform : platforms) {
      const CostModel cost(g.dag, g.attrs, platform);
      for (const std::size_t orders : {0u, 3u}) {
        const Evaluator eval(cost, {.random_orders = orders});
        for (const Mapping& base :
             {eval.default_mapping(), random_feasible_mapping(cost, rng)}) {
          stopped += expect_cutoff_sound(
              eval, base,
              random_moves(base, platform.device_count(), 40, rng));
        }
      }
    }
  }
  EXPECT_GT(stopped, 0u);  // the bound did stop candidates
}

TEST(EvaluateMoves, AreaBoundaryVerdictsMatchAreaFeasible) {
  // Areas 0.1 * (i + 1): the move's running area (the base's exact sum
  // plus its delta) lands one ulp from the exact node-order sum, on the
  // other side of a budget set to one of the two.
  const Dag dag = testing::chain_dag(12);
  TaskAttrs attrs = testing::serial_streamable_attrs(12);
  for (std::size_t i = 0; i < 12; ++i) attrs.area[i] = 0.1 * (i + 1);
  const DeviceId cpu(0u), fpga(1u);
  struct Case {
    double budget;
    std::vector<std::uint32_t> base_on_fpga;
    std::vector<NodeId> nodes;
    DeviceId device;
    bool feasible;
  };
  const Case cases[] = {
      // Onto the FPGA: running 1.8000000000000003, exact 1.8 (on budget).
      {1.8, {0, 1, 2}, {NodeId(3u), NodeId(7u)}, fpga, true},
      // Onto the FPGA: running 2.1, exact 2.1000000000000005 (just over).
      {2.1, {0, 1, 2}, {NodeId(6u), NodeId(7u)}, fpga, false},
      // Off the FPGA: running 1.0000000000000002, exact 1.0 (on budget).
      {1.0, {0, 1, 2, 4, 5}, {NodeId(1u), NodeId(4u)}, cpu, true},
      // Off the FPGA: running 1.2, exact 1.2000000000000002 (just over).
      {1.2, {0, 1, 2, 3, 4}, {NodeId(0u), NodeId(1u)}, cpu, false},
  };
  for (const Case& c : cases) {
    const Platform platform = testing::cpu_fpga_platform(1.0, c.budget);
    const CostModel cost(dag, attrs, platform);
    const Evaluator eval(cost, {.random_orders = 3});
    Mapping base(12, cpu);
    for (const std::uint32_t v : c.base_on_fpga) base[NodeId(v)] = fpga;
    const std::vector<OwnedMove> moves = {{c.nodes, c.device}};
    EXPECT_EQ(expect_moves_exact(eval, base, moves), c.feasible ? 0u : 1u)
        << "budget " << c.budget;
  }
}

TEST(EvaluateMoves, EmptyBatchAndSingleTaskGraph) {
  Rng rng(112);
  const Dag dag = generate_sp_dag(30, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = scenario_platform("paper_cpu_gpu_fpga");
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);
  EvalContext ctx;
  ThreadPool pool(2);
  EXPECT_TRUE(eval.evaluate_moves(eval.default_mapping(), {}, ctx, &pool)
                  .empty());
  EXPECT_EQ(ctx.evaluations(), 0u);

  const Dag one(1);
  const TaskAttrs one_attrs = random_task_attrs(one, rng);
  const CostModel one_cost(one, one_attrs, platform);
  const Evaluator one_eval(one_cost, {.random_orders = 3});
  std::vector<OwnedMove> moves;
  for (std::size_t d = 0; d < platform.device_count(); ++d) {
    moves.push_back({{NodeId(0u)}, DeviceId(d)});  // one is a no-op
  }
  EXPECT_EQ(expect_moves_exact(one_eval, one_eval.default_mapping(), moves),
            0u);
}

TEST(FlatGraph, MirrorsDagAdjacency) {
  Rng rng(110);
  Dag base = generate_sp_dag(45, rng);
  const Dag dag = add_random_edges(base, 20, rng);
  const FlatGraph flat(dag);
  ASSERT_EQ(flat.node_count(), dag.node_count());
  ASSERT_EQ(flat.edge_count(), dag.edge_count());
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    const NodeId v(i);
    const auto& in = dag.in_edges(v);
    ASSERT_EQ(flat.in_end(v) - flat.in_begin(v), in.size());
    for (std::size_t k = 0; k < in.size(); ++k) {
      const std::uint32_t slot = flat.in_begin(v) + k;
      EXPECT_EQ(flat.in_edge(slot), in[k]);
      EXPECT_EQ(flat.in_src(slot), dag.src(in[k]).v);
      EXPECT_EQ(flat.in_data_mb(slot), dag.data_mb(in[k]));
    }
    const auto& out = dag.out_edges(v);
    ASSERT_EQ(flat.out_end(v) - flat.out_begin(v), out.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      const std::uint32_t slot = flat.out_begin(v) + k;
      EXPECT_EQ(flat.out_edge(slot), out[k]);
      EXPECT_EQ(flat.out_dst(slot), dag.dst(out[k]).v);
      EXPECT_EQ(flat.out_data_mb(slot), dag.data_mb(out[k]));
    }
  }
}

/// Device spans of 1, 2, 4, 5 and 32 slots: merged spans, the smallest
/// ring, and the many-core CPU's.
const std::vector<std::size_t> kRingOffset = {0, 1, 3, 7, 12, 44};

/// Device `d`'s times in logical order: from its head, wrapping at the end
/// of its span.
std::vector<double> logical(const SortedSlots& ring, std::uint32_t d) {
  const std::size_t b = ring.offset[d];
  const std::size_t k = ring.offset[d + 1] - b;
  std::vector<double> out;
  for (std::size_t j = 0; j < k; ++j) {
    out.push_back(ring.ready[b + (ring.head[d] + j) % k]);
  }
  return out;
}

TEST(SortedSlots, ReplaceMinMatchesAMultisetReference) {
  const std::size_t devices = kRingOffset.size() - 1;
  std::vector<double> ready(kRingOffset.back(), 0.0);
  std::vector<std::uint32_t> head(devices, 0);
  const SortedSlots ring =
      SortedSlots::over(ready.data(), head.data(), kRingOffset.data());
  std::vector<std::multiset<double>> reference(devices);
  std::vector<std::size_t> wraps(devices, 0);
  for (std::size_t d = 0; d < devices; ++d) {
    const std::vector<double> zeros(kRingOffset[d + 1] - kRingOffset[d], 0.0);
    reference[d].insert(zeros.begin(), zeros.end());
  }
  Rng rng(2027);
  for (std::size_t step = 0; step < 50000; ++step) {
    const auto d = static_cast<std::uint32_t>(rng.below(devices));
    std::multiset<double>& ref = reference[d];
    // Values on a coarse grid, so equal times are common: the minimum
    // itself, a time already held, a new maximum, or a grid step above
    // the minimum.
    const double min = *ref.begin();
    double value = min;
    switch (rng.below(4)) {
      case 0: break;
      case 1: value = *std::next(ref.begin(), rng.below(ref.size())); break;
      case 2: value = *ref.rbegin() + 0.5 * rng.below(3); break;
      default: value = min + 0.5 * rng.below(8); break;
    }
    ref.erase(ref.begin());
    ref.insert(value);
    const std::uint32_t before = head[d];
    ring.replace_min(d, value);
    wraps[d] += head[d] < before ? 1 : 0;
    ASSERT_EQ(logical(ring, d), std::vector<double>(ref.begin(), ref.end()))
        << "device " << d << " step " << step;
  }
  for (std::size_t d = 0; d < devices; ++d) {
    if (kRingOffset[d + 1] - kRingOffset[d] > SortedSlots::kMergeSpan) {
      EXPECT_GT(wraps[d], 0u) << "device " << d << " never wrapped";
    }
  }
}

TEST(SortedSlots, SameSpanComparesLogicalOrder) {
  for (std::uint32_t d = 0; d + 1 < kRingOffset.size(); ++d) {
    const std::size_t b = kRingOffset[d];
    const std::size_t k = kRingOffset[d + 1] - b;
    std::vector<double> sorted(k);
    for (std::size_t j = 0; j < k; ++j) sorted[j] = 0.25 * (j / 2);  // ties
    // Lays `values` out in logical order from head `h` on device d.
    const auto ring_at = [&](std::vector<double>& ready,
                             std::vector<std::uint32_t>& head, std::size_t h,
                             const std::vector<double>& values) {
      ready.assign(kRingOffset.back(), -1.0);
      head.assign(kRingOffset.size() - 1, 0);
      head[d] = static_cast<std::uint32_t>(h);
      for (std::size_t j = 0; j < k; ++j) ready[b + (h + j) % k] = values[j];
      return SortedSlots::over(ready.data(), head.data(), kRingOffset.data());
    };
    for (const std::size_t ha : {std::size_t{0}, k / 3, k - 1}) {
      for (const std::size_t hb : {std::size_t{0}, k / 2, k - 1}) {
        std::vector<double> ready_a, ready_b;
        std::vector<std::uint32_t> head_a, head_b;
        const SortedSlots a = ring_at(ready_a, head_a, ha, sorted);
        const SortedSlots same = ring_at(ready_b, head_b, hb, sorted);
        EXPECT_TRUE(a.same_span(same, d)) << "k " << k << " heads " << ha
                                          << ", " << hb;
        EXPECT_TRUE(same.same_span(a, d));
        for (std::size_t j = 0; j < k; ++j) {
          std::vector<double> changed = sorted;
          changed[j] += 0.125;
          const SortedSlots other = ring_at(ready_b, head_b, hb, changed);
          EXPECT_FALSE(a.same_span(other, d))
              << "k " << k << " heads " << ha << ", " << hb << " value " << j;
          EXPECT_FALSE(other.same_span(a, d));
        }
      }
    }
  }
}

}  // namespace
}  // namespace spmap
