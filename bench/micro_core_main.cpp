/// Micro-benchmarks (google-benchmark) of the primitives behind the
/// experiments: SP graph generation, Algorithm 1 decomposition, the
/// linear-time model evaluation, subgraph-set construction and the indexed
/// heap. Not a paper figure — these quantify the building blocks and guard
/// against performance regressions.

#include <benchmark/benchmark.h>

#include "exit_codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"
#include "sched/incremental_evaluator.hpp"
#include "sched/reference_evaluator.hpp"
#include "sp/decomposition_forest.hpp"
#include "sp/subgraph_set.hpp"
#include "util/indexed_heap.hpp"
#include "util/thread_pool.hpp"
#include "wide_case.hpp"

namespace {

using namespace spmap;
using benchcase::WideCase;
using benchcase::random_moves;

void BM_GenerateSpDag(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_sp_dag(n, rng));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GenerateSpDag)->Range(16, 1024)->Complexity();

void BM_DecompositionForest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Dag dag = generate_sp_dag(n, rng);
  for (auto _ : state) {
    Rng local(3);
    benchmark::DoNotOptimize(grow_decomposition_forest(dag, local));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DecompositionForest)->Range(16, 1024)->Complexity();

void BM_DecompositionForestAlmostSp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const Dag base = generate_sp_dag(n, rng);
  const Dag dag = add_random_edges(base, n, rng);
  const auto norm = normalize_source_sink(dag);
  for (auto _ : state) {
    Rng local(5);
    benchmark::DoNotOptimize(grow_decomposition_forest(norm.dag, local));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DecompositionForestAlmostSp)->Range(16, 1024)->Complexity();

void BM_SubgraphSet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const Dag dag = generate_sp_dag(n, rng);
  for (auto _ : state) {
    Rng local(7);
    benchmark::DoNotOptimize(series_parallel_subgraphs(dag, local));
  }
}
BENCHMARK(BM_SubgraphSet)->Range(16, 1024);

void BM_EvaluateMakespan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Dag dag = generate_sp_dag(n, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);
  Mapping mapping(n, DeviceId(0u));
  for (std::size_t i = 0; i < n; i += 4) {
    mapping.device[i] = DeviceId(1u);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(mapping));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EvaluateMakespan)->Range(16, 4096)->Complexity(benchmark::oN);

void BM_EvaluateMakespanReference(benchmark::State& state) {
  // The retained naive evaluation path — the flat core's baseline.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Dag dag = generate_sp_dag(n, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  ReferenceEvaluator eval(cost);
  Mapping mapping(n, DeviceId(0u));
  for (std::size_t i = 0; i < n; i += 4) {
    mapping.device[i] = DeviceId(1u);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(mapping));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EvaluateMakespanReference)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_IncrementalReassign(benchmark::State& state) {
  // One iteration = probe(random single-task reassignment) on the
  // incremental engine — the trace-free local-search probe primitive — on
  // the same (SP graph, reference platform, scattered mapping) case as
  // BM_EvaluateMakespan. This configuration is queue- and link-saturated,
  // so most probes genuinely reprice a large suffix; see the *Wide variants
  // for the dependency-bound regime.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Dag dag = generate_sp_dag(n, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);
  Mapping mapping(n, DeviceId(0u));
  for (std::size_t i = 0; i < n; i += 4) {
    mapping.device[i] = DeviceId(1u);
  }
  IncrementalEvaluator inc(eval);
  inc.reset(mapping);
  const auto moves = random_moves(1024, mapping, platform.device_count(), 12);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inc.probe(moves[i]));
    i = (i + 1) & 1023;
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IncrementalReassign)->Range(16, 4096);

void BM_EvaluateMakespanWide(benchmark::State& state) {
  // Full flat evaluation of the wide-workflow many-core case — the
  // denominator of the incremental speedup in that regime.
  const auto n = static_cast<std::size_t>(state.range(0));
  WideCase c(n, 8);
  const CostModel cost(c.dag, c.attrs, c.platform);
  const Evaluator eval(cost);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(c.mapping));
  }
  state.SetComplexityN(static_cast<std::int64_t>(c.dag.node_count()));
}
BENCHMARK(BM_EvaluateMakespanWide)->Range(256, 4096);

void BM_IncrementalReassignWide(benchmark::State& state) {
  // The probe primitive on the wide-workflow many-core case: perturbations
  // are absorbed at joins and idle slots, so a probe re-prices
  // only a short affected suffix (>= 5x faster than the full sweep at 4096
  // tasks; recorded in BENCH_eval.json by bench_perf_report).
  const auto n = static_cast<std::size_t>(state.range(0));
  WideCase c(n, 8);
  const CostModel cost(c.dag, c.attrs, c.platform);
  const Evaluator eval(cost);
  IncrementalEvaluator inc(eval);
  inc.reset(c.mapping);
  const auto moves =
      random_moves(1024, c.mapping, c.platform.device_count(), 12);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inc.probe(moves[i]));
    i = (i + 1) & 1023;
  }
  state.SetComplexityN(static_cast<std::int64_t>(c.dag.node_count()));
}
BENCHMARK(BM_IncrementalReassignWide)->Range(256, 4096);

void BM_EvaluateBatch(benchmark::State& state) {
  // args: nodes, worker threads. Batch of 64 candidate mappings per call —
  // the shape of one NSGA-II generation or a decomposition frontier chunk.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  Rng rng(11);
  const Dag dag = generate_sp_dag(n, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = reference_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);
  std::vector<Mapping> batch;
  batch.reserve(64);
  for (int i = 0; i < 64; ++i) {
    batch.push_back(random_feasible_mapping(cost, rng));
  }
  ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate_batch(batch, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EvaluateBatch)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({4096, 1})
    ->Args({4096, 4});

void BM_IndexedHeapChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  IndexedMaxHeap heap(n);
  for (std::size_t k = 0; k < n; ++k) {
    heap.push_or_update(k, rng.uniform());
  }
  for (auto _ : state) {
    const std::size_t key = rng.below(n);
    heap.push_or_update(key, rng.uniform());
    benchmark::DoNotOptimize(heap.top());
  }
}
BENCHMARK(BM_IndexedHeapChurn)->Range(64, 4096);

void BM_BfsOrder(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  const Dag dag = generate_sp_dag(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_order(dag));
  }
}
BENCHMARK(BM_BfsOrder)->Range(64, 4096);

}  // namespace

// BENCHMARK_MAIN() with the exit-code contract: an unrecognized flag is a
// usage error.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return spmap::cli::kExitUsage;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return spmap::cli::kExitOk;
}
