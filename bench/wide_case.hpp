#pragma once
/// \file wide_case.hpp
/// The shared wide-workflow benchmark configuration.
///
/// One definition for the "wide_manycore" regime measured both by
/// bench_perf_report (the `incremental_reassign` rows of BENCH_eval.json)
/// and by perfbench's `refine_wide` workload, so the two surfaces cannot
/// drift apart: a 16-wide
/// layered DAG (independent branch bundles with joins) on the many-core
/// scale-out platform, starting from the all-CPU default mapping.
/// Schedules here are dependency- rather than queue-bound — the regime
/// local search refines and the incremental evaluator is built for.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "sched/incremental_evaluator.hpp"

namespace spmap::benchcase {

struct WideCase {
  Dag dag;
  TaskAttrs attrs;
  Platform platform;
  Mapping mapping;

  explicit WideCase(std::size_t n, std::uint64_t seed)
      : platform(manycore_platform()) {
    Rng rng(seed);
    dag = generate_layered_dag(rng,
                               {.layers = std::max<std::size_t>(1, n / 16),
                                .min_width = 16,
                                .max_width = 16,
                                .edge_probability = 0.25});
    attrs = random_task_attrs(dag, rng);
    mapping = Mapping(dag.node_count(), platform.default_device());
  }
};

/// A deterministic stream of *genuine* single-task reassignments — the
/// local-search move sampler (never the task's current device), so no
/// O(1) no-op probes dilute a measurement.
inline std::vector<TaskReassignment> random_moves(std::size_t count,
                                                  const Mapping& mapping,
                                                  std::size_t devices,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TaskReassignment> moves;
  moves.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    moves.push_back(random_reassignment(mapping, devices, rng));
  }
  return moves;
}

}  // namespace spmap::benchcase
