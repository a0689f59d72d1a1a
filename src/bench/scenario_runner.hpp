#pragma once
/// \file scenario_runner.hpp
/// Executes a parsed Scenario and emits a `spmap-sweep-results/1` document.
///
/// The runner is the one implementation of the paper's experiment protocol
/// (Section IV-A) that every figure and table runs through:
///  * mappers run against an *inner* evaluator (breadth-first schedule
///    only — the linear-time cost function used during mapping);
///  * reported makespans use the *reporting* evaluator: minimum over a
///    breadth-first schedule and `reporting_orders` random schedules;
///  * quality is the positive relative improvement over the all-CPU
///    baseline (deteriorations count as zero);
///  * mapper execution time is wall-clock and includes construction (e.g.
///    the SP decomposition), matching the paper's end-to-end times.
///
/// The runner drives the async job layer (serve/mapping_service.hpp):
/// every (repetition, mapper) pair is one MappingService job. Graphs and
/// per-job construction rng streams are derived *serially* up front and
/// submitted FIFO, results are collected in submission order, and each job
/// builds its own evaluators — so every quality/makespan number is
/// **bit-identical for every worker count**, the serial path included.
/// Only the wall-clock `mapper_seconds_*` fields vary run to run (and are
/// noisier when workers contend for cores).
///
/// ## Thread-safety
///
/// `run_scenario` is internally parallel but a single-caller API: call it
/// from one thread at a time. `print_sweep_tables` is a pure formatter.

#include <iosfwd>

#include "bench/scenario.hpp"
#include "util/json.hpp"

namespace spmap {

struct SweepRunOptions {
  /// MappingService workers running the per-(repetition, mapper) jobs
  /// (1 = serial; results are identical either way).
  std::size_t threads = 1;
  /// Per-point progress lines on stderr.
  bool progress = true;
};

/// Runs the scenario and returns the results document
/// (`"schema": "spmap-sweep-results/1"`; see docs/FORMATS.md):
///   {
///     "schema": "spmap-sweep-results/1",
///     "scenario": ..., "platform": ..., "workload": {...},
///     "seed": ..., "repetitions": ..., "reporting_orders": ...,
///     "threads": ...,
///     "sweep_parameter": "tasks",        // only when sweeping
///     "results": [
///       {"sweep_value": 5,               // only when sweeping; a
///                                        // string for "family" sweeps
///        "mappers": [
///          {"name": "HEFT", "spec": "heft",
///           "improvement_mean": ..., "improvement_min": ...,
///           "improvement_max": ..., "makespan_mean": ...,
///           "baseline_mean": ...,
///           "mapper_seconds_mean": ..., "mapper_seconds_total": ...},
///          ...]},
///       ...]
///   }
Json run_scenario(const Scenario& scenario,
                  const SweepRunOptions& options = {});

/// Prints the human-readable view of a results document: one TSV block
/// plus aligned table per metric (improvement, execution time), one row
/// per sweep point, in the scenario's mapper order.
void print_sweep_tables(const Json& results, std::ostream& os);

}  // namespace spmap
