#pragma once
/// \file batch.hpp
/// The pass machinery shared by the two batch workloads (paper_fig4,
/// refine_wide). A workload describes a fixed job set as cases (a graph
/// with its jobs); `run_batch` then times repeated passes over it, untraced
/// through the MappingService and, in a traced run, alternated with traced
/// passes that perform MappingService::execute's job steps themselves with
/// a span around each layer call. `report_batch` derives the end-to-end
/// and per-layer figures from the passes.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "model/platform.hpp"
#include "serve/mapping_service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

struct BatchJob {
  std::string spec;
  spmap::Rng construction;
};

struct BatchCase {
  std::shared_ptr<const spmap::TaskGraph> graph;
  /// Built in set-up and shared by every pass; null means each pass builds
  /// a fresh one, as run_scenario does once per sweep.
  std::shared_ptr<const spmap::ReportingContext> reporting;
  std::vector<BatchJob> jobs;
};

struct BatchInputs {
  std::shared_ptr<const spmap::Platform> platform;
  /// Random orders of the per-pass reporting contexts.
  std::size_t reporting_orders = 0;
  std::vector<BatchCase> cases;
};

/// One job's outcome; the numbers every pass must reproduce exactly.
struct Cell {
  double predicted = 0.0;  ///< the mapper's own makespan
  double reported = 0.0;   ///< priced by the reporting protocol
  double improvement = 0.0;
  spmap::Mapping mapping;
  JobTimes times;
  bool failed = false;
};

/// One pass: the cells in case, then job, order.
using Pass = std::vector<Cell>;

struct BatchRun {
  std::vector<double> setup_times;
  /// The untraced passes and (traced runs) the traced ones.
  std::vector<Pass> untraced, traced;
  double peak_rss_mb = 0.0;
  /// Spans of the traced passes (root "bench.pass"), of the set-ups, and
  /// of the layer phase that runs once after the timed phase.
  Tracer tracer, setup_tracer, phase_tracer;
};

/// Runs the timed phase: passes until `options.seconds` are spent (at
/// least one; a traced run alternates untraced and traced passes). Then,
/// in a traced run, the layer phase: each case's CostModel and each
/// decomposition job's SP forest on their own, outside the traced wall.
/// Tallies attempted/failed jobs and checks that every pass reproduces the
/// first untraced pass exactly.
void run_batch(const RunOptions& options, const BatchInputs& in, BatchRun& run,
               WorkloadResult& result);

/// Fills the end-to-end metrics (untraced run) or the per-layer metrics
/// (traced run) of `result`. Layer time metrics are self seconds per traced
/// pass, plus their share per set-up for layers that also run in set-up,
/// plus their layer-phase time; counters are per traced pass. Writes the
/// spans of a traced run under `options.work_dir`.
void report_batch(const RunOptions& options, BatchRun& run,
                  WorkloadResult& result);

}  // namespace perfbench
