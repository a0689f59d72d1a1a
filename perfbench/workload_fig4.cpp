/// paper_fig4 — the paper's headline experiment (Fig. 4) end to end.
///
/// Set-up loads the committed `scenarios/fig4_list_scheduling.json`,
/// replaces its seed with the benchmark seed and materializes every graph
/// and per-job construction rng exactly as `run_scenario` does. A timed
/// pass then runs all 14 sizes x 10 repetitions x 6 mappers as
/// MappingService jobs on one worker, one job in flight at a time, each
/// repetition sharing one ReportingContext (BFS + 100 random orders plus
/// the all-CPU baseline) built fresh in every pass. Every pass, and one
/// `run_scenario` reference sweep after the timed phase, must agree bit
/// for bit on every improvement and makespan.

#include <memory>
#include <optional>

#include "batch.hpp"
#include "bench/scenario.hpp"
#include "bench/scenario_runner.hpp"
#include "common.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using namespace spmap;

struct Inputs {
  Scenario scenario;
  BatchInputs batch;
  /// The sweep value and the number of repetitions of each point.
  std::vector<std::pair<std::int64_t, std::size_t>> points;
};

/// The scenario runner's input derivation, step for step: graphs first,
/// then one split construction rng per (repetition, mapper).
Inputs build_inputs(std::uint64_t seed, Tracer* tracer) {
  Inputs in;
  in.scenario = load_scenario_file(std::string(PERFBENCH_SCENARIO_DIR) +
                                   "/fig4_list_scheduling.json");
  in.scenario.seed = seed;
  in.batch.platform =
      std::make_shared<const Platform>(in.scenario.platform.platform);
  in.batch.reporting_orders = in.scenario.reporting_orders;
  Rng rng(in.scenario.seed);
  for (const std::int64_t value : in.scenario.sweep.values) {
    WorkloadSpec workload = in.scenario.workload;
    apply_sweep_value(workload, in.scenario.sweep.parameter, value);
    const std::size_t first = in.batch.cases.size();
    {
      Scope span(tracer, "workflows.materialize");
      for (std::size_t r = 0; r < in.scenario.repetitions; ++r) {
        BatchCase c;
        c.graph = std::make_shared<const TaskGraph>(
            materialize_workload(workload, rng, r, in.scenario.base_dir));
        in.batch.cases.push_back(std::move(c));
      }
    }
    for (std::size_t c = first; c < in.batch.cases.size(); ++c) {
      for (const auto& mapper : in.scenario.mappers) {
        in.batch.cases[c].jobs.push_back({mapper.spec, rng.split()});
      }
    }
    in.points.emplace_back(value, in.scenario.repetitions);
  }
  return in;
}

/// The run_scenario document must match the pass's per-(point, mapper)
/// means bit for bit (same Samples summation order as the runner).
void check_against_run_scenario(const Inputs& in, const Pass& pass,
                                WorkloadResult& result) {
  SweepRunOptions options;
  options.threads = 1;
  options.progress = false;
  const Json doc = run_scenario(in.scenario, options);
  const Json::Array& points = doc.at("results").as_array();
  const std::size_t mapper_count = in.scenario.mappers.size();
  std::size_t offset = 0;
  for (std::size_t p = 0; p < in.points.size(); ++p) {
    const std::size_t reps = in.points[p].second;
    const Json::Array& mappers = points.at(p).at("mappers").as_array();
    for (std::size_t m = 0; m < mapper_count; ++m) {
      Samples improvement, makespan;
      for (std::size_t c = 0; c < reps; ++c) {
        const Cell& cell = pass[offset + c * mapper_count + m];
        improvement.add(cell.improvement);
        makespan.add(cell.reported);
      }
      if (mappers.at(m).at("improvement_mean").as_double() !=
              improvement.mean() ||
          mappers.at(m).at("makespan_mean").as_double() != makespan.mean()) {
        result.fail("run_scenario disagrees at tasks=" +
                    std::to_string(in.points[p].first) + " mapper " +
                    in.scenario.mappers[m].spec);
        return;
      }
    }
    offset += reps * mapper_count;
  }
}

}  // namespace

void run_paper_fig4(const RunOptions& options, WorkloadResult& result) {
  // A set-up takes ~15 ms, short enough for one burst of outside load to
  // cover several; many of them keep their median steady.
  constexpr int kSetups = 25;
  BatchRun run;
  std::optional<Inputs> inputs;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_seconds();
    inputs.emplace(build_inputs(options.seed,
                                options.trace ? &run.setup_tracer : nullptr));
    run.setup_times.push_back(now_seconds() - t0);
  }
  run_batch(options, inputs->batch, run, result);
  check_against_run_scenario(*inputs, run.untraced[0], result);
  report_batch(options, run, result);
}

}  // namespace perfbench
