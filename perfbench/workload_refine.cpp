/// refine_wide — local-search refinement on wide, dependency-bound graphs.
///
/// Set-up builds the 16-wide layered DAG on the many-core platform
/// (bench/wide_case.hpp), eight graphs each at 1024 and 4096 tasks from the
/// benchmark seed, plus one ReportingContext per case (cost model, BFS
/// evaluator, all-CPU baseline). A timed pass runs `hillclimb`, `anneal`
/// and `tabu` (init=cpu, fixed iters, a seed per case, one restart, one
/// thread) on every case as MappingService jobs on one worker, one job in
/// flight at a time. Nearly all of that time is IncrementalEvaluator::probe. The
/// traced run then drives probe() with a fixed move stream on every case
/// to report the probe router's per-path counters. Every returned mapping
/// is re-priced with a fresh Evaluator and must equal the report's
/// predicted makespan; every pass must reproduce the first.

#include <iterator>
#include <memory>
#include <optional>

#include "batch.hpp"
#include "mappers/registry.hpp"
#include "trace.hpp"
#include "wide_case.hpp"

namespace perfbench {

namespace {

using namespace spmap;

constexpr std::size_t kSizes[] = {1024, 4096};
constexpr const char* kSearches[] = {"hillclimb", "anneal", "tabu"};
constexpr std::size_t kGraphsPerSize = 8;
constexpr std::size_t kIterations = 1000;
constexpr std::size_t kProbeMoves = 20000;
constexpr std::size_t kFullEvals = 2000;

BatchInputs build_inputs(std::uint64_t seed, Tracer* tracer) {
  BatchInputs in;
  in.platform = std::make_shared<const Platform>(manycore_platform());
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < std::size(kSizes) * kGraphsPerSize; ++i) {
    const std::size_t n = kSizes[i / kGraphsPerSize];
    BatchCase c;
    {
      Scope span(tracer, "workflows.materialize");
      benchcase::WideCase wide(n, splitmix64(state));
      c.graph = std::make_shared<const TaskGraph>(
          TaskGraph{std::move(wide.dag), std::move(wide.attrs)});
    }
    {
      Scope span(tracer, "bench.reporting");
      c.reporting =
          std::make_shared<const ReportingContext>(c.graph, in.platform, 0);
      (void)c.reporting->baseline();  // forces the lazy build
    }
    in.cases.push_back(std::move(c));
  }
  const Rng construction(splitmix64(state));
  for (BatchCase& c : in.cases) {
    // One search seed per case, so no single draw sways every job; seeds
    // stay below 2^53 so they print exactly in any JSON record.
    const std::uint64_t search_seed = splitmix64(state) >> 11;
    for (const char* search : kSearches) {
      c.jobs.push_back({std::string(search) + ":init=cpu,iters=" +
                            std::to_string(kIterations) +
                            ",restarts=1,threads=1,seed=" +
                            std::to_string(search_seed),
                        construction});
    }
  }
  return in;
}

/// Drives probe() with a fixed move stream from the all-CPU mapping and
/// times full evaluations of the same mapping, on every case.
void probe_phase(const BatchInputs& in, std::uint64_t seed, Tracer& tracer) {
  for (const BatchCase& c : in.cases) {
    const Evaluator eval(c.reporting->cost());
    IncrementalEvaluator engine(eval);
    const Mapping start = eval.default_mapping();
    engine.reset(start);
    const std::vector<TaskReassignment> moves = benchcase::random_moves(
        kProbeMoves, start, in.platform->device_count(), seed);
    double sink = 0.0;
    {
      const double t0 = now_seconds();
      Scope span(&tracer, "sched.probe");
      for (const TaskReassignment& move : moves) sink += engine.probe(move);
      tracer.count("sched.probe_s", now_seconds() - t0);
    }
    tracer.count("sched.probes", static_cast<double>(moves.size()));
    tracer.count("sched.probes_incremental",
                 static_cast<double>(engine.incremental_probe_count()));
    tracer.count("sched.probes_fallback",
                 static_cast<double>(engine.fallback_probe_count()));
    tracer.count("sched.probe_replayed",
                 static_cast<double>(engine.incremental_replayed_total()));
    EvalContext ctx;
    {
      const double t0 = now_seconds();
      Scope span(&tracer, "sched.full_eval");
      for (std::size_t i = 0; i < kFullEvals; ++i) {
        sink += eval.evaluate(start, ctx);
      }
      tracer.count("sched.full_eval_s", now_seconds() - t0);
    }
    tracer.count("sched.full_evals", static_cast<double>(kFullEvals));
    tracer.count("sched.sink", sink);  // keeps the loops observable
  }
}

}  // namespace

void run_refine_wide(const RunOptions& options, WorkloadResult& result) {
  constexpr int kSetups = 15;
  BatchRun run;
  std::optional<BatchInputs> inputs;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_seconds();
    inputs.emplace(build_inputs(options.seed,
                                options.trace ? &run.setup_tracer : nullptr));
    run.setup_times.push_back(now_seconds() - t0);
  }
  const BatchInputs& in = *inputs;
  run_batch(options, in, run, result);

  // Re-price every returned mapping with a fresh cost model and evaluator.
  const Pass& first = run.untraced[0];
  for (std::size_t i = 0; i < first.size(); ++i) {
    const BatchCase& c = in.cases[i / std::size(kSearches)];
    const CostModel cost(c.graph->dag, c.graph->attrs, *in.platform);
    const Evaluator fresh(cost);
    if (fresh.evaluate(first[i].mapping) != first[i].predicted) {
      result.fail("job " + c.jobs[i % std::size(kSearches)].spec +
                  ": fresh evaluator disagrees with predicted_makespan");
    }
  }
  result.detail.set("iterations_per_job", kIterations);
  if (options.trace) probe_phase(in, options.seed, run.phase_tracer);
  report_batch(options, run, result);
}

}  // namespace perfbench
