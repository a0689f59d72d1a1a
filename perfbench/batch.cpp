#include "batch.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "graph/algorithms.hpp"
#include "mappers/registry.hpp"
#include "sp/decomposition_forest.hpp"

namespace perfbench {

namespace {

using namespace spmap;

/// The mappers whose search is a flat evaluator sweep.
bool flat_sweep_mapper(const std::string& name) {
  return name == "sn" || name == "snff" || name == "sp" || name == "spff";
}

std::shared_ptr<const ReportingContext> reporting_of(const BatchInputs& in,
                                                     const BatchCase& c) {
  return c.reporting != nullptr
             ? c.reporting
             : std::make_shared<const ReportingContext>(c.graph, in.platform,
                                                        in.reporting_orders);
}

/// Untraced pass: every job through the MappingService, one in flight.
Pass service_pass(const BatchInputs& in, MappingService& service) {
  Pass pass;
  for (const BatchCase& c : in.cases) {
    const auto reporting = reporting_of(in, c);
    for (const BatchJob& j : c.jobs) {
      double started = 0.0;
      MapJob job;
      job.mapper_spec = j.spec;
      job.graph = c.graph;
      job.platform = in.platform;
      job.reporting = reporting;
      job.construction_rng = j.construction;
      job.on_start = [&started](std::uint64_t) { started = now_seconds(); };
      const double cpu0 = process_cpu_seconds();
      const double submitted = now_seconds();
      const MappingService::JobHandle handle = service.submit(std::move(job));
      const MapJobResult& result = handle.wait();
      const double finished = now_seconds();
      Cell cell;
      cell.failed = !result.error.empty();
      cell.predicted = result.report.predicted_makespan;
      cell.reported = result.reported_makespan;
      cell.improvement =
          improvement_of(result.reported_makespan, result.baseline_makespan);
      cell.mapping = result.report.mapping;
      cell.times.latency_s = finished - submitted;
      cell.times.cpu_s = process_cpu_seconds() - cpu0;
      cell.times.queue_wait_s = started - submitted;
      pass.push_back(std::move(cell));
    }
  }
  return pass;
}

/// Traced pass: the job steps of MappingService::execute, performed here
/// with a span around each layer call.
Pass traced_pass(const BatchInputs& in, Tracer& tracer) {
  Pass pass;
  Scope root(&tracer, "bench.pass");
  for (const BatchCase& c : in.cases) {
    // The first job of a case pays the context's lazy build, as in execute.
    double job_start = now_seconds();
    std::shared_ptr<const ReportingContext> reporting;
    {
      // Context plus its lazy build (the shared CostModel, the reporting
      // evaluator and the baseline), which execute forces through cost().
      Scope span(&tracer, "bench.reporting");
      reporting = reporting_of(in, c);
      (void)reporting->cost();
    }
    for (const BatchJob& j : c.jobs) {
      const std::string name = MapperRegistry::split_spec(j.spec).first;
      std::optional<Evaluator> inner;
      {
        Scope span(&tracer, "sched.evaluator_build");
        inner.emplace(reporting->cost(), EvalParams{.random_orders = 0});
      }
      std::unique_ptr<Mapper> mapper;
      {
        Scope span(&tracer, "mappers.construct");
        Rng rng = j.construction;
        mapper = MapperRegistry::instance().create(j.spec, c.graph->dag, rng);
      }
      MapReport report;
      {
        Scope span(&tracer, "mappers.search");
        const double s0 = now_seconds();
        report = mapper->map(
            *inner, merge_run_bounds(mapper->default_request(), MapRequest{}));
        const double search_s = now_seconds() - s0;
        tracer.count("mappers.search_s." + name, search_s);
        tracer.count("mappers.iterations",
                     static_cast<double>(report.iterations));
        tracer.count("mappers.evaluations",
                     static_cast<double>(report.evaluations));
        tracer.count("mappers.incumbents",
                     static_cast<double>(report.trajectory.size()));
        if (flat_sweep_mapper(name)) {
          tracer.count("sched.flat_evals",
                       static_cast<double>(report.evaluations));
          tracer.count("sched.flat_search_s", search_s);
        }
      }
      Cell cell;
      cell.predicted = report.predicted_makespan;
      {
        Scope span(&tracer, "bench.reporting");
        cell.reported = reporting->evaluate(report.mapping);
        cell.improvement = improvement_of(cell.reported, reporting->baseline());
      }
      const double job_end = now_seconds();
      cell.times.latency_s = job_end - job_start;
      job_start = job_end;
      pass.push_back(std::move(cell));
    }
  }
  return pass;
}

/// The layers that run hidden inside a bigger call on the job path, timed
/// once on their own: each case's CostModel (inside the reporting
/// context's lazy build) and each decomposition job's SP forest, on a copy
/// of the job's rng (inside MapperRegistry::create).
void layer_phase(const BatchInputs& in, Tracer& tracer) {
  for (const BatchCase& c : in.cases) {
    {
      Scope span(&tracer, "model.cost_model_build");
      const CostModel cost(c.graph->dag, c.graph->attrs, *in.platform);
    }
    for (const BatchJob& j : c.jobs) {
      const std::string name = MapperRegistry::split_spec(j.spec).first;
      if (!MapperRegistry::instance().at(name).needs_sp_decomposition) continue;
      Scope span(&tracer, "sp.forest_build");
      Rng rng = j.construction;
      const Normalized norm = normalize_source_sink(c.graph->dag);
      tracer.count("sp.forest_cuts",
                   static_cast<double>(
                       grow_decomposition_forest(norm.dag, rng).cuts));
    }
  }
}

/// Every pass must reproduce the first untraced pass exactly.
void check_same(const Pass& reference, const Pass& pass, const char* what,
                WorkloadResult& result) {
  if (pass.size() != reference.size()) {
    result.fail(std::string(what) + ": job count differs");
    return;
  }
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (pass[i].predicted != reference[i].predicted ||
        pass[i].reported != reference[i].reported ||
        pass[i].improvement != reference[i].improvement) {
      result.fail(std::string(what) + ": job " + std::to_string(i) +
                  " differs from the first untraced pass");
      return;
    }
  }
}

/// Per-job minimum latency and CPU time across passes, summed; percentiles
/// over the per-job minima. Outside load only ever slows a job down, so
/// the minimum is the estimator a burst of it moves least.
struct Summary {
  double wall_s = 0.0, cpu_s = 0.0;
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0;
  double wait_p50_ms = 0.0, wait_p99_ms = 0.0, run_p50_ms = 0.0;
};

Summary summarize(const std::vector<Pass>& passes) {
  Summary s;
  std::vector<double> latency_ms, wait_ms, run_ms;
  for (std::size_t job = 0; job < passes.front().size(); ++job) {
    std::vector<double> latency, cpu, wait;
    for (const Pass& pass : passes) {
      latency.push_back(pass[job].times.latency_s);
      cpu.push_back(pass[job].times.cpu_s);
      wait.push_back(pass[job].times.queue_wait_s);
    }
    const double job_latency = *std::min_element(latency.begin(), latency.end());
    s.wall_s += job_latency;
    s.cpu_s += *std::min_element(cpu.begin(), cpu.end());
    latency_ms.push_back(1e3 * job_latency);
    wait_ms.push_back(1e3 * median(wait));
    run_ms.push_back(latency_ms.back() - wait_ms.back());
  }
  s.p50_ms = quantile(latency_ms, 0.5);
  s.p90_ms = quantile(latency_ms, 0.9);
  s.p99_ms = quantile(latency_ms, 0.99);
  s.wait_p50_ms = quantile(wait_ms, 0.5);
  s.wait_p99_ms = quantile(wait_ms, 0.99);
  s.run_p50_ms = quantile(run_ms, 0.5);
  return s;
}

}  // namespace

void run_batch(const RunOptions& options, const BatchInputs& in, BatchRun& run,
               WorkloadResult& result) {
  MappingService service({.workers = 1});
  const double start = now_seconds();
  do {
    run.untraced.push_back(service_pass(in, service));
    // Only the first pass's mappings are checked; dropping the others keeps
    // peak memory independent of how many passes fit in the time.
    if (run.untraced.size() > 1) {
      for (Cell& cell : run.untraced.back()) cell.mapping = spmap::Mapping{};
    }
    if (options.trace) run.traced.push_back(traced_pass(in, run.tracer));
  } while (now_seconds() - start < options.seconds);
  run.peak_rss_mb = peak_rss_mb();
  if (options.trace) layer_phase(in, run.phase_tracer);

  for (const Pass& pass : run.untraced) {
    result.attempted += pass.size();
    for (const Cell& cell : pass) result.failed += cell.failed ? 1 : 0;
  }
  if (result.failed > 0) result.fail("jobs failed");
  for (std::size_t i = 1; i < run.untraced.size(); ++i) {
    check_same(run.untraced[0], run.untraced[i], "untraced pass", result);
  }
  for (const Pass& pass : run.traced) {
    check_same(run.untraced[0], pass, "traced pass", result);
  }
  result.detail.set("untraced_passes", run.untraced.size());
  result.detail.set("traced_passes", run.traced.size());
  result.detail.set("jobs_per_pass", run.untraced[0].size());
  spmap::Json pass_walls = spmap::Json::array();
  for (const Pass& pass : run.untraced) {
    double wall = 0.0;
    for (const Cell& cell : pass) wall += cell.times.latency_s;
    pass_walls.push_back(wall);
  }
  result.detail.set("pass_wall_s", std::move(pass_walls));
  spmap::Json setups = spmap::Json::array();
  for (const double t : run.setup_times) setups.push_back(t);
  result.detail.set("setup_times_s", std::move(setups));
}

void report_batch(const RunOptions& options, BatchRun& run,
                  WorkloadResult& result) {
  const Summary untraced = summarize(run.untraced);
  auto& out = result.metrics;
  if (!options.trace) {
    double improvement = 0.0;
    for (const Cell& cell : run.untraced[0]) improvement += cell.improvement;
    out["setup_s"] = median(run.setup_times);
    out["wall_s"] = untraced.wall_s;
    out["cpu_s"] = untraced.cpu_s;
    out["improvement_mean"] =
        improvement / static_cast<double>(run.untraced[0].size());
    out["job_p50_ms"] = untraced.p50_ms;
    out["peak_rss_mb"] = run.peak_rss_mb;
    return;
  }

  const double passes = static_cast<double>(run.traced.size());
  const auto self = run.tracer.self_seconds();
  const auto setup_self = run.setup_tracer.self_seconds();
  const auto phase_self = run.phase_tracer.self_seconds();
  const auto lookup = [](const std::map<std::string, double>& table,
                         const std::string& name) {
    const auto it = table.find(name);
    return it != table.end() ? it->second : 0.0;
  };
  const auto seconds = [&](const std::string& name) {
    return lookup(self, name) / passes +
           lookup(setup_self, name) /
               static_cast<double>(run.setup_times.size()) +
           lookup(phase_self, name);
  };
  // Per traced pass; the layer phase covers one pass's worth of work.
  const auto counter = [&](const std::string& name) {
    return lookup(run.tracer.counters(), name) / passes +
           lookup(run.phase_tracer.counters(), name);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  for (const char* layer :
       {"workflows.materialize", "model.cost_model_build",
        "sched.evaluator_build", "sp.forest_build", "mappers.construct",
        "mappers.search", "bench.reporting"}) {
    out[std::string(layer) + "_s"] = seconds(layer);
  }
  for (const char* name : {"heft", "peft", "sn", "snff", "sp", "spff",
                           "hillclimb", "anneal", "tabu"}) {
    const std::string metric = std::string("mappers.search_s.") + name;
    out[metric] = counter(metric);
  }
  for (const char* name : {"sp.forest_cuts", "sched.flat_evals",
                           "mappers.iterations", "mappers.evaluations"}) {
    out[name] = counter(name);
  }
  out["sched.flat_ns_per_eval"] =
      1e9 * ratio(counter("sched.flat_search_s"), counter("sched.flat_evals"));
  out["mappers.accept_ratio"] =
      ratio(counter("mappers.incumbents"), counter("mappers.iterations"));
  out["sched.probe_ns"] =
      1e9 * ratio(counter("sched.probe_s"), counter("sched.probes"));
  out["sched.probe_fallback_share"] =
      ratio(counter("sched.probes_fallback"),
            counter("sched.probes_fallback") + counter("sched.probes_incremental"));
  out["sched.probe_replayed_mean"] = ratio(counter("sched.probe_replayed"),
                                           counter("sched.probes_incremental"));
  out["sched.full_eval_ns"] =
      1e9 * ratio(counter("sched.full_eval_s"), counter("sched.full_evals"));

  out["jobs.latency_p90_ms"] = untraced.p90_ms;
  out["jobs.latency_p99_ms"] = untraced.p99_ms;
  out["serve.queue_wait_p50_ms"] = untraced.wait_p50_ms;
  out["serve.queue_wait_p99_ms"] = untraced.wait_p99_ms;
  out["serve.job_run_ms"] = untraced.run_p50_ms;
  out["bench.failed_frac"] = ratio(static_cast<double>(result.failed),
                                   static_cast<double>(result.attempted));
  const double traced_wall = summarize(run.traced).wall_s;
  out["bench.trace_overhead_share"] =
      (traced_wall - untraced.wall_s) / untraced.wall_s;
  const double root = run.tracer.total_seconds("bench.pass");
  out["bench.trace_coverage"] = ratio(root - self.at("bench.pass"), root);
  result.detail.set("traced_wall_s", traced_wall);
  result.detail.set("untraced_wall_s", untraced.wall_s);

  run.tracer.merge(run.setup_tracer);
  run.tracer.merge(run.phase_tracer);
  run.tracer.write(options.work_dir + "/trace-" + options.workload + "-seed" +
                   std::to_string(options.seed) + ".json");
}

}  // namespace perfbench
