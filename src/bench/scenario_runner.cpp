#include "bench/scenario_runner.hpp"

#include <cstdio>
#include <ostream>

#include "serve/mapping_service.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace spmap {

namespace {

/// A sweep value as a table cell or progress label: names verbatim,
/// numbers as JSON prints them.
std::string cell_label(const Json& value) {
  return value.is_string() ? value.as_string() : value.dump();
}

/// Everything measured for one (repetition, mapper) pair.
struct CellResult {
  double improvement = 0.0;
  double makespan = 0.0;
  double baseline = 0.0;
  double seconds = 0.0;
};

/// Runs one sweep point: every (repetition, mapper) pair becomes one
/// MappingService job, submitted FIFO with its pre-derived construction
/// rng and collected in submission order — so the numbers are
/// bit-identical for every worker count (see the header contract).
std::vector<CellResult> run_point(const Scenario& scenario,
                                  const std::vector<std::shared_ptr<const TaskGraph>>& cases,
                                  const std::vector<Rng>& rngs,
                                  const std::shared_ptr<const Platform>& platform,
                                  MappingService& service) {
  const std::size_t mapper_count = scenario.mappers.size();
  std::vector<MappingService::JobHandle> handles;
  handles.reserve(cases.size() * mapper_count);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    // One reporting context per repetition, shared by the whole mapper
    // line-up: min over BFS + random schedules (Sec. IV-A) plus the
    // all-CPU baseline, built once instead of per job.
    const auto reporting = std::make_shared<const ReportingContext>(
        cases[c], platform, scenario.reporting_orders);
    for (std::size_t m = 0; m < mapper_count; ++m) {
      MapJob job;
      job.mapper_spec = scenario.mappers[m].spec;
      job.graph = cases[c];
      job.platform = platform;
      // Inner evaluator: BFS only (the linear-time mapping cost function).
      job.inner_orders = 0;
      job.reporting = reporting;
      job.construction_rng = rngs[c * mapper_count + m];
      handles.push_back(service.submit(std::move(job)));
    }
  }

  std::vector<CellResult> cells(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const MapJobResult& result = handles[i].wait();
    if (!result.error.empty()) {
      // Fail fast: cancel everything outstanding so the service's
      // drain-on-destruction does not run the rest of a doomed sweep.
      for (const auto& handle : handles) handle.cancel();
      throw Error("scenario job '" +
                  scenario.mappers[i % mapper_count].spec +
                  "' failed: " + result.error);
    }
    CellResult& cell = cells[i];
    cell.makespan = result.reported_makespan;
    cell.baseline = result.baseline_makespan;
    if (cell.baseline > 0.0 && cell.makespan < cell.baseline) {
      cell.improvement = (cell.baseline - cell.makespan) / cell.baseline;
    }
    cell.seconds = result.wall_seconds;
  }
  return cells;
}

Json point_to_json(const Scenario& scenario,
                   const std::vector<CellResult>& cells) {
  const std::size_t mapper_count = scenario.mappers.size();
  const std::size_t reps = cells.size() / mapper_count;
  Json mappers = Json::array();
  for (std::size_t m = 0; m < mapper_count; ++m) {
    Samples improvement, makespan, baseline, seconds;
    for (std::size_t c = 0; c < reps; ++c) {
      const CellResult& cell = cells[c * mapper_count + m];
      improvement.add(cell.improvement);
      makespan.add(cell.makespan);
      baseline.add(cell.baseline);
      seconds.add(cell.seconds);
    }
    double seconds_total = 0.0;
    for (const double s : seconds.values()) seconds_total += s;

    Json entry = Json::object();
    entry.set("name", scenario.mappers[m].display);
    entry.set("spec", scenario.mappers[m].spec);
    entry.set("improvement_mean", improvement.mean());
    entry.set("improvement_min", improvement.min());
    entry.set("improvement_max", improvement.max());
    entry.set("makespan_mean", makespan.mean());
    entry.set("baseline_mean", baseline.mean());
    entry.set("mapper_seconds_mean", seconds.mean());
    entry.set("mapper_seconds_total", seconds_total);
    mappers.push_back(std::move(entry));
  }
  Json point = Json::object();
  point.set("mappers", std::move(mappers));
  return point;
}

}  // namespace

Json run_scenario(const Scenario& scenario, const SweepRunOptions& options) {
  require(!scenario.mappers.empty(), "run_scenario: no mappers");
  MappingServiceOptions service_options;
  service_options.workers = options.threads;
  MappingService service(service_options);
  const auto platform =
      std::make_shared<const Platform>(scenario.platform.platform);
  Rng rng(scenario.seed);

  Json results = Json::array();
  for (std::size_t p = 0; p < scenario.sweep.point_count(); ++p) {
    WorkloadSpec workload = scenario.workload;
    if (scenario.sweep.enabled()) scenario.sweep.apply(p, workload);
    // Graphs and rng streams are derived serially so the job phase is
    // worker-count invariant.
    std::vector<std::shared_ptr<const TaskGraph>> cases;
    cases.reserve(scenario.repetitions);
    for (std::size_t r = 0; r < scenario.repetitions; ++r) {
      cases.push_back(std::make_shared<const TaskGraph>(
          materialize_workload(workload, rng, r, scenario.base_dir)));
    }
    std::vector<Rng> rngs;
    rngs.reserve(cases.size() * scenario.mappers.size());
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (std::size_t m = 0; m < scenario.mappers.size(); ++m) {
        rngs.push_back(rng.split());
      }
    }
    if (options.progress) {
      const char* tag =
          scenario.name.empty() ? "sweep" : scenario.name.c_str();
      if (scenario.sweep.enabled()) {
        std::fprintf(stderr, "[%s] %s=%s (%zu repetitions)...\n", tag,
                     scenario.sweep.parameter.c_str(),
                     cell_label(scenario.sweep.value_json(p)).c_str(),
                     cases.size());
      } else {
        std::fprintf(stderr, "[%s] %zu repetitions...\n", tag, cases.size());
      }
    }
    const std::vector<CellResult> cells =
        run_point(scenario, cases, rngs, platform, service);
    Json point = point_to_json(scenario, cells);
    if (scenario.sweep.enabled()) {
      // Prepend the sweep value so it leads the object.
      Json ordered = Json::object();
      ordered.set("sweep_value", scenario.sweep.value_json(p));
      ordered.set("mappers", point.at("mappers"));
      point = std::move(ordered);
    }
    results.push_back(std::move(point));
  }

  Json doc = Json::object();
  doc.set("schema", "spmap-sweep-results/1");
  doc.set("scenario", scenario.name);
  if (!scenario.description.empty()) {
    doc.set("description", scenario.description);
  }
  doc.set("platform", scenario.platform.name);
  doc.set("workload", workload_to_json(scenario.workload));
  doc.set("seed", scenario.seed);
  doc.set("repetitions", scenario.repetitions);
  doc.set("reporting_orders", scenario.reporting_orders);
  doc.set("threads", service.worker_count());
  if (scenario.sweep.enabled()) {
    doc.set("sweep_parameter", scenario.sweep.parameter);
  }
  doc.set("results", std::move(results));
  return doc;
}

void print_sweep_tables(const Json& results, std::ostream& os) {
  const std::string scenario = results.at("scenario").as_string();
  const bool swept = results.contains("sweep_parameter");
  const std::string x_name =
      swept ? results.at("sweep_parameter").as_string() : std::string("point");
  const Json::Array& points = results.at("results").as_array();
  require(!points.empty(), "print_sweep_tables: empty results");

  std::vector<std::string> header{x_name};
  for (const Json& m : points.front().at("mappers").as_array()) {
    header.push_back(m.at("name").as_string());
  }

  const auto emit = [&](const char* metric, const char* field, double scale,
                        int precision) {
    Table table(header);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Json& point = points[i];
      std::vector<std::string> row{cell_label(
          point.contains("sweep_value") ? point.at("sweep_value") : Json(i))};
      for (const Json& m : point.at("mappers").as_array()) {
        row.push_back(
            format_double(scale * m.at(field).as_double(), precision));
      }
      table.add_row(std::move(row));
    }
    os << "## " << scenario << ": " << metric << "\n";
    table.write_tsv(os);
    os << "\n";
    table.write_aligned(os);
    os << "\n";
  };

  emit("relative improvement (mean over repetitions)", "improvement_mean",
       1.0, 4);
  emit("mapper execution time [ms] (mean over repetitions)",
       "mapper_seconds_mean", 1e3, 3);
}

}  // namespace spmap
