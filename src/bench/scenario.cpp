#include "bench/scenario.hpp"

#include "mappers/registry.hpp"
#include "util/fs.hpp"

namespace spmap {

namespace {

const char* kSchema = "spmap-scenario/1";

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string{} : path.substr(0, slash);
}

ScenarioMapper mapper_from_json(const Json& doc) {
  ScenarioMapper m;
  if (doc.is_string()) {
    m.spec = doc.as_string();
  } else {
    doc.require_keys("scenario mapper", {"spec", "display"});
    require(doc.contains("spec"), "scenario mapper: missing 'spec'");
    m.spec = doc.at("spec").as_string();
    if (doc.contains("display")) m.display = doc.at("display").as_string();
  }
  // Resolve the name and validate the option string now, so typos in
  // committed scenario files fail at load time, not mid-sweep.
  const auto [name, options] = MapperRegistry::split_spec(m.spec);
  const MapperEntry& entry = MapperRegistry::instance().at(name);
  entry.validate_options(MapperOptions::parse(options));
  if (m.display.empty()) m.display = entry.display_name;
  return m;
}

SweepAxis sweep_from_json(const Json& doc, const WorkloadSpec& workload) {
  doc.require_keys("scenario sweep", {"parameter", "values"});
  require(doc.contains("parameter") && doc.contains("values"),
          "scenario sweep: needs 'parameter' and 'values'");
  SweepAxis sweep;
  sweep.parameter = doc.at("parameter").as_string();
  for (const Json& v : doc.at("values").as_array()) {
    if (v.is_string()) {
      sweep.string_values.push_back(v.as_string());
    } else {
      sweep.values.push_back(v.as_int());
    }
  }
  require(sweep.values.empty() || sweep.string_values.empty(),
          "scenario sweep: 'values' mixes numbers and strings");
  const std::size_t count = sweep.values.size() + sweep.string_values.size();
  require(count > 0, "scenario sweep: empty 'values'");
  // Validate parameter name and every value against the workload kind.
  for (std::size_t i = 0; i < count; ++i) {
    WorkloadSpec probe = workload;
    sweep.apply(i, probe);
  }
  return sweep;
}

}  // namespace

Json SweepAxis::value_json(std::size_t i) const {
  if (string_values.empty()) return Json(values.at(i));
  return Json(string_values.at(i));
}

void SweepAxis::apply(std::size_t i, WorkloadSpec& workload) const {
  if (string_values.empty()) {
    apply_sweep_value(workload, parameter, values.at(i));
  } else {
    apply_sweep_value(workload, parameter, string_values.at(i));
  }
}

Scenario scenario_from_json(const Json& doc, const std::string& base_dir) {
  doc.require_keys("scenario",
                   {"schema", "name", "description", "platform", "workload",
                    "sweep", "mappers", "repetitions", "reporting_orders",
                    "seed"});
  require(doc.contains("schema") && doc.at("schema").as_string() == kSchema,
          std::string("scenario: missing or unsupported 'schema' (expected "
                      "\"") +
              kSchema + "\")");
  Scenario s;
  s.base_dir = base_dir;
  if (doc.contains("name")) s.name = doc.at("name").as_string();
  if (doc.contains("description")) {
    s.description = doc.at("description").as_string();
  }

  require(doc.contains("platform"), "scenario: missing 'platform'");
  const Json& platform_doc = doc.at("platform");
  if (platform_doc.is_string()) {
    s.platform_path = platform_doc.as_string();
    s.platform = load_platform_file(resolve_path(base_dir, s.platform_path));
  } else {
    s.platform = platform_from_json(platform_doc);
  }

  require(doc.contains("workload"), "scenario: missing 'workload'");
  s.workload = workload_from_json(doc.at("workload"));

  if (doc.contains("sweep")) {
    s.sweep = sweep_from_json(doc.at("sweep"), s.workload);
  }

  require(doc.contains("mappers") && !doc.at("mappers").as_array().empty(),
          "scenario: needs a non-empty 'mappers' array");
  for (const Json& m : doc.at("mappers").as_array()) {
    s.mappers.push_back(mapper_from_json(m));
  }

  if (doc.contains("repetitions")) {
    const auto reps = doc.at("repetitions").as_int();
    require(reps >= 1, "scenario: 'repetitions' must be >= 1");
    s.repetitions = static_cast<std::size_t>(reps);
  }
  if (doc.contains("reporting_orders")) {
    const auto orders = doc.at("reporting_orders").as_int();
    require(orders >= 0, "scenario: 'reporting_orders' must be >= 0");
    s.reporting_orders = static_cast<std::size_t>(orders);
  }
  if (doc.contains("seed")) {
    s.seed = static_cast<std::uint64_t>(doc.at("seed").as_int());
  }
  return s;
}

Json scenario_to_json(const Scenario& scenario) {
  Json doc = Json::object();
  doc.set("schema", kSchema);
  if (!scenario.name.empty()) doc.set("name", scenario.name);
  if (!scenario.description.empty()) {
    doc.set("description", scenario.description);
  }
  if (!scenario.platform_path.empty()) {
    doc.set("platform", scenario.platform_path);
  } else {
    doc.set("platform", platform_to_json(scenario.platform.platform,
                                         scenario.platform.name));
  }
  doc.set("workload", workload_to_json(scenario.workload));
  if (scenario.sweep.enabled()) {
    Json sweep = Json::object();
    sweep.set("parameter", scenario.sweep.parameter);
    Json values = Json::array();
    for (std::size_t i = 0; i < scenario.sweep.point_count(); ++i) {
      values.push_back(scenario.sweep.value_json(i));
    }
    sweep.set("values", std::move(values));
    doc.set("sweep", std::move(sweep));
  }
  Json mappers = Json::array();
  for (const ScenarioMapper& m : scenario.mappers) {
    const auto [name, options] = MapperRegistry::split_spec(m.spec);
    if (m.display == MapperRegistry::instance().at(name).display_name) {
      mappers.push_back(m.spec);
    } else {
      Json obj = Json::object();
      obj.set("spec", m.spec);
      obj.set("display", m.display);
      mappers.push_back(std::move(obj));
    }
  }
  doc.set("mappers", std::move(mappers));
  doc.set("repetitions", scenario.repetitions);
  doc.set("reporting_orders", scenario.reporting_orders);
  doc.set("seed", scenario.seed);
  return doc;
}

Scenario load_scenario_file(const std::string& path) {
  return scenario_from_json(
      Json::parse(read_text_file(path, "scenario file")), dirname_of(path));
}

}  // namespace spmap
