#pragma once
/// \file scenario.hpp
/// Declarative experiment descriptions: the `spmap-scenario/1` JSON format.
///
/// A scenario binds everything one experiment needs — a *platform* (inline
/// `spmap-platform/1` object or a path to one, resolved against the
/// scenario file's directory), a *workload* (workflows/workload_spec.hpp),
/// an optional *sweep* axis, a *mapper line-up* (MapperRegistry spec
/// strings) and the repetition/reporting protocol of the paper's Section
/// IV-A — so an experiment is a committed file instead of a C++ driver.
/// `spmap_cli sweep` runs every paper figure through this layer; see
/// docs/FORMATS.md for the full schema reference and `scenarios/` for the
/// shipped paper experiments.
///
/// Schema sketch (`"schema": "spmap-scenario/1"`):
///   {
///     "schema": "spmap-scenario/1",
///     "name": "fig4_list_scheduling",
///     "description": "...",
///     "platform": "platforms/paper_cpu_gpu_fpga.json",   // or inline {...}
///     "workload": {"type": "sp", "tasks": 30},
///     "sweep":    {"parameter": "tasks", "values": [5, 20, ...]},  // opt.
///                 // ("family" sweeps take names: ["blast", "cycles"])
///     "mappers":  ["heft", {"spec": "spff:threads=2", "display": "SPFF"}],
///     "repetitions": 10,        // graphs per sweep point
///     "reporting_orders": 100,  // random schedules of the reporting eval
///     "seed": 2
///   }
/// Mapper specs are resolved against the MapperRegistry at *parse* time, so
/// a typo in a committed scenario fails before any graph is generated.
/// Unknown keys anywhere throw spmap::Error listing what is accepted.
///
/// ## Thread-safety
///
/// Parsing and serialization are free functions over value types; a parsed
/// Scenario is plain data and safe to share read-only. Running one is the
/// scenario runner's job (scenario_runner.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "model/platform_io.hpp"
#include "util/json.hpp"
#include "workflows/workload_spec.hpp"

namespace spmap {

/// One algorithm of the line-up: a registry spec plus the label used in
/// result tables (default: the registry entry's display name).
struct ScenarioMapper {
  std::string spec;     ///< "name" or "name:key=value,...".
  std::string display;  ///< Result-table label; never empty after parsing.
};

/// Optional sweep axis: one workload parameter varied over `values`, or
/// over `string_values` for the one string parameter, a workflow `family`.
struct SweepAxis {
  std::string parameter;  ///< "" = no sweep (a single point).
  std::vector<std::int64_t> values;
  std::vector<std::string> string_values;  ///< Set instead of `values`.

  bool enabled() const { return !parameter.empty(); }
  /// Points to run: one per value, or one unnamed point without a sweep.
  std::size_t point_count() const {
    return enabled() ? values.size() + string_values.size() : 1;
  }
  /// Point `i` as written in the file and the results: number or string.
  Json value_json(std::size_t i) const;
  /// Overrides the swept parameter of `workload` with point `i`.
  void apply(std::size_t i, WorkloadSpec& workload) const;
};

/// A fully parsed experiment description.
struct Scenario {
  std::string name;
  std::string description;
  /// The platform path as written in the file ("" if inline); kept so
  /// serialization round-trips the reference instead of inlining it.
  std::string platform_path;
  NamedPlatform platform;
  WorkloadSpec workload;
  SweepAxis sweep;
  std::vector<ScenarioMapper> mappers;
  std::size_t repetitions = 5;
  std::size_t reporting_orders = 100;
  std::uint64_t seed = 1;
  /// Directory of the scenario file; resolves workload `path`s.
  std::string base_dir;
};

/// Parses a `spmap-scenario/1` document. `base_dir` resolves relative
/// platform/workload paths ("" = current directory). Mapper specs, the
/// sweep parameter and the platform are validated eagerly; all violations
/// throw spmap::Error with diagnostics.
Scenario scenario_from_json(const Json& doc, const std::string& base_dir = "");

/// Serializes. scenario_from_json(scenario_to_json(s), s.base_dir)
/// reproduces s (platform references stay references).
Json scenario_to_json(const Scenario& scenario);

/// Reads and parses a scenario file; the file's directory becomes
/// `base_dir`. Throws spmap::Error if the file cannot be opened.
Scenario load_scenario_file(const std::string& path);

}  // namespace spmap
