#pragma once
/// \file workload_spec.hpp
/// Declarative workload descriptions: the `spmap-workload/1` JSON format.
///
/// A workload spec names a *source of task graphs* instead of a concrete
/// graph: a generator family plus its parameters (and optionally its own
/// seed), or an external file. Scenario files (src/bench/scenario.hpp) bind
/// a workload to a platform and a mapper line-up; the runner materializes
/// as many instances as the scenario's repetitions ask for. Kinds:
///
///  * "sp"        — random series-parallel DAG (paper Section IV-B):
///                  `tasks`, optional `parallel_probability`,
///                  `edge_data_mb`;
///  * "almost-sp" — sp plus `extra_edges` random conflicting edges
///                  (Section IV-C);
///  * "workflow"  — synthetic WfCommons-style family recreation
///                  (Section IV-D): `family` (e.g. "montage"), `width`;
///  * "wfcommons" — external WfCommons wfformat JSON: `path`, resolved
///                  against the scenario file's directory;
///  * "graph"     — a committed spmap task-graph JSON (graph/io.hpp
///                  format): `path`.
///
/// Sweeps (scenario `sweep` axis) override one parameter per sweep point:
/// the integers `tasks`, `extra_edges` or `width`, or the workflow
/// `family` name, depending on the kind. Unknown keys, keys inapplicable
/// to the kind, unknown kinds and out-of-range values throw spmap::Error
/// naming what is accepted.
///
/// ## Thread-safety
///
/// Free functions over value types. `materialize` draws from the passed
/// Rng; concurrent calls need distinct Rngs (the scenario runner pre-splits
/// one per repetition, which also makes results thread-count invariant).

#include <cstdint>
#include <string>

#include "graph/io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace spmap {

enum class WorkloadKind { Sp, AlmostSp, Workflow, WfCommons, GraphFile };

/// Lower-case kind name as used in workload JSON ("sp", "almost-sp", ...).
const char* workload_kind_name(WorkloadKind kind);

/// Parsed workload description. Fields irrelevant to the kind keep their
/// defaults and are not serialized.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::Sp;

  // sp / almost-sp
  std::size_t tasks = 30;
  std::size_t extra_edges = 10;        ///< almost-sp only
  double parallel_probability = 2.0 / 3.0;
  double edge_data_mb = 100.0;

  // workflow
  std::string family = "montage";
  std::size_t width = 12;

  // wfcommons / graph
  std::string path;

  /// Optional generator seed. When set, materialization reseeds from it
  /// (plus the instance index) instead of drawing from the scenario rng, so
  /// one workload can be pinned while the rest of a scenario varies.
  bool has_seed = false;
  std::uint64_t seed = 0;
};

/// Parses a `spmap-workload/1` object (the scenario `workload` value).
/// Throws spmap::Error on unknown keys/kinds and bad values.
WorkloadSpec workload_from_json(const Json& doc);

/// Serializes; workload_from_json(workload_to_json(w)) reproduces w.
Json workload_to_json(const WorkloadSpec& spec);

/// Sweepable parameters of this kind ("tasks", "extra_edges", "width",
/// "family"), for sweep-axis validation.
std::vector<std::string> sweepable_parameters(WorkloadKind kind);

/// Overrides one integer sweep parameter. Throws spmap::Error on a
/// parameter the kind does not sweep, listing what it does, and on
/// "family", which takes names.
void apply_sweep_value(WorkloadSpec& spec, const std::string& parameter,
                       std::int64_t value);

/// Overrides the string sweep parameter "family" (workflow kind only).
/// Throws spmap::Error on any other parameter and on an unknown family.
void apply_sweep_value(WorkloadSpec& spec, const std::string& parameter,
                       const std::string& value);

/// Generates (or loads) one task-graph instance. `instance` distinguishes
/// repetitions when the spec pins its own seed; `base_dir` resolves
/// relative `path`s (""= current directory). File-backed kinds re-read the
/// file per call; generator kinds consume `rng`.
TaskGraph materialize_workload(const WorkloadSpec& spec, Rng& rng,
                               std::size_t instance = 0,
                               const std::string& base_dir = "");

}  // namespace spmap
