#include "workflows/workload_spec.hpp"

#include "graph/generators.hpp"
#include "util/fs.hpp"
#include "workflows/wfcommons.hpp"
#include "workflows/workflows.hpp"

namespace spmap {

namespace {

struct KindName {
  WorkloadKind kind;
  const char* name;
};

const KindName kKinds[] = {
    {WorkloadKind::Sp, "sp"},
    {WorkloadKind::AlmostSp, "almost-sp"},
    {WorkloadKind::Workflow, "workflow"},
    {WorkloadKind::WfCommons, "wfcommons"},
    {WorkloadKind::GraphFile, "graph"},
};

WorkloadKind kind_from_string(const std::string& s) {
  for (const KindName& k : kKinds) {
    if (s == k.name) return k.kind;
  }
  std::string known;
  for (const KindName& k : kKinds) {
    if (!known.empty()) known += ", ";
    known += k.name;
  }
  throw Error("workload: unknown type '" + s + "' (accepted: " + known + ")");
}

std::size_t get_count(const Json& doc, const std::string& key,
                      std::size_t fallback, std::int64_t minimum) {
  if (!doc.contains(key)) return fallback;
  const auto v = doc.at(key).as_int();
  require(v >= minimum, "workload: '" + key + "' must be >= " +
                            std::to_string(minimum));
  return static_cast<std::size_t>(v);
}

/// Throws unless `kind` sweeps `parameter`, listing what it does sweep.
void require_sweepable(WorkloadKind kind, const std::string& parameter) {
  std::string list;
  for (const std::string& p : sweepable_parameters(kind)) {
    if (p == parameter) return;
    if (!list.empty()) list += ", ";
    list += p;
  }
  throw Error(std::string("workload type '") + workload_kind_name(kind) +
              "' cannot sweep '" + parameter + "' (sweepable: " +
              (list.empty() ? "none" : list) + ")");
}

}  // namespace

const char* workload_kind_name(WorkloadKind kind) {
  for (const KindName& k : kKinds) {
    if (k.kind == kind) return k.name;
  }
  return "sp";
}

WorkloadSpec workload_from_json(const Json& doc) {
  require(doc.contains("type"), "workload: missing 'type'");
  WorkloadSpec spec;
  spec.kind = kind_from_string(doc.at("type").as_string());

  // Only keys the kind actually consumes are accepted, so a parameter on
  // the wrong kind (e.g. "extra_edges" on type "sp") fails loudly instead
  // of silently running a different experiment.
  std::vector<std::string> accepted = {"type", "seed"};
  switch (spec.kind) {
    case WorkloadKind::Sp:
      accepted.insert(accepted.end(),
                      {"tasks", "parallel_probability", "edge_data_mb"});
      break;
    case WorkloadKind::AlmostSp:
      accepted.insert(accepted.end(), {"tasks", "extra_edges",
                                       "parallel_probability",
                                       "edge_data_mb"});
      break;
    case WorkloadKind::Workflow:
      accepted.insert(accepted.end(), {"family", "width"});
      break;
    case WorkloadKind::WfCommons:
    case WorkloadKind::GraphFile:
      accepted.push_back("path");
      break;
  }
  doc.require_keys(
      std::string("workload type '") + workload_kind_name(spec.kind) + "'",
      accepted);

  spec.tasks = get_count(doc, "tasks", spec.tasks, 2);
  spec.extra_edges = get_count(doc, "extra_edges", spec.extra_edges, 0);
  spec.width = get_count(doc, "width", spec.width, 1);
  if (doc.contains("parallel_probability")) {
    spec.parallel_probability = doc.at("parallel_probability").as_double();
    require(spec.parallel_probability >= 0.0 &&
                spec.parallel_probability <= 1.0,
            "workload: 'parallel_probability' must be in [0, 1]");
  }
  if (doc.contains("edge_data_mb")) {
    spec.edge_data_mb = doc.at("edge_data_mb").as_double();
    require(spec.edge_data_mb >= 0.0,
            "workload: 'edge_data_mb' must be >= 0");
  }
  if (doc.contains("family")) {
    spec.family = doc.at("family").as_string();
    workflow_family_from_name(spec.family);  // validate eagerly
  }
  if (doc.contains("path")) spec.path = doc.at("path").as_string();
  const bool needs_path = spec.kind == WorkloadKind::WfCommons ||
                          spec.kind == WorkloadKind::GraphFile;
  require(!needs_path || !spec.path.empty(),
          std::string("workload: type '") + workload_kind_name(spec.kind) +
              "' needs a 'path'");
  if (doc.contains("seed")) {
    spec.has_seed = true;
    spec.seed = static_cast<std::uint64_t>(doc.at("seed").as_int());
  }
  return spec;
}

Json workload_to_json(const WorkloadSpec& spec) {
  Json doc = Json::object();
  doc.set("type", workload_kind_name(spec.kind));
  switch (spec.kind) {
    case WorkloadKind::AlmostSp:
      doc.set("tasks", spec.tasks);
      doc.set("extra_edges", spec.extra_edges);
      doc.set("parallel_probability", spec.parallel_probability);
      doc.set("edge_data_mb", spec.edge_data_mb);
      break;
    case WorkloadKind::Sp:
      doc.set("tasks", spec.tasks);
      doc.set("parallel_probability", spec.parallel_probability);
      doc.set("edge_data_mb", spec.edge_data_mb);
      break;
    case WorkloadKind::Workflow:
      doc.set("family", spec.family);
      doc.set("width", spec.width);
      break;
    case WorkloadKind::WfCommons:
    case WorkloadKind::GraphFile:
      doc.set("path", spec.path);
      break;
  }
  if (spec.has_seed) doc.set("seed", spec.seed);
  return doc;
}

std::vector<std::string> sweepable_parameters(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::Sp:
      return {"tasks"};
    case WorkloadKind::AlmostSp:
      return {"tasks", "extra_edges"};
    case WorkloadKind::Workflow:
      return {"width", "family"};
    case WorkloadKind::WfCommons:
    case WorkloadKind::GraphFile:
      return {};
  }
  return {};
}

void apply_sweep_value(WorkloadSpec& spec, const std::string& parameter,
                       std::int64_t value) {
  require_sweepable(spec.kind, parameter);
  require(parameter != "family",
          "sweep: 'family' takes family names, not integers");
  require(value >= 0, "sweep: negative value for '" + parameter + "'");
  if (parameter == "tasks") {
    require(value >= 2, "sweep: 'tasks' must be >= 2");
    spec.tasks = static_cast<std::size_t>(value);
  } else if (parameter == "extra_edges") {
    spec.extra_edges = static_cast<std::size_t>(value);
  } else if (parameter == "width") {
    require(value >= 1, "sweep: 'width' must be >= 1");
    spec.width = static_cast<std::size_t>(value);
  }
}

void apply_sweep_value(WorkloadSpec& spec, const std::string& parameter,
                       const std::string& value) {
  require_sweepable(spec.kind, parameter);
  require(parameter == "family",
          "sweep: '" + parameter + "' takes integers, not strings");
  workflow_family_from_name(value);  // validate eagerly
  spec.family = value;
}

TaskGraph materialize_workload(const WorkloadSpec& spec, Rng& rng,
                               std::size_t instance,
                               const std::string& base_dir) {
  // A pinned workload seed derives an instance-specific stream so that
  // repetitions still differ (deterministically) from each other.
  Rng pinned;
  Rng* source = &rng;
  if (spec.has_seed) {
    std::uint64_t state = spec.seed + 0x9e3779b97f4a7c15ULL * (instance + 1);
    pinned.reseed(splitmix64(state));
    source = &pinned;
  }

  TaskGraph tg;
  switch (spec.kind) {
    case WorkloadKind::Sp:
    case WorkloadKind::AlmostSp: {
      SpGenParams params;
      params.parallel_probability = spec.parallel_probability;
      params.edge_data_mb = spec.edge_data_mb;
      tg.dag = generate_sp_dag(spec.tasks, *source, params);
      if (spec.kind == WorkloadKind::AlmostSp) {
        tg.dag = add_random_edges(tg.dag, spec.extra_edges, *source,
                                  spec.edge_data_mb);
      }
      tg.attrs = random_task_attrs(tg.dag, *source);
      break;
    }
    case WorkloadKind::Workflow: {
      WorkflowInstance inst = generate_workflow(
          workflow_family_from_name(spec.family), spec.width, *source);
      tg.dag = std::move(inst.dag);
      tg.attrs = std::move(inst.attrs);
      break;
    }
    case WorkloadKind::WfCommons:
      tg = import_wfcommons_json(
          read_text_file(resolve_path(base_dir, spec.path), "workload file"),
          *source);
      break;
    case WorkloadKind::GraphFile:
      tg = task_graph_from_json(
          read_text_file(resolve_path(base_dir, spec.path), "workload file"));
      break;
  }
  return tg;
}

}  // namespace spmap
