#include "mappers/milp_mappers.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "mappers/builtin_registrations.hpp"
#include "mappers/registry.hpp"
#include "util/error.hpp"

namespace spmap {

namespace {

constexpr double kBigUb = 1e30;  // treated as +infinity by the LP layer

/// Shared builder state for the assignment-style formulations.
struct Builder {
  const CostModel& cost;
  const Dag& dag;
  const Platform& platform;
  std::size_t n;
  std::size_t m;
  MilpModel model;
  std::vector<int> x;  // assignment binaries, node-major [i * m + d]

  explicit Builder(const CostModel& c)
      : cost(c),
        dag(c.dag()),
        platform(c.platform()),
        n(c.dag().node_count()),
        m(c.platform().device_count()) {}

  int xvar(std::size_t i, std::size_t d) const { return x[i * m + d]; }

  /// Assignment binaries + one-device-per-task rows + FPGA area rows.
  void add_assignment() {
    x.resize(n * m);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<LinTerm> one;
      for (std::size_t d = 0; d < m; ++d) {
        x[i * m + d] = model.add_binary(0.0);
        one.push_back({x[i * m + d], 1.0});
      }
      model.add_constraint(std::move(one), RowSense::Eq, 1.0);
    }
    for (const DeviceId f : platform.fpga_devices()) {
      std::vector<LinTerm> area;
      for (std::size_t i = 0; i < n; ++i) {
        const double a = cost.area(NodeId(i));
        if (a > 0.0) area.push_back({xvar(i, f.v), a});
      }
      if (!area.empty()) {
        model.add_constraint(std::move(area), RowSense::Le,
                             platform.device(f).area_budget);
      }
    }
  }

  /// Schedule horizon: serial worst-case execution plus all transfers.
  double horizon() const {
    double h = cost.max_serial_time();
    for (std::size_t e = 0; e < dag.edge_count(); ++e) {
      double worst = 0.0;
      for (std::size_t a = 0; a < m; ++a) {
        for (std::size_t b = 0; b < m; ++b) {
          if (a != b) {
            worst = std::max(worst, cost.transfer_time(EdgeId(e), DeviceId(a),
                                                       DeviceId(b)));
          }
        }
      }
      h += worst;
    }
    return h;
  }

  /// All-CPU warm-start values for the assignment binaries.
  void warm_assignment(std::vector<double>& warm) const {
    const std::size_t cpu = platform.default_device().v;
    for (std::size_t i = 0; i < n; ++i) warm[xvar(i, cpu)] = 1.0;
  }

  Mapping extract_mapping(const std::vector<double>& solution) const {
    Mapping mapping(n, platform.default_device());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < m; ++d) {
        if (solution[xvar(i, d)] > 0.5) {
          mapping[NodeId(i)] = DeviceId(d);
          break;
        }
      }
    }
    return mapping;
  }
};

/// MipParams for one run — the mapper's own limits tightened by the
/// request's deadline/iteration budget, cancellation wired to the solver's
/// per-node interrupt hook — plus which bounds the *request* imposed, so
/// finish() can attribute the termination honestly.
struct MipRunParams {
  MipParams mip;
  bool deadline_from_request = false;
  std::size_t request_node_cap = 0;  ///< 0 = the request caps no nodes
};

MipRunParams mip_params_for_run(const MilpMapperParams& params,
                                const RunControl& control) {
  const MapRequest& request = control.request();
  MipRunParams run;
  run.mip.time_limit_s = params.time_limit_s;
  if (request.deadline_ms > 0.0) {
    const double remaining_s =
        request.deadline_ms / 1e3 - control.elapsed_seconds();
    run.mip.time_limit_s =
        std::min(run.mip.time_limit_s, std::max(remaining_s, 1e-3));
    run.deadline_from_request = true;
  }
  run.mip.max_nodes = params.max_nodes;
  if (request.max_iterations != 0) {
    run.mip.max_nodes = std::min(run.mip.max_nodes, request.max_iterations);
    run.request_node_cap = request.max_iterations;
  }
  run.mip.interrupt = [&control] { return control.cancelled(); };
  return run;
}

MapReport finish(const Evaluator& eval, const Builder& b,
                 const MipResult& mip, const MipRunParams& run,
                 RunControl& control, MipStatus& status_out,
                 bool& timeout_out) {
  status_out = mip.status;
  timeout_out = mip.timed_out;

  // An interrupted solve is an anytime result: the warm-started incumbent
  // guarantees a valid mapping at any limit. Attribute the stop to the
  // request only for the bounds the request actually imposed; the
  // mapper's *own* time/node limits are its planned work — running them
  // out is convergence (the paper's anytime-cutoff behaviour).
  if (mip.timed_out) {
    if (control.cancelled()) {
      control.stop(TerminationReason::kCancelled);
    } else if (run.deadline_from_request && control.deadline_expired()) {
      control.stop(TerminationReason::kDeadline);
    } else if (run.request_node_cap != 0 &&
               mip.nodes >= run.request_node_cap) {
      control.stop(TerminationReason::kBudgetExhausted);
    }
  }

  return one_shot_report(eval, control,
                         mip.has_solution() ? b.extract_mapping(mip.x)
                                            : eval.default_mapping(),
                         mip.nodes);
}

/// Adds start-time variables, big-M precedence rows, the makespan variable
/// and T >= finish rows. Shared by WGDP-Time and ZhouLiu.
///
/// `streaming_aware` applies the FPGA dataflow discount on FPGA-FPGA edges.
/// Returns (start-variable indices, makespan variable, horizon).
struct TimeStructure {
  std::vector<int> start;
  int makespan;
  double horizon;
};

TimeStructure add_time_structure(Builder& b, bool streaming_aware) {
  TimeStructure ts;
  ts.horizon = b.horizon();
  const double bigm = ts.horizon;

  ts.start.resize(b.n);
  for (std::size_t i = 0; i < b.n; ++i) {
    ts.start[i] = b.model.add_continuous(0.0, ts.horizon, 0.0);
  }
  ts.makespan = b.model.add_continuous(0.0, ts.horizon, 1.0);

  // Precedence with device-dependent durations and transfers:
  // s_i >= s_j + dur(j, d) + trans(d, e) - M * (2 - x_jd - x_ie).
  for (std::size_t e = 0; e < b.dag.edge_count(); ++e) {
    const EdgeId edge(e);
    const std::size_t j = b.dag.src(edge).v;
    const std::size_t i = b.dag.dst(edge).v;
    for (std::size_t d = 0; d < b.m; ++d) {
      const Device& dev = b.platform.device(DeviceId(d));
      for (std::size_t de = 0; de < b.m; ++de) {
        double dur = b.cost.exec_time(NodeId(j), DeviceId(d));
        if (streaming_aware && d == de && dev.is_fpga()) {
          // Dataflow streaming: the consumer may start once the producer's
          // pipeline is filled.
          dur *= dev.stream_fill_fraction;
        }
        const double trans =
            b.cost.transfer_time(edge, DeviceId(d), DeviceId(de));
        // s_i - s_j - M x_jd - M x_ie >= dur + trans - 2M
        b.model.add_constraint({{ts.start[i], 1.0},
                                {ts.start[j], -1.0},
                                {b.xvar(j, d), -bigm},
                                {b.xvar(i, de), -bigm}},
                               RowSense::Ge, dur + trans - 2.0 * bigm);
      }
    }
  }

  // Makespan covers every task's finish time:
  // T >= s_i + sum_d exec(i, d) x_id.
  for (std::size_t i = 0; i < b.n; ++i) {
    std::vector<LinTerm> terms{{ts.makespan, 1.0}, {ts.start[i], -1.0}};
    for (std::size_t d = 0; d < b.m; ++d) {
      terms.push_back({b.xvar(i, d), -b.cost.exec_time(NodeId(i),
                                                       DeviceId(d))});
    }
    b.model.add_constraint(std::move(terms), RowSense::Ge, 0.0);
  }
  return ts;
}

/// All-CPU serial schedule start times along a topological order.
std::vector<double> serial_cpu_starts(const Builder& b) {
  const DeviceId cpu = b.platform.default_device();
  const auto topo = topological_order(b.dag);
  std::vector<double> start(b.n, 0.0);
  double clock = 0.0;
  for (const NodeId v : topo) {
    start[v.v] = clock;
    clock += b.cost.exec_time(v, cpu);
  }
  return start;
}

}  // namespace

MapReport WgdpDeviceMapper::map(const Evaluator& eval,
                                const MapRequest& request) {
  RunControl control(request);
  Builder b(eval.cost());
  b.add_assignment();

  // Makespan proxy: T >= load(d) / slots(d) with load(d) = sum_i exec(i, d)
  // x_id — a device with several execution slots drains its queue that much
  // faster.
  const int t = b.model.add_continuous(0.0, kBigUb, 1.0);
  for (std::size_t d = 0; d < b.m; ++d) {
    const double slots = static_cast<double>(
        std::max<std::size_t>(1, b.platform.device(DeviceId(d)).slots));
    std::vector<LinTerm> terms{{t, 1.0}};
    for (std::size_t i = 0; i < b.n; ++i) {
      terms.push_back({b.xvar(i, d),
                       -b.cost.exec_time(NodeId(i), DeviceId(d)) / slots});
    }
    b.model.add_constraint(std::move(terms), RowSense::Ge, 0.0);
  }

  std::vector<double> warm(b.model.var_count(), 0.0);
  b.warm_assignment(warm);
  double cpu_load = 0.0;
  for (std::size_t i = 0; i < b.n; ++i) {
    cpu_load += b.cost.exec_time(NodeId(i), b.platform.default_device());
  }
  warm[t] = cpu_load;

  const MipRunParams run = mip_params_for_run(params_, control);
  const MipResult mip = MipSolver(run.mip).solve(b.model, &warm);
  return finish(eval, b, mip, run, control, last_status_, last_timed_out_);
}

MapReport WgdpTimeMapper::map(const Evaluator& eval,
                              const MapRequest& request) {
  RunControl control(request);
  Builder b(eval.cost());
  b.add_assignment();
  const TimeStructure ts = add_time_structure(b, /*streaming_aware=*/true);

  // Device contention approximation: the makespan is at least each
  // non-FPGA device's total load divided by its slot count (FPGA pipelines
  // co-reside in fabric).
  for (std::size_t d = 0; d < b.m; ++d) {
    if (b.platform.device(DeviceId(d)).is_fpga()) continue;
    const double slots = static_cast<double>(
        std::max<std::size_t>(1, b.platform.device(DeviceId(d)).slots));
    std::vector<LinTerm> terms{{ts.makespan, 1.0}};
    for (std::size_t i = 0; i < b.n; ++i) {
      terms.push_back({b.xvar(i, d),
                       -b.cost.exec_time(NodeId(i), DeviceId(d)) / slots});
    }
    b.model.add_constraint(std::move(terms), RowSense::Ge, 0.0);
  }

  std::vector<double> warm(b.model.var_count(), 0.0);
  b.warm_assignment(warm);
  const auto starts = serial_cpu_starts(b);
  double total = 0.0;
  for (std::size_t i = 0; i < b.n; ++i) {
    warm[ts.start[i]] = starts[i];
    total = std::max(total, starts[i] + b.cost.exec_time(
                                            NodeId(i),
                                            b.platform.default_device()));
  }
  warm[ts.makespan] = total;

  const MipRunParams run = mip_params_for_run(params_, control);
  const MipResult mip = MipSolver(run.mip).solve(b.model, &warm);
  return finish(eval, b, mip, run, control, last_status_, last_timed_out_);
}

MapReport ZhouLiuMapper::map(const Evaluator& eval,
                             const MapRequest& request) {
  RunControl control(request);
  Builder b(eval.cost());
  b.add_assignment();
  const TimeStructure ts = add_time_structure(b, /*streaming_aware=*/false);
  const double bigm = ts.horizon;

  // Explicit total order per device: for every pair of tasks with no
  // precedence path, a binary z decides who goes first when they share a
  // device (the slot semantics of Zhou and Liu).
  const auto topo = topological_order(b.dag);
  std::vector<std::size_t> topo_pos(b.n);
  for (std::size_t i = 0; i < b.n; ++i) topo_pos[topo[i].v] = i;

  std::vector<double> warm_z;  // parallel to created z vars
  std::vector<int> z_vars;
  for (std::size_t i = 0; i < b.n; ++i) {
    const auto reach_i = reachable_set(b.dag, NodeId(i));
    for (std::size_t j = i + 1; j < b.n; ++j) {
      if (reach_i[j] || reachable(b.dag, NodeId(j), NodeId(i))) {
        continue;  // already ordered by precedence
      }
      const int z = b.model.add_binary(0.0);  // z = 1: i before j
      z_vars.push_back(z);
      warm_z.push_back(topo_pos[i] < topo_pos[j] ? 1.0 : 0.0);
      for (std::size_t d = 0; d < b.m; ++d) {
        const double exec_i = b.cost.exec_time(NodeId(i), DeviceId(d));
        const double exec_j = b.cost.exec_time(NodeId(j), DeviceId(d));
        // i before j on device d: s_j >= s_i + exec_i - M(3 - z - xi - xj).
        b.model.add_constraint({{ts.start[j], 1.0},
                                {ts.start[i], -1.0},
                                {z, -bigm},
                                {b.xvar(i, d), -bigm},
                                {b.xvar(j, d), -bigm}},
                               RowSense::Ge, exec_i - 3.0 * bigm);
        // j before i on device d: s_i >= s_j + exec_j - M(2 + z - xi - xj).
        b.model.add_constraint({{ts.start[i], 1.0},
                                {ts.start[j], -1.0},
                                {z, bigm},
                                {b.xvar(i, d), -bigm},
                                {b.xvar(j, d), -bigm}},
                               RowSense::Ge, exec_j - 2.0 * bigm);
      }
    }
  }

  std::vector<double> warm(b.model.var_count(), 0.0);
  b.warm_assignment(warm);
  const auto starts = serial_cpu_starts(b);
  double total = 0.0;
  for (std::size_t i = 0; i < b.n; ++i) {
    warm[ts.start[i]] = starts[i];
    total = std::max(total, starts[i] + b.cost.exec_time(
                                            NodeId(i),
                                            b.platform.default_device()));
  }
  warm[ts.makespan] = total;
  for (std::size_t k = 0; k < z_vars.size(); ++k) warm[z_vars[k]] = warm_z[k];

  const MipRunParams run = mip_params_for_run(params_, control);
  const MipResult mip = MipSolver(run.mip).solve(b.model, &warm);
  return finish(eval, b, mip, run, control, last_status_, last_timed_out_);
}

namespace {

MilpMapperParams milp_params_from_options(const MapperOptions& options) {
  MilpMapperParams params;
  params.time_limit_s = options.get_double("time-limit", params.time_limit_s);
  require(params.time_limit_s > 0.0,
          "mapper option 'time-limit': must be > 0 seconds");
  const std::int64_t max_nodes = options.get_int(
      "max-nodes", static_cast<std::int64_t>(params.max_nodes));
  require(max_nodes > 0, "mapper option 'max-nodes': must be > 0");
  params.max_nodes = static_cast<std::size_t>(max_nodes);
  return params;
}

std::vector<MapperOptionInfo> milp_options() {
  const MilpMapperParams defaults;
  return {
      {"time-limit", format_option_value(defaults.time_limit_s),
       "solver time limit in seconds"},
      {"max-nodes", std::to_string(defaults.max_nodes),
       "branch-and-bound node cap"},
  };
}

}  // namespace

void detail::register_milp_mappers(MapperRegistry& registry) {
  {
    MapperEntry entry;
    entry.name = "wgdp-dev";
    entry.display_name = "WGDP-Dev";
    entry.description =
        "WGDP device-based MILP (Wilhelm et al.): minimizes the maximum "
        "per-device load; fast but blind to transfers and the critical path";
    entry.options = milp_options();
    entry.factory = [](const MapperContext& ctx) {
      return std::make_unique<WgdpDeviceMapper>(
          milp_params_from_options(ctx.options));
    };
    registry.add(std::move(entry));
  }
  {
    MapperEntry entry;
    entry.name = "wgdp-time";
    entry.display_name = "WGDP-Time";
    entry.description =
        "WGDP time-based MILP: big-M precedence constraints with transfer "
        "costs and FPGA streaming discount; load-bound contention model";
    entry.options = milp_options();
    entry.factory = [](const MapperContext& ctx) {
      return std::make_unique<WgdpTimeMapper>(
          milp_params_from_options(ctx.options));
    };
    registry.add(std::move(entry));
  }
  {
    MapperEntry entry;
    entry.name = "zhouliu";
    entry.display_name = "ZhouLiu";
    entry.description =
        "Zhou/Liu MILP: full disjunctive per-device ordering; near-optimal "
        "on small graphs, times out quickly as the model explodes";
    entry.options = milp_options();
    entry.factory = [](const MapperContext& ctx) {
      return std::make_unique<ZhouLiuMapper>(
          milp_params_from_options(ctx.options));
    };
    registry.add(std::move(entry));
  }
}

}  // namespace spmap
