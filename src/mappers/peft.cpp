#include "mappers/peft.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "mappers/builtin_registrations.hpp"
#include "mappers/registry.hpp"
#include "sched/timeline.hpp"

namespace spmap {

std::vector<double> peft_oct(const CostModel& cost) {
  const Dag& dag = cost.dag();
  const std::size_t n = dag.node_count();
  const std::size_t m = cost.platform().device_count();
  std::vector<double> oct(n * m, 0.0);

  const auto topo = topological_order(dag);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    for (std::size_t d = 0; d < m; ++d) {
      double worst_succ = 0.0;
      for (const EdgeId e : dag.out_edges(v)) {
        const NodeId w = dag.dst(e);
        double best_dev = kInfeasible;
        for (std::size_t dw = 0; dw < m; ++dw) {
          const double comm =
              (dw == d) ? 0.0 : cost.mean_transfer_time(e);
          best_dev = std::min(best_dev, oct[w.v * m + dw] +
                                            cost.exec_time(w, DeviceId(dw)) +
                                            comm);
        }
        worst_succ = std::max(worst_succ, best_dev);
      }
      oct[v.v * m + d] = worst_succ;
    }
  }
  return oct;
}

MapReport PeftMapper::map(const Evaluator& eval, const MapRequest& request) {
  RunControl control(request);
  const CostModel& cost = eval.cost();
  const Dag& dag = cost.dag();
  const Platform& platform = cost.platform();
  const std::size_t n = dag.node_count();
  const std::size_t m = platform.device_count();

  const auto oct = peft_oct(cost);
  // rank_oct = device-averaged OCT.
  std::vector<double> rank(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < m; ++d) rank[i] += oct[i * m + d];
    rank[i] /= static_cast<double>(m);
  }

  const auto topo = topological_order(dag);
  std::vector<std::size_t> topo_pos(n);
  for (std::size_t i = 0; i < n; ++i) topo_pos[topo[i].v] = i;

  // PEFT processes ready tasks by maximum rank_oct (list scheduling with a
  // ready queue rather than a static order, per the original paper).
  std::vector<std::size_t> pending(n, 0);
  std::vector<NodeId> ready;
  for (std::size_t i = 0; i < n; ++i) {
    pending[i] = dag.in_degree(NodeId(i));
    if (pending[i] == 0) ready.push_back(NodeId(i));
  }

  std::vector<std::size_t> slot_offset(m + 1, 0);
  for (std::size_t d = 0; d < m; ++d) {
    slot_offset[d + 1] =
        slot_offset[d] +
        std::max<std::size_t>(1, platform.device(DeviceId(d)).slots);
  }
  std::vector<DeviceTimeline> timelines(slot_offset.back());
  std::vector<double> finish(n, 0.0);
  Mapping mapping(n, platform.default_device());
  std::vector<double> fpga_area_used(m, 0.0);

  // One-shot list scheduler: one "iteration" places one ready task. A
  // truncated run leaves the rest on the default device (valid mapping).
  std::size_t scheduled = 0;
  while (!ready.empty()) {
    if (control.should_stop(scheduled, 0)) break;
    // Highest-rank ready task (ties: earliest topological position).
    std::size_t pick = 0;
    for (std::size_t k = 1; k < ready.size(); ++k) {
      const NodeId a = ready[k];
      const NodeId b = ready[pick];
      if (rank[a.v] > rank[b.v] ||
          (rank[a.v] == rank[b.v] && topo_pos[a.v] < topo_pos[b.v])) {
        pick = k;
      }
    }
    const NodeId v = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();

    DeviceId best_dev = platform.default_device();
    double best_oeft = kInfeasible;
    double best_start = 0.0;
    double best_eft = 0.0;
    std::size_t best_slot = 0;
    for (std::size_t d = 0; d < m; ++d) {
      const DeviceId dev(d);
      const Device& device = platform.device(dev);
      if (device.is_fpga() && fpga_area_used[d] + cost.area(v) >
                                  device.area_budget) {
        continue;
      }
      double est = 0.0;
      for (const EdgeId e : dag.in_edges(v)) {
        const NodeId u = dag.src(e);
        est = std::max(est,
                       finish[u.v] + cost.transfer_time(e, mapping[u], dev));
      }
      const double exec = cost.exec_time(v, dev);
      for (std::size_t s = slot_offset[d]; s < slot_offset[d + 1]; ++s) {
        const double start = timelines[s].earliest_start(est, exec);
        const double eft = start + exec;
        // PEFT's lookahead: optimistic EFT = EFT + OCT.
        const double oeft = eft + oct[v.v * m + d];
        if (oeft < best_oeft) {
          best_oeft = oeft;
          best_dev = dev;
          best_start = start;
          best_eft = eft;
          best_slot = s;
        }
      }
    }
    mapping[v] = best_dev;
    finish[v.v] = best_eft;
    timelines[best_slot].reserve(best_start, best_eft - best_start);
    if (platform.device(best_dev).is_fpga()) {
      fpga_area_used[best_dev.v] += cost.area(v);
    }
    ++scheduled;
    for (const EdgeId e : dag.out_edges(v)) {
      if (--pending[dag.dst(e).v] == 0) ready.push_back(dag.dst(e));
    }
  }
  require(scheduled == n || control.stopped(),
          "PEFT: scheduling did not cover all tasks");

  MapReport report;
  EvalContext ctx;
  report.predicted_makespan = eval.evaluate(mapping, ctx);
  report.evaluations = ctx.evaluations();
  report.mapping = std::move(mapping);
  report.iterations = scheduled;
  control.record_incumbent(report.predicted_makespan, scheduled);
  control.finalize(report);
  return report;
}

void detail::register_peft_mapper(MapperRegistry& registry) {
  MapperEntry entry;
  entry.name = "peft";
  entry.display_name = "PEFT";
  entry.description =
      "Predict Earliest Finish Time (Arabnejad/Barbosa): optimistic cost "
      "table adds one step of global lookahead to HEFT's device choice";
  entry.factory = [](const MapperContext&) {
    return std::make_unique<PeftMapper>();
  };
  registry.add(std::move(entry));
}

}  // namespace spmap
