#include "mappers/heft.hpp"

#include <algorithm>
#include <numeric>

#include "graph/algorithms.hpp"
#include "mappers/builtin_registrations.hpp"
#include "mappers/registry.hpp"
#include "sched/timeline.hpp"

namespace spmap {

std::vector<double> heft_upward_ranks(const CostModel& cost) {
  const Dag& dag = cost.dag();
  std::vector<double> rank(dag.node_count(), 0.0);
  const auto topo = topological_order(dag);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    double succ_term = 0.0;
    for (const EdgeId e : dag.out_edges(v)) {
      const NodeId w = dag.dst(e);
      succ_term = std::max(succ_term,
                           cost.mean_transfer_time(e) + rank[w.v]);
    }
    rank[v.v] = cost.mean_exec_time(v) + succ_term;
  }
  return rank;
}

MapReport HeftMapper::map(const Evaluator& eval, const MapRequest& request) {
  RunControl control(request);
  const CostModel& cost = eval.cost();
  const Dag& dag = cost.dag();
  const Platform& platform = cost.platform();
  const std::size_t n = dag.node_count();
  const std::size_t m = platform.device_count();

  // Priority phase: schedule in decreasing upward rank. Ties (possible with
  // zero-cost virtual tasks) break by topological position so precedence is
  // always respected.
  const auto rank = heft_upward_ranks(cost);
  const auto topo = topological_order(dag);
  std::vector<std::size_t> topo_pos(n);
  for (std::size_t i = 0; i < n; ++i) topo_pos[topo[i].v] = i;
  std::vector<NodeId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = NodeId(i);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (rank[a.v] != rank[b.v]) return rank[a.v] > rank[b.v];
    return topo_pos[a.v] < topo_pos[b.v];
  });

  // Scheduling phase: insertion-based earliest finish time, one timeline
  // per execution slot of each device.
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

  // One-shot list scheduler: one "iteration" places one task. A truncated
  // run leaves the remaining tasks on the default device — still a valid
  // mapping, as the run API requires.
  std::size_t placed = 0;
  for (const NodeId v : order) {
    if (control.should_stop(placed, 0)) break;
    DeviceId best_dev = platform.default_device();
    double best_eft = kInfeasible;
    double best_start = 0.0;
    std::size_t best_slot = 0;
    for (std::size_t d = 0; d < m; ++d) {
      const DeviceId dev(d);
      const Device& device = platform.device(dev);
      if (device.is_fpga() && fpga_area_used[d] + cost.area(v) >
                                  device.area_budget) {
        continue;  // no room left in fabric
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
        if (eft < best_eft) {
          best_eft = eft;
          best_dev = dev;
          best_start = start;
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
    ++placed;
  }

  MapReport report;
  EvalContext ctx;
  report.predicted_makespan = eval.evaluate(mapping, ctx);
  report.evaluations = ctx.evaluations();
  report.mapping = std::move(mapping);
  report.iterations = placed;
  control.record_incumbent(report.predicted_makespan, placed);
  control.finalize(report);
  return report;
}

void detail::register_heft_mapper(MapperRegistry& registry) {
  MapperEntry entry;
  entry.name = "heft";
  entry.display_name = "HEFT";
  entry.description =
      "Heterogeneous Earliest Finish Time list scheduler (Topcuoglu et "
      "al.): upward-rank priority, insertion-based EFT device selection";
  entry.factory = [](const MapperContext&) {
    return std::make_unique<HeftMapper>();
  };
  registry.add(std::move(entry));
}

}  // namespace spmap
