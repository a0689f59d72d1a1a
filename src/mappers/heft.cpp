#include "mappers/heft.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "mappers/builtin_registrations.hpp"
#include "mappers/list_schedule.hpp"
#include "mappers/registry.hpp"

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

std::vector<NodeId> upward_rank_order(const CostModel& cost) {
  const Dag& dag = cost.dag();
  const std::size_t n = dag.node_count();
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
  return order;
}

MapReport HeftMapper::map(const Evaluator& eval, const MapRequest& request) {
  RunControl control(request);
  const CostModel& cost = eval.cost();
  ListSchedule schedule(cost);

  // One-shot list scheduler: one "iteration" places one task, on the slot
  // with the earliest finish time. A truncated run leaves the remaining
  // tasks on the default device — still a valid mapping, as the run API
  // requires.
  std::size_t placed = 0;
  for (const NodeId v : upward_rank_order(cost)) {
    if (control.should_stop(placed, 0)) break;
    schedule.commit(v, schedule.best(v, ListSchedule::eft_score));
    ++placed;
  }
  return one_shot_report(eval, control, schedule.release_mapping(), placed);
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
