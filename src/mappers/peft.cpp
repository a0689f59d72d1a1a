#include "mappers/peft.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "mappers/builtin_registrations.hpp"
#include "mappers/list_schedule.hpp"
#include "mappers/registry.hpp"

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

  ListSchedule schedule(cost);

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

    // PEFT's lookahead: the optimistic EFT, EFT + OCT, compared per slot.
    const double* oct_v = &oct[v.v * m];
    schedule.commit(v, schedule.best(v, [oct_v](const Placement& p) {
      return p.eft + oct_v[p.device.v];
    }));
    ++scheduled;
    for (const EdgeId e : dag.out_edges(v)) {
      if (--pending[dag.dst(e).v] == 0) ready.push_back(dag.dst(e));
    }
  }
  require(scheduled == n || control.stopped(),
          "PEFT: scheduling did not cover all tasks");
  return one_shot_report(eval, control, schedule.release_mapping(),
                         scheduled);
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
