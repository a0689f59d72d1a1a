#include "mappers/lookahead_heft.hpp"

#include <algorithm>
#include <memory>

#include "graph/algorithms.hpp"
#include "mappers/builtin_registrations.hpp"
#include "mappers/heft.hpp"
#include "mappers/registry.hpp"
#include "sched/timeline.hpp"
#include "util/thread_pool.hpp"

namespace spmap {

namespace {

/// Scratch scheduler state that can be copied cheaply for tentative
/// placements.
struct SchedState {
  std::vector<DeviceTimeline> timelines;  // per (device, slot)
  std::vector<double> finish;
  Mapping mapping;
  std::vector<double> fpga_area_used;
};

struct Placement {
  DeviceId device;
  std::size_t slot = 0;
  double start = 0.0;
  double eft = kInfeasible;
};

/// Best insertion-based placement of `v` by plain HEFT's EFT rule.
Placement best_placement(const CostModel& cost,
                         const std::vector<std::size_t>& slot_offset,
                         const SchedState& state, NodeId v) {
  const Platform& platform = cost.platform();
  Placement best;
  best.device = platform.default_device();
  for (std::size_t d = 0; d < platform.device_count(); ++d) {
    const DeviceId dev(d);
    const Device& device = platform.device(dev);
    if (device.is_fpga() && state.fpga_area_used[d] + cost.area(v) >
                                device.area_budget) {
      continue;
    }
    double est = 0.0;
    for (const EdgeId e : cost.dag().in_edges(v)) {
      const NodeId u = cost.dag().src(e);
      est = std::max(est, state.finish[u.v] +
                              cost.transfer_time(e, state.mapping[u], dev));
    }
    const double exec = cost.exec_time(v, dev);
    for (std::size_t s = slot_offset[d]; s < slot_offset[d + 1]; ++s) {
      const double start = state.timelines[s].earliest_start(est, exec);
      if (start + exec < best.eft) {
        best.eft = start + exec;
        best.device = dev;
        best.slot = s;
        best.start = start;
      }
    }
  }
  return best;
}

void commit(const CostModel& cost, SchedState& state, NodeId v,
            const Placement& p) {
  state.mapping[v] = p.device;
  state.finish[v.v] = p.eft;
  state.timelines[p.slot].reserve(p.start, p.eft - p.start);
  if (cost.platform().device(p.device).is_fpga()) {
    state.fpga_area_used[p.device.v] += cost.area(v);
  }
}

}  // namespace

MapReport LookaheadHeftMapper::map(const Evaluator& eval,
                                   const MapRequest& request) {
  RunControl control(request);
  const CostModel& cost = eval.cost();
  const Dag& dag = cost.dag();
  const Platform& platform = cost.platform();
  const std::size_t n = dag.node_count();
  const std::size_t m = platform.device_count();

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

  std::vector<std::size_t> slot_offset(m + 1, 0);
  for (std::size_t d = 0; d < m; ++d) {
    slot_offset[d + 1] =
        slot_offset[d] +
        std::max<std::size_t>(1, platform.device(DeviceId(d)).slots);
  }

  SchedState state;
  state.timelines.resize(slot_offset.back());
  state.finish.assign(n, 0.0);
  state.mapping = Mapping(n, platform.default_device());
  state.fpga_area_used.assign(m, 0.0);

  const PoolLease lease(request, params_.threads);
  ThreadPool* pool = lease.get();

  // Scores one candidate device for `v`: place v on its best slot, then
  // tentatively schedule all children with plain HEFT on a private state
  // copy. Reads the shared `state` only — safe to run per-device in
  // parallel.
  std::vector<Placement> placement(m);
  std::vector<double> score(m);
  auto score_device = [&](NodeId v, std::size_t d) {
    placement[d] = Placement{};
    score[d] = kInfeasible;
    const DeviceId dev(d);
    const Device& device = platform.device(dev);
    if (device.is_fpga() &&
        state.fpga_area_used[d] + cost.area(v) > device.area_budget) {
      return;
    }
    // Placement of v on dev (its own best slot).
    double est = 0.0;
    for (const EdgeId e : dag.in_edges(v)) {
      const NodeId u = dag.src(e);
      est = std::max(est, state.finish[u.v] +
                              cost.transfer_time(e, state.mapping[u], dev));
    }
    const double exec = cost.exec_time(v, dev);
    Placement p;
    p.device = dev;
    for (std::size_t s = slot_offset[d]; s < slot_offset[d + 1]; ++s) {
      const double start = state.timelines[s].earliest_start(est, exec);
      if (start + exec < p.eft) {
        p.eft = start + exec;
        p.slot = s;
        p.start = start;
      }
    }
    if (p.eft >= kInfeasible) return;

    // Tentative: copy the state, commit v, schedule children greedily.
    SchedState tentative = state;
    commit(cost, tentative, v, p);
    double worst = p.eft;
    for (const EdgeId e : dag.out_edges(v)) {
      const NodeId child = dag.dst(e);
      const Placement cp = best_placement(cost, slot_offset, tentative, child);
      if (cp.eft >= kInfeasible) {
        worst = kInfeasible;
        break;
      }
      commit(cost, tentative, child, cp);
      worst = std::max(worst, cp.eft);
    }
    placement[d] = p;
    score[d] = worst;
  };

  // One-shot list scheduler: one "iteration" places one task; a truncated
  // run leaves the remaining tasks on the default device (valid mapping).
  std::size_t placed = 0;
  for (const NodeId v : order) {
    if (control.should_stop(placed, 0)) break;
    // Candidate devices for v; judge each by the worst child EFT after
    // tentatively scheduling all children with plain HEFT. The frontier is
    // scored in parallel; the winner is reduced in device order, so the
    // choice matches the serial scan exactly.
    if (pool) {
      pool->parallel_for(m, [&](std::size_t begin, std::size_t end,
                                std::size_t /*worker*/) {
        for (std::size_t d = begin; d < end; ++d) score_device(v, d);
      });
    } else {
      for (std::size_t d = 0; d < m; ++d) score_device(v, d);
    }
    Placement chosen;
    double chosen_score = kInfeasible;
    for (std::size_t d = 0; d < m; ++d) {
      if (score[d] < chosen_score) {
        chosen_score = score[d];
        chosen = placement[d];
      }
    }
    SPMAP_ASSERT(chosen.eft < kInfeasible);
    commit(cost, state, v, chosen);
    ++placed;
  }

  MapReport report;
  EvalContext ctx;
  report.predicted_makespan = eval.evaluate(state.mapping, ctx);
  report.evaluations = ctx.evaluations();
  report.mapping = std::move(state.mapping);
  report.iterations = placed;
  control.record_incumbent(report.predicted_makespan, placed);
  control.finalize(report);
  return report;
}

void detail::register_lookahead_heft_mapper(MapperRegistry& registry) {
  MapperEntry entry;
  entry.name = "laheft";
  entry.display_name = "LookaheadHEFT";
  entry.description =
      "HEFT with one level of lookahead (Bittencourt et al.): device choice "
      "minimizes the worst child EFT instead of the task's own EFT";
  entry.options = {
      {"threads", "1",
       "candidate-frontier worker threads (results thread-count invariant)"},
  };
  entry.factory = [](const MapperContext& ctx) {
    LookaheadHeftParams params;
    params.threads = threads_option(ctx.options);
    return std::make_unique<LookaheadHeftMapper>(params);
  };
  registry.add(std::move(entry));
}

}  // namespace spmap
