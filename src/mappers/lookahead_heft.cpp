#include "mappers/lookahead_heft.hpp"

#include <algorithm>

#include "mappers/builtin_registrations.hpp"
#include "mappers/heft.hpp"
#include "mappers/list_schedule.hpp"
#include "mappers/registry.hpp"

namespace spmap {

namespace {

/// Lookahead's score of placing `v` as `p`: the latest finish among `v` and
/// its children once `v` is committed there and every child is placed by
/// plain HEFT, all on a copy of `schedule`.
double worst_child_eft(const Dag& dag, const ListSchedule& schedule, NodeId v,
                       const Placement& p) {
  ListSchedule tentative = schedule;
  tentative.commit(v, p);
  double worst = p.eft;
  for (const EdgeId e : dag.out_edges(v)) {
    const NodeId child = dag.dst(e);
    const Placement cp = tentative.best(child, ListSchedule::eft_score);
    if (cp.eft >= kInfeasible) return kInfeasible;
    tentative.commit(child, cp);
    worst = std::max(worst, cp.eft);
  }
  return worst;
}

}  // namespace

MapReport LookaheadHeftMapper::map(const Evaluator& eval,
                                   const MapRequest& request) {
  RunControl control(request);
  const CostModel& cost = eval.cost();
  const std::size_t m = cost.platform().device_count();
  ListSchedule schedule(cost);

  // One-shot list scheduler: one "iteration" places one task; a truncated
  // run leaves the remaining tasks on the default device (valid mapping).
  std::size_t placed = 0;
  for (const NodeId v : upward_rank_order(cost)) {
    if (control.should_stop(placed, 0)) break;
    // Each device offers v its earliest-finishing slot; the device whose
    // offer leaves the lowest worst child EFT wins (first on ties).
    Placement chosen;
    double chosen_score = kInfeasible;
    for (std::size_t d = 0; d < m; ++d) {
      const Placement p = schedule.best_on(v, DeviceId(d));
      if (p.eft >= kInfeasible) continue;
      const double score = worst_child_eft(cost.dag(), schedule, v, p);
      if (score < chosen_score) {
        chosen_score = score;
        chosen = p;
      }
    }
    // No offer leaves a finite score (e.g. an FPGA-only platform that fits
    // no task): place v as HEFT would, so the run still returns a mapping,
    // one that prices at kInfeasible when nothing fits.
    if (chosen_score >= kInfeasible) {
      chosen = schedule.best(v, ListSchedule::eft_score);
    }
    schedule.commit(v, chosen);
    ++placed;
  }
  return one_shot_report(eval, control, schedule.release_mapping(), placed);
}

void detail::register_lookahead_heft_mapper(MapperRegistry& registry) {
  MapperEntry entry;
  entry.name = "laheft";
  entry.display_name = "LookaheadHEFT";
  entry.description =
      "HEFT with one level of lookahead (Bittencourt et al.): device choice "
      "minimizes the worst child EFT instead of the task's own EFT";
  entry.factory = [](const MapperContext&) {
    return std::make_unique<LookaheadHeftMapper>();
  };
  registry.add(std::move(entry));
}

}  // namespace spmap
