#pragma once
/// \file list_schedule.hpp
/// The insertion-based list-scheduling core shared by HEFT, PEFT and
/// lookahead HEFT.
///
/// A `ListSchedule` is a list scheduler's state part-way through its task
/// order: one `DeviceTimeline` per execution slot of each device, the
/// finish time and device of every placed task, and the FPGA area in use.
/// Each baseline is a policy over it: it picks the next task and a score,
/// asks `best` for the winning slot and `commit`s it.
///
/// The candidate scan fixes the comparison order the baselines' exact
/// results depend on: devices in index order (an FPGA without room for the
/// task is skipped), then that device's slots in index order. A slot
/// replaces the incumbent only if its score is strictly lower, so the
/// first of equal scores wins.

#include <utility>
#include <vector>

#include "model/cost_model.hpp"
#include "model/mapping.hpp"
#include "sched/evaluator.hpp"
#include "sched/timeline.hpp"

namespace spmap {

/// Where and when one task runs.
struct Placement {
  DeviceId device;
  std::size_t slot = 0;  ///< index over all devices' execution slots
  double start = 0.0;
  double eft = kInfeasible;  ///< kInfeasible when no slot could take it
};

class ListSchedule {
 public:
  /// An empty schedule: nothing placed, every task on the default device.
  explicit ListSchedule(const CostModel& cost);

  /// The placement of `v` minimizing `score(placement)`, scanned in the
  /// order the file comment fixes. Without any candidate the result sits
  /// on the default device with eft kInfeasible.
  template <class Score>
  Placement best(NodeId v, const Score& score) const {
    Placement best;
    best.device = cost_->platform().default_device();
    double best_score = kInfeasible;
    for (std::size_t d = 0; d < cost_->platform().device_count(); ++d) {
      scan(v, DeviceId(d), score, best, best_score);
    }
    return best;
  }

  /// The earliest-finishing placement of `v` on device `d` alone (eft
  /// kInfeasible when `d` has no room for it).
  Placement best_on(NodeId v, DeviceId d) const {
    Placement best;
    best.device = d;
    double best_score = kInfeasible;
    scan(v, d, eft_score, best, best_score);
    return best;
  }

  /// Places `v` as `p` says: books the slot, records the finish time and
  /// device, charges FPGA area. A placement without a slot (eft
  /// kInfeasible) books none.
  void commit(NodeId v, const Placement& p);

  /// HEFT's score: the earliest finish time itself.
  static double eft_score(const Placement& p) { return p.eft; }

  /// The mapping so far; unplaced tasks sit on the default device.
  Mapping release_mapping() { return std::move(mapping_); }

 private:
  template <class Score>
  void scan(NodeId v, DeviceId d, const Score& score, Placement& best,
            double& best_score) const {
    const Device& device = cost_->platform().device(d);
    if (device.is_fpga() &&
        area_used_[d.v] + cost_->area(v) > device.area_budget) {
      return;  // no room left in fabric
    }
    const double est = ready_time(v, d);
    const double exec = cost_->exec_time(v, d);
    for (std::size_t s = slot_offset_[d.v]; s < slot_offset_[d.v + 1]; ++s) {
      const double start = timelines_[s].earliest_start(est, exec);
      const Placement p{d, s, start, start + exec};
      const double value = score(p);
      if (value < best_score) {
        best_score = value;
        best = p;
      }
    }
  }

  /// When all of `v`'s inputs can be on device `d`.
  double ready_time(NodeId v, DeviceId d) const;

  const CostModel* cost_;
  std::vector<std::size_t> slot_offset_;   // device -> first slot; [m] = all
  std::vector<DeviceTimeline> timelines_;  // per slot
  std::vector<double> finish_;             // per task
  Mapping mapping_;
  std::vector<double> area_used_;  // per device
};

}  // namespace spmap
