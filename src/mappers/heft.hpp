#pragma once
/// \file heft.hpp
/// Heterogeneous Earliest Finish Time (Topcuoglu et al. [6]).
///
/// Upward ranks are computed from device-averaged execution times and
/// pair-averaged communication times; tasks are then scheduled in rank order
/// onto the execution slot minimizing their earliest finish time, with the
/// insertion-based policy of the shared ListSchedule (list_schedule.hpp).
///
/// FPGA area budgets are respected greedily: a device whose remaining area
/// cannot host the task is not considered.

#include "mappers/mapper.hpp"

namespace spmap {

class HeftMapper final : public Mapper {
 public:
  using Mapper::map;
  std::string name() const override { return "HEFT"; }
  MapReport map(const Evaluator& eval, const MapRequest& request) override;
};

/// Upward rank of every task (exposed for tests):
/// rank_u(i) = w_mean(i) + max over successors j of (c_mean(i,j) +
/// rank_u(j)).
std::vector<double> heft_upward_ranks(const CostModel& cost);

/// Every task by decreasing upward rank, the scheduling order of HEFT and
/// lookahead HEFT. Ties (possible with zero-cost virtual tasks) break by
/// topological position, so precedence is always respected.
std::vector<NodeId> upward_rank_order(const CostModel& cost);

}  // namespace spmap
