#pragma once
/// \file lookahead_heft.hpp
/// Lookahead HEFT (Bittencourt, Sakellariou, Madeira [7]) — the HEFT
/// variant the paper cites among the list schedulers that try to mitigate
/// HEFT's local view: when choosing a device for a task, the scheduler
/// tentatively places the task and then also schedules its *children* by
/// the plain HEFT rule, picking the device that minimizes the maximum
/// child EFT instead of the task's own EFT.
///
/// One level of lookahead multiplies scheduling cost by roughly the device
/// count times the average out-degree. Each tentative child schedule runs
/// on a copy of the shared ListSchedule (list_schedule.hpp).

#include "mappers/mapper.hpp"

namespace spmap {

class LookaheadHeftMapper final : public Mapper {
 public:
  using Mapper::map;
  std::string name() const override { return "LookaheadHEFT"; }
  MapReport map(const Evaluator& eval, const MapRequest& request) override;
};

}  // namespace spmap
