#include "mappers/list_schedule.hpp"

#include <algorithm>

namespace spmap {

ListSchedule::ListSchedule(const CostModel& cost)
    : cost_(&cost),
      slot_offset_(cost.platform().device_count() + 1, 0),
      finish_(cost.dag().node_count(), 0.0),
      mapping_(cost.dag().node_count(), cost.platform().default_device()),
      area_used_(cost.platform().device_count(), 0.0) {
  const Platform& platform = cost.platform();
  for (std::size_t d = 0; d < platform.device_count(); ++d) {
    slot_offset_[d + 1] =
        slot_offset_[d] +
        std::max<std::size_t>(1, platform.device(DeviceId(d)).slots);
  }
  timelines_.resize(slot_offset_.back());
}

double ListSchedule::ready_time(NodeId v, DeviceId d) const {
  const Dag& dag = cost_->dag();
  double est = 0.0;
  for (const EdgeId e : dag.in_edges(v)) {
    const NodeId u = dag.src(e);
    est = std::max(est, finish_[u.v] + cost_->transfer_time(e, mapping_[u], d));
  }
  return est;
}

void ListSchedule::commit(NodeId v, const Placement& p) {
  mapping_[v] = p.device;
  finish_[v.v] = p.eft;
  // A placement no slot could take (eft kInfeasible) has no slot to book.
  if (p.eft < kInfeasible) {
    timelines_[p.slot].reserve(p.start, p.eft - p.start);
  }
  if (cost_->platform().device(p.device).is_fpga()) {
    area_used_[p.device.v] += cost_->area(v);
  }
}

}  // namespace spmap
