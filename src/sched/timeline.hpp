#pragma once
/// \file timeline.hpp
/// Busy-interval timeline of one execution slot for insertion-based list
/// scheduling (held per slot by ListSchedule, mappers/list_schedule.hpp).

#include <vector>

namespace spmap {

/// A set of disjoint busy intervals on one device, kept sorted by start.
/// Supports the insertion-based policy of HEFT: a task may be placed in any
/// gap that is long enough, not only after the last scheduled task.
class DeviceTimeline {
 public:
  /// Earliest start time >= `est` at which a task of length `duration` fits.
  double earliest_start(double est, double duration) const;

  /// Marks [start, start + duration) busy. The interval must not overlap an
  /// existing one (checked in debug builds).
  void reserve(double start, double duration);

  void clear() { busy_.clear(); }
  std::size_t interval_count() const { return busy_.size(); }

  /// Finish time of the last busy interval (0 when idle).
  double last_finish() const {
    return busy_.empty() ? 0.0 : busy_.back().second;
  }

 private:
  std::vector<std::pair<double, double>> busy_;  // [start, end), sorted
};

}  // namespace spmap
