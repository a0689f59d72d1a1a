#pragma once
/// \file cost_model.hpp
/// Model-based cost function (paper Sections II-B, IV-A; Wilhelm et al. [5]).
///
/// The cost model turns (task graph, task attributes, platform) into
/// per-task execution times and per-edge transfer times:
///
///   work(i)       = complexity(i) * data(i)            [M point-ops]
///   data(i)       = max(total in-MB, total out-MB)     [MB]
///   exec(i, d)    = work(i) / speed(i, d)
///   speed(i, CPU/GPU) = lane_gops * amdahl(parallelizability(i),
///                                          lanes / slots)
///   speed(i, FPGA)    = stream_gops_per_streamability * streamability(i)
///   transfer(e, a, b) = 0 if a == b else latency(a,b) + MB(e)/bandwidth(a,b)
///
/// Tasks with zero complexity (e.g. virtual normalization nodes) cost
/// nothing everywhere. Execution times are precomputed for all (task,
/// device) pairs, so lookups in the evaluator hot loop are O(1).

#include <cmath>
#include <vector>

#include "graph/dag.hpp"
#include "graph/task_attrs.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "util/rng.hpp"

namespace spmap {

class CostModel {
 public:
  /// References must outlive the model.
  CostModel(const Dag& dag, const TaskAttrs& attrs, const Platform& platform);

  const Dag& dag() const { return *dag_; }
  const TaskAttrs& attrs() const { return *attrs_; }
  const Platform& platform() const { return *platform_; }

  /// Data volume processed by a task (MB).
  double task_data_mb(NodeId n) const { return data_mb_[n.v]; }

  /// Execution time of task `n` on device `d` in seconds.
  double exec_time(NodeId n, DeviceId d) const {
    return exec_[n.v * platform_->device_count() + d.v];
  }

  /// Transfer time of edge `e` when producer is on `from`, consumer on `to`.
  double transfer_time(EdgeId e, DeviceId from, DeviceId to) const {
    if (from == to) return 0.0;
    return platform_->latency_s(from, to) +
           dag_->data_mb(e) / 1000.0 / platform_->bandwidth_gbps(from, to);
  }

  /// Mean execution time over all devices (HEFT's task weight). Cached at
  /// construction — O(1).
  double mean_exec_time(NodeId n) const { return mean_exec_[n.v]; }
  /// Minimum execution time over all devices. Cached at construction.
  double min_exec_time(NodeId n) const { return min_exec_[n.v]; }
  /// Mean transfer time of edge `e` over all ordered pairs of distinct
  /// devices (HEFT's average communication cost). The mean distributes over
  /// the transfer formula, so it reduces to two platform-wide scalars
  /// (mean latency, mean inverse bandwidth) cached at construction — O(1)
  /// instead of the former O(device_count^2) loop per call.
  double mean_transfer_time(EdgeId e) const {
    return mean_latency_s_ +
           dag_->data_mb(e) / 1000.0 * mean_inv_bandwidth_;
  }

  /// FPGA area demanded by a task.
  double area(NodeId n) const { return attrs_->area[n.v]; }

  /// Device `d`'s area budget: +infinity unless it is an FPGA.
  double area_budget(DeviceId d) const { return area_budget_[d.v]; }

  /// Total area mapped onto device `d` (meaningful for FPGAs).
  double mapped_area(const Mapping& m, DeviceId d) const;

  /// True iff no FPGA's area budget is exceeded.
  bool area_feasible(const Mapping& m) const;

  /// Device `d`'s area in use under `m` from `running`, a +/- updated sum
  /// that may drift a few ulps from mapped_area's: within 1e-9 * (1 + total
  /// area + max budget) of the budget the exact sum is returned, so the
  /// verdict `> area_budget(d)` is always area_feasible's.
  double area_in_use(const Mapping& m, DeviceId d, double running) const {
    return std::abs(running - area_budget(d)) <= area_tolerance_
               ? mapped_area(m, d)
               : running;
  }

  /// Sum over tasks of the maximum execution time over devices — the
  /// paper's normalization yardstick for cost-function overhead and a
  /// trivial upper bound for any serial schedule.
  double max_serial_time() const;

  /// Raw node-major [node][device] execution-time table (node_count *
  /// device_count entries). The evaluator's flat core indexes it directly.
  const double* exec_data() const { return exec_.data(); }

 private:
  const Dag* dag_;
  const TaskAttrs* attrs_;
  const Platform* platform_;
  std::vector<double> data_mb_;    // per node
  std::vector<double> exec_;       // node-major [node][device]
  std::vector<double> mean_exec_;  // per node
  std::vector<double> min_exec_;   // per node
  std::vector<DeviceId> fpga_devices_;  // cached: area_feasible is hot
  std::vector<double> area_budget_;     // per device
  double area_tolerance_ = 0.0;         // see area_in_use
  double mean_latency_s_ = 0.0;    // over ordered distinct device pairs
  double mean_inv_bandwidth_ = 0.0;
};

/// A uniformly random device assignment over the model's platform, with
/// FPGA area overflow repaired toward the default device (lowest node ids
/// first). The canonical random-candidate generator of the batch
/// benchmarks and the evaluator equivalence tests.
Mapping random_feasible_mapping(const CostModel& cost, Rng& rng);

}  // namespace spmap
