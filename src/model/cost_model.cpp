#include "model/cost_model.hpp"

#include <algorithm>
#include <limits>

namespace spmap {

namespace {

constexpr double kMaxExec = std::numeric_limits<double>::max();

double device_speed_gops(const Device& dev, const TaskAttrs& attrs,
                         NodeId n) {
  switch (dev.kind) {
    case DeviceKind::Cpu:
    case DeviceKind::Gpu:
      return dev.lane_gops *
             amdahl_speedup(attrs.parallelizability[n.v],
                            dev.lanes_per_slot());
    case DeviceKind::Fpga:
      return dev.stream_gops_per_streamability *
             std::max(attrs.streamability[n.v], 1e-9);
  }
  return 1e-9;
}

}  // namespace

CostModel::CostModel(const Dag& dag, const TaskAttrs& attrs,
                     const Platform& platform)
    : dag_(&dag), attrs_(&attrs), platform_(&platform) {
  attrs.validate(dag);
  platform.validate();
  const std::size_t n = dag.node_count();
  const std::size_t m = platform.device_count();

  data_mb_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node(i);
    data_mb_[i] = std::max(dag.in_data_mb(node), dag.out_data_mb(node));
  }

  exec_.resize(n * m);
  mean_exec_.resize(n);
  min_exec_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node(i);
    const double work_mops = attrs.complexity[i] * data_mb_[i];
    double sum = 0.0;
    double best = kMaxExec;
    for (std::size_t d = 0; d < m; ++d) {
      const double speed =
          device_speed_gops(platform.device(DeviceId(d)), attrs, node);
      // work is in M point-ops, speed in G point-ops/s.
      const double t = work_mops / 1000.0 / speed;
      exec_[i * m + d] = t;
      sum += t;
      best = std::min(best, t);
    }
    mean_exec_[i] = sum / static_cast<double>(m);
    min_exec_[i] = m > 0 ? best : 0.0;
  }

  // Per-pair means behind mean_transfer_time: the mean over ordered
  // distinct pairs distributes over latency + volume / bandwidth.
  if (m >= 2) {
    double lat_sum = 0.0;
    double inv_bw_sum = 0.0;
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = 0; b < m; ++b) {
        if (a == b) continue;
        lat_sum += platform.latency_s(DeviceId(a), DeviceId(b));
        inv_bw_sum += 1.0 / platform.bandwidth_gbps(DeviceId(a), DeviceId(b));
      }
    }
    const auto pairs = static_cast<double>(m * (m - 1));
    mean_latency_s_ = lat_sum / pairs;
    mean_inv_bandwidth_ = inv_bw_sum / pairs;
  }

  fpga_devices_ = platform.fpga_devices();
  area_budget_.assign(m, std::numeric_limits<double>::infinity());
  double total_area = 0.0, max_budget = 0.0;
  for (std::size_t i = 0; i < n; ++i) total_area += attrs.area[i];
  for (const DeviceId f : fpga_devices_) {
    area_budget_[f.v] = platform.device(f).area_budget;
    max_budget = std::max(max_budget, area_budget_[f.v]);
  }
  area_tolerance_ = 1e-9 * (1.0 + total_area + max_budget);
}

double CostModel::mapped_area(const Mapping& m, DeviceId d) const {
  double total = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.device[i] == d) total += attrs_->area[i];
  }
  return total;
}

bool CostModel::area_feasible(const Mapping& m) const {
  for (DeviceId f : fpga_devices_) {
    if (mapped_area(m, f) > area_budget_[f.v]) return false;
  }
  return true;
}

Mapping random_feasible_mapping(const CostModel& cost, Rng& rng) {
  const Platform& platform = cost.platform();
  Mapping m(cost.dag().node_count(), platform.default_device());
  for (auto& d : m.device) {
    d = DeviceId(rng.below(platform.device_count()));
  }
  for (const DeviceId f : platform.fpga_devices()) {
    const double budget = platform.device(f).area_budget;
    double used = cost.mapped_area(m, f);
    for (std::size_t i = 0; i < m.size() && used > budget; ++i) {
      if (m.device[i] == f) {
        m.device[i] = platform.default_device();
        used -= cost.area(NodeId(i));
      }
    }
  }
  return m;
}

double CostModel::max_serial_time() const {
  const std::size_t m = platform_->device_count();
  double total = 0.0;
  for (std::size_t i = 0; i < dag_->node_count(); ++i) {
    double worst = 0.0;
    for (std::size_t d = 0; d < m; ++d) {
      worst = std::max(worst, exec_[i * m + d]);
    }
    total += worst;
  }
  return total;
}

}  // namespace spmap
