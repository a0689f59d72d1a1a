#pragma once
/// \file platform.hpp
/// Heterogeneous platform: a set of devices plus a pairwise interconnect
/// model (bandwidth + latency per ordered device pair).

#include <vector>

#include "graph/ids.hpp"
#include "model/device.hpp"
#include "util/error.hpp"

namespace spmap {

class Platform {
 public:
  DeviceId add_device(Device device);

  std::size_t device_count() const { return devices_.size(); }
  const Device& device(DeviceId d) const {
    require(d.v < devices_.size(), "Platform: device id out of range");
    return devices_[d.v];
  }
  const std::vector<Device>& devices() const { return devices_; }

  /// The device every task is initially mapped to (paper Section III-A,
  /// step 1: "usually a CPU"). Defaults to the first CPU added.
  DeviceId default_device() const;

  /// Sets the interconnect between two distinct devices (both directions).
  void set_link(DeviceId a, DeviceId b, double bandwidth_gbps,
                double latency_s);

  /// Link bandwidth in GB/s; same-device "transfers" are free and must not
  /// be queried. Unset links throw.
  double bandwidth_gbps(DeviceId from, DeviceId to) const;
  double latency_s(DeviceId from, DeviceId to) const;

  /// All FPGA devices.
  std::vector<DeviceId> fpga_devices() const;

  /// Throws spmap::Error if any distinct device pair lacks a link or any
  /// device has nonsensical parameters.
  void validate() const;

 private:
  std::size_t link_index(DeviceId from, DeviceId to) const;

  std::vector<Device> devices_;
  std::vector<double> bandwidth_;  // device_count^2, -1 = unset
  std::vector<double> latency_;
};

/// The evaluation platform of the paper (Section IV-A): one AMD Epyc 7351P
/// CPU, one AMD Radeon RX Vega 56 GPU and one Xilinx XCZ7045 FPGA, with
/// PCIe-class interconnects. Device data is derived from public data sheets;
/// see DESIGN.md for the substitution rationale.
Platform reference_platform();

/// Indices of the three devices in reference_platform().
struct ReferenceDevices {
  DeviceId cpu{0};
  DeviceId gpu{1};
  DeviceId fpga{2};
};

/// A scaled-out "production node" variant of the evaluation platform: a
/// many-core dual-socket host (32 execution slots), a partitioned
/// data-center GPU (8 slots) and a large FPGA card, on faster PCIe links.
/// Device order matches reference_platform(). Used by the wide-workflow
/// benchmarks (bench_perf_report, perfbench): schedules on this
/// machine are dependency- rather than queue-bound, the regime where
/// incremental delta-evaluation shines.
Platform manycore_platform();

}  // namespace spmap
