#pragma once
/// \file device.hpp
/// Processing-unit model (paper Section IV-A; model of Wilhelm et al. [5]).
///
/// A device executes one task at a time (except for FPGA dataflow streaming,
/// see cost_model.hpp). Task speed depends on the device kind:
///  * CPU/GPU: `lane_gops * amdahl(parallelizability, lanes)` — Amdahl's law
///    limits the usable lanes, which is why GPUs only pay off for highly
///    parallelizable tasks;
///  * FPGA: `stream_gops_per_streamability * streamability` — throughput is
///    set by how well the task maps to a dataflow pipeline, independent of
///    thread-level parallelizability. FPGA capacity is limited by an area
///    budget.

#include <string>

namespace spmap {

enum class DeviceKind { Cpu, Gpu, Fpga };

/// Human-readable device kind name ("CPU", "GPU", "FPGA").
const char* device_kind_name(DeviceKind kind);

struct Device {
  std::string name;
  DeviceKind kind = DeviceKind::Cpu;

  /// Parallel processing lanes (cores / shader processors). Ignored for
  /// FPGAs.
  double lanes = 1.0;
  /// Throughput of one lane in G point-operations per second. Ignored for
  /// FPGAs.
  double lane_gops = 1.0;
  /// Concurrent execution contexts. A device runs up to `slots` tasks at
  /// once; each running task sees `lanes / slots` lanes in its Amdahl
  /// speedup. Multicore CPUs get several contexts (independent tasks
  /// overlap there even in the all-CPU baseline); GPUs and FPGAs keep one.
  std::size_t slots = 1;

  /// Lanes available to one task (lanes divided over the slots).
  double lanes_per_slot() const {
    return lanes / static_cast<double>(slots == 0 ? 1 : slots);
  }

  /// FPGA only: total reconfigurable-area budget (task area units).
  double area_budget = 0.0;
  /// FPGA only: throughput in Gops per unit of task streamability.
  double stream_gops_per_streamability = 0.0;
  /// FPGA only: pipeline fill overhead of dataflow streaming, as a fraction
  /// of the producing stage's execution time. A streamed consumer can start
  /// this long after its producer *starts* (instead of waiting for it to
  /// finish).
  double stream_fill_fraction = 0.1;

  bool is_fpga() const { return kind == DeviceKind::Fpga; }
};

/// Amdahl's law: speedup of a task with parallelizable fraction `p` on `n`
/// lanes, relative to one lane. p is clamped to [0, 1], n to [1, inf).
double amdahl_speedup(double p, double n);

}  // namespace spmap
