#pragma once
/// Shared fixtures for mapper tests: a deterministic two-device platform
/// and uniform task attributes with easy-to-hand-check costs, plus the
/// digest the exact-result pins compare mappings by.

#include <cstdio>
#include <string>

#include "graph/dag.hpp"
#include "graph/task_attrs.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "util/content_hash.hpp"

namespace spmap::testing {

/// CPU (1 lane @ 1 Gops) + FPGA (1 Gops per streamability, area 1000,
/// fill 0.1) linked at `bandwidth_gbps` (default 1 GB/s) with no latency.
/// With 100 MB edges and the attrs below: CPU exec 1 s, FPGA exec 0.1 s,
/// transfer 0.1 s.
inline Platform cpu_fpga_platform(double bandwidth_gbps = 1.0,
                                  double fpga_area_budget = 1000.0) {
  Platform p;
  Device cpu;
  cpu.name = "cpu";
  cpu.kind = DeviceKind::Cpu;
  cpu.lanes = 1.0;
  cpu.lane_gops = 1.0;
  const DeviceId c = p.add_device(cpu);
  Device fpga;
  fpga.name = "fpga";
  fpga.kind = DeviceKind::Fpga;
  fpga.area_budget = fpga_area_budget;
  fpga.stream_gops_per_streamability = 1.0;
  fpga.stream_fill_fraction = 0.1;
  const DeviceId f = p.add_device(fpga);
  p.set_link(c, f, bandwidth_gbps, 0.0);
  return p;
}

/// complexity 10, parallelizability 0 (GPU-hostile), streamability 10,
/// area 10 for every task.
inline TaskAttrs serial_streamable_attrs(std::size_t n) {
  TaskAttrs a;
  a.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.complexity[i] = 10.0;
    a.parallelizability[i] = 0.0;
    a.streamability[i] = 10.0;
    a.area[i] = 10.0;
  }
  return a;
}

/// A chain 0 -> 1 -> ... -> n-1 with 100 MB edges.
inline Dag chain_dag(std::size_t n) {
  Dag d(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    d.add_edge(NodeId(i), NodeId(i + 1), 100.0);
  }
  return d;
}

/// Hex digest of a mapping's device sequence: one short string that pins a
/// whole mapping in a table-driven test.
inline std::string mapping_digest(const Mapping& mapping) {
  ContentHasher h("test-mapping");
  for (const DeviceId d : mapping.device) h.u64(d.v);
  return h.digest().hex();
}

/// `v` with 17 significant digits: enough to round-trip, so a failing
/// exact-result pin prints the value to paste.
inline std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace spmap::testing
