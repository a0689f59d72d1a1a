#include "model/platform.hpp"

namespace spmap {

DeviceId Platform::add_device(Device device) {
  require(device.lanes >= 1.0 || device.is_fpga(),
          "Platform: device needs >= 1 lane");
  const DeviceId id(devices_.size());
  devices_.push_back(std::move(device));
  // Grow the link matrices, preserving existing entries.
  const std::size_t n = devices_.size();
  std::vector<double> bw(n * n, -1.0);
  std::vector<double> lat(n * n, -1.0);
  for (std::size_t a = 0; a + 1 < n; ++a) {
    for (std::size_t b = 0; b + 1 < n; ++b) {
      bw[a * n + b] = bandwidth_[a * (n - 1) + b];
      lat[a * n + b] = latency_[a * (n - 1) + b];
    }
  }
  bandwidth_ = std::move(bw);
  latency_ = std::move(lat);
  return id;
}

DeviceId Platform::default_device() const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].kind == DeviceKind::Cpu) return DeviceId(i);
  }
  require(!devices_.empty(), "Platform: no devices");
  return DeviceId(0u);
}

std::size_t Platform::link_index(DeviceId from, DeviceId to) const {
  require(from.v < devices_.size() && to.v < devices_.size(),
          "Platform: device id out of range");
  return from.v * devices_.size() + to.v;
}

void Platform::set_link(DeviceId a, DeviceId b, double bandwidth_gbps,
                        double latency_s) {
  require(a != b, "Platform: no self-links");
  require(bandwidth_gbps > 0.0 && latency_s >= 0.0,
          "Platform: invalid link parameters");
  bandwidth_[link_index(a, b)] = bandwidth_gbps;
  bandwidth_[link_index(b, a)] = bandwidth_gbps;
  latency_[link_index(a, b)] = latency_s;
  latency_[link_index(b, a)] = latency_s;
}

double Platform::bandwidth_gbps(DeviceId from, DeviceId to) const {
  const double bw = bandwidth_[link_index(from, to)];
  require(bw > 0.0, "Platform: link not configured");
  return bw;
}

double Platform::latency_s(DeviceId from, DeviceId to) const {
  const double lat = latency_[link_index(from, to)];
  require(lat >= 0.0, "Platform: link not configured");
  return lat;
}

std::vector<DeviceId> Platform::fpga_devices() const {
  std::vector<DeviceId> out;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].is_fpga()) out.push_back(DeviceId(i));
  }
  return out;
}

void Platform::validate() const {
  require(!devices_.empty(), "Platform: no devices");
  for (const Device& d : devices_) {
    if (d.is_fpga()) {
      require(d.area_budget > 0.0, "Platform: FPGA without area budget");
      require(d.stream_gops_per_streamability > 0.0,
              "Platform: FPGA without throughput");
      require(d.stream_fill_fraction >= 0.0 && d.stream_fill_fraction <= 1.0,
              "Platform: FPGA fill fraction outside [0, 1]");
    } else {
      require(d.lanes >= 1.0 && d.lane_gops > 0.0,
              "Platform: device without compute throughput");
    }
  }
  for (std::size_t a = 0; a < devices_.size(); ++a) {
    for (std::size_t b = 0; b < devices_.size(); ++b) {
      if (a == b) continue;
      require(bandwidth_[a * devices_.size() + b] > 0.0,
              "Platform: missing link");
    }
  }
}

Platform reference_platform() {
  Platform p;

  // AMD Epyc 7351P: 16 cores @ 2.4 GHz base, modeled as four quad-core
  // execution contexts so independent tasks overlap on the host.
  Device cpu;
  cpu.name = "AMD Epyc 7351P";
  cpu.kind = DeviceKind::Cpu;
  cpu.lanes = 16.0;
  cpu.lane_gops = 2.4;
  cpu.slots = 4;
  const DeviceId cpu_id = p.add_device(cpu);

  // AMD Radeon RX Vega 56: 3584 stream processors. Effective per-lane
  // throughput is derated to reflect memory-bound, irregular task kernels;
  // a perfectly parallelizable task runs ~7.5x faster than on one CPU
  // context. Tasks with imperfect parallelizability collapse under
  // Amdahl's law and are better off on the CPU.
  Device gpu;
  gpu.name = "AMD Radeon RX Vega 56";
  gpu.kind = DeviceKind::Gpu;
  gpu.lanes = 3584.0;
  gpu.lane_gops = 0.02;
  const DeviceId gpu_id = p.add_device(gpu);

  // Xilinx Zynq XCZ7045: dataflow accelerator. Throughput scales with the
  // task's streamability (median ~7.4 under the paper's lognormal), and the
  // area budget bounds how many tasks fit at once.
  Device fpga;
  fpga.name = "Xilinx XCZ7045";
  fpga.kind = DeviceKind::Fpga;
  fpga.lanes = 1.0;
  fpga.area_budget = 120.0;
  fpga.stream_gops_per_streamability = 0.7;
  fpga.stream_fill_fraction = 0.1;
  const DeviceId fpga_id = p.add_device(fpga);

  // PCIe-class interconnects: *effective* application-level bandwidths
  // (GB/s) including staging, protocol and synchronization overheads on
  // data-intensive streams — substantially below raw link rates.
  p.set_link(cpu_id, gpu_id, 3.0, 1e-4);
  p.set_link(cpu_id, fpga_id, 1.5, 1e-4);
  p.set_link(gpu_id, fpga_id, 0.75, 2e-4);  // routed via host
  p.validate();
  return p;
}

Platform manycore_platform() {
  Platform p;

  // Dual-socket AMD Epyc 9654 class host: 2 x 96 cores, partitioned into 32
  // six-core execution contexts so wide workflow stages overlap massively.
  Device cpu;
  cpu.name = "2x AMD Epyc 9654";
  cpu.kind = DeviceKind::Cpu;
  cpu.lanes = 192.0;
  cpu.lane_gops = 2.4;
  cpu.slots = 32;
  const DeviceId cpu_id = p.add_device(cpu);

  // Data-center GPU partitioned into 8 concurrent compute instances
  // (MIG-style), each with the reference card's per-lane throughput.
  Device gpu;
  gpu.name = "MI210-class GPU (8 partitions)";
  gpu.kind = DeviceKind::Gpu;
  gpu.lanes = 8192.0;
  gpu.lane_gops = 0.02;
  gpu.slots = 8;
  const DeviceId gpu_id = p.add_device(gpu);

  // Large Alveo-class accelerator card: same dataflow model as the
  // reference FPGA, roughly four times the fabric.
  Device fpga;
  fpga.name = "Alveo U280-class FPGA";
  fpga.kind = DeviceKind::Fpga;
  fpga.lanes = 1.0;
  fpga.area_budget = 480.0;
  fpga.stream_gops_per_streamability = 1.4;
  fpga.stream_fill_fraction = 0.1;
  const DeviceId fpga_id = p.add_device(fpga);

  // PCIe gen4/gen5-class effective application bandwidths.
  p.set_link(cpu_id, gpu_id, 12.0, 5e-5);
  p.set_link(cpu_id, fpga_id, 6.0, 5e-5);
  p.set_link(gpu_id, fpga_id, 3.0, 1e-4);  // routed via host
  p.validate();
  return p;
}

}  // namespace spmap
