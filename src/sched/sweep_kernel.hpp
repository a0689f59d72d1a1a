#pragma once
/// \file sweep_kernel.hpp
/// The one implementation of the per-node timing step of the paper's
/// model-based evaluator (Sections II-B, III-A), shared by every sweep.
///
/// `time_node` prices one node of a walk plan. It folds the node's
/// in-edges — a same-device edge waits for its producer to finish; an edge
/// between two tasks co-mapped on an FPGA streams (the consumer may start
/// `fill * exec(producer)` after the producer starts, and takes no slot);
/// any other edge is a transfer of latency + volume / bandwidth that
/// serializes on the link of both endpoint devices — and then starts the
/// node on its device's earliest-ready execution slot. The arithmetic is
/// written once, here, in exactly the order of the naive definition
/// (sched/reference_evaluator.hpp), so `Evaluator`'s flat sweep and every
/// sweep of the incremental engine agree bit for bit by construction.
///
/// Two compile-time policies adapt it to its callers:
///  * Slots — how each device's slot-ready times are held: `ArgminSlots`
///    (slot-index order, earliest found by argmin; `sweep`) or
///    `SortedSlots` (each device's multiset kept sorted — slots are
///    interchangeable, so only the multiset affects any start time; the
///    engine's canonical form);
///  * OnEdge — what is recorded per in-edge: nothing (`NoRecord`), or the
///    engine's transfer records and base-state replay.
///
/// Every caller passes one start/finish pair to read source times from.
/// `sweep`, below, is the one loop that prices a run of walk positions:
/// full evaluations, frontier suffixes and the incremental engine's
/// suffix route all run it.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/flat_graph.hpp"
#include "model/cost_model.hpp"

namespace spmap {

/// One node of a walk plan: everything the sweep needs, in walk order.
struct PlanNode {
  std::uint32_t node;         ///< node id (index into start/finish)
  std::uint32_t exec_offset;  ///< node * device_count, into exec table
  std::uint32_t in_begin;     ///< in-edge span in the FlatGraph arrays
  std::uint32_t in_end;
};
using WalkPlan = std::vector<PlanNode>;

/// The immutable tables every sweep reads, flattened once per `Evaluator`
/// so that no sweep touches `Dag`, `CostModel` or `Platform`. The cost
/// model must outlive them (`exec` points into it).
struct SweepTables {
  explicit SweepTables(const CostModel& cost);

  std::size_t slot_count() const { return slot_offset.back(); }

  FlatGraph flat;                        ///< CSR view of the graph
  std::size_t devices = 0;
  const double* exec = nullptr;          ///< cost model's [node][device]
  std::vector<std::size_t> slot_offset;  ///< device -> first slot index
  std::vector<std::uint8_t> is_fpga;     ///< per device
  std::vector<double> fill;              ///< per device, stream fill frac
  std::vector<double> latency;           ///< [from][to], 0 on diagonal
  std::vector<double> bandwidth;         ///< [from][to], 1 on diagonal
  std::vector<double> in_mb1000;         ///< per in-edge slot: data_mb/1000
};

/// Slot-ready times in slot-index order; the earliest slot is the argmin.
struct ArgminSlots {
  double* ready;
  const std::size_t* offset;

  /// Starts a task of length `exec` on device `d` no earlier than `at`.
  double start(std::uint32_t d, double at, double exec) const {
    // Conditional-move form: the comparisons are data-dependent and would
    // mispredict as branches.
    std::size_t best_slot = offset[d];
    double best = ready[best_slot];
    for (std::size_t s = best_slot + 1; s < offset[d + 1]; ++s) {
      const double x = ready[s];
      best_slot = x < best ? s : best_slot;
      best = x < best ? x : best;
    }
    const double start_v = std::max(at, best);
    ready[best_slot] = start_v + exec;
    return start_v;
  }
};

/// Each device's slot-ready times kept sorted ascending: the earliest slot
/// is the first, and taking it is a pop-min plus a sorted insert.
struct SortedSlots {
  double* ready;
  const std::size_t* offset;

  double start(std::uint32_t d, double at, double exec) const {
    const double start_v = std::max(at, ready[offset[d]]);
    replace_min(d, start_v + exec);
    return start_v;
  }

  /// Drops device `d`'s minimum and inserts `value` (>= that minimum).
  /// Spans are a handful of slots, so a sequential shift beats a memmove
  /// call.
  void replace_min(std::uint32_t d, double value) const {
    std::size_t i = offset[d];
    const std::size_t e = offset[d + 1];
    for (; i + 1 < e && ready[i + 1] < value; ++i) ready[i] = ready[i + 1];
    ready[i] = value;
  }
};

/// OnEdge policy that records nothing. The arguments are the in-edge slot,
/// its source node and source device, whether it is a transfer, and the
/// transfer's arrival time (0 for a same-device edge).
struct NoRecord {
  void operator()(std::uint32_t, std::uint32_t, std::uint32_t, bool,
                  double) const {}
};

struct NodeTime {
  double start;
  double finish;
  bool streamed;  ///< fed by an FPGA stream: co-resides in fabric, no slot
};

/// Prices node `pn` under `map`, reading source times from `start` and
/// `finish` and advancing the link state `link` (per device) and the slot
/// state held by `slots`.
template <class Slots, class OnEdge = NoRecord>
[[gnu::always_inline]] inline NodeTime time_node(
    const SweepTables& t, const DeviceId* map, PlanNode pn, double* link,
    const double* start, const double* finish, const Slots& slots,
    OnEdge&& on_edge = {}) {
  // Every table pointer is read once per node, unconditionally, so the
  // compiler can keep it in a register across the caller's sweep instead
  // of reloading it on each in-edge.
  const std::size_t m = t.devices;
  const std::uint32_t* in_src = t.flat.in_src_data();
  const double* exec = t.exec;
  const double* fill = t.fill.data();
  const double* lat = t.latency.data();
  const double* bw = t.bandwidth.data();
  const double* in_mb1000 = t.in_mb1000.data();
  const std::uint32_t d = map[pn.node].v;
  const bool dev_fpga = t.is_fpga[d] != 0;
  double ready = 0.0;
  bool streamed = false;
  for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
    const std::uint32_t s = in_src[k];
    const std::uint32_t ds = map[s].v;
    if (ds == d) {
      if (dev_fpga) {
        ready = std::max(ready, start[s] + fill[d] * exec[s * m + d]);
        streamed = true;
      } else {
        ready = std::max(ready, finish[s]);
      }
      on_edge(k, s, ds, false, 0.0);
    } else {
      const std::size_t li = ds * m + d;
      const double transfer = lat[li] + in_mb1000[k] / bw[li];
      const double arrival =
          std::max({finish[s], link[ds], link[d]}) + transfer;
      link[ds] = arrival;
      link[d] = arrival;
      ready = std::max(ready, arrival);
      on_edge(k, s, ds, true, arrival);
    }
  }
  const double exec_v = exec[pn.exec_offset + d];
  const double start_v = streamed ? ready : slots.start(d, ready, exec_v);
  return {start_v, start_v + exec_v, streamed};
}

/// Early-stop policy of `sweep`: active, the sweep ends as soon as a
/// task's start + tail, a lower bound on the makespan, exceeds `limit`.
template <bool kActive>
struct TailStop {
  const double* tail = nullptr;
  double limit = std::numeric_limits<double>::infinity();
};

/// Prices walk positions [first, last) under `map`, writing each node's
/// times into `start`/`finish` and advancing the slot and link state;
/// returns the running maximum finish from `run_max`, or the bound at which
/// `stop` ended the sweep. Full evaluations, frontier suffixes and the
/// incremental engine's suffix sweeps all run this loop; the arrays do not
/// alias, so its body stays in registers. Slots go through `ArgminSlots`,
/// which is exact on sorted spans too (only the multiset of ready times
/// reaches a start time), though it leaves them unsorted.
template <bool kStops = false>
[[gnu::always_inline]] inline double sweep(
    const SweepTables& t, const DeviceId* __restrict map,
    const PlanNode* first, const PlanNode* last, double* __restrict start,
    double* __restrict finish, double* __restrict slot_ready,
    double* __restrict link_ready, double run_max,
    TailStop<kStops> stop = {}) {
  const ArgminSlots slots{slot_ready, t.slot_offset.data()};
  for (; first != last; ++first) {
    const PlanNode pn = *first;
    const NodeTime nt =
        time_node(t, map, pn, link_ready, start, finish, slots);
    start[pn.node] = nt.start;
    finish[pn.node] = nt.finish;
    run_max = std::max(run_max, nt.finish);
    if constexpr (kStops) {
      const double bound = nt.start + stop.tail[pn.node];
      if (bound > stop.limit) return bound;
    }
  }
  return run_max;
}

}  // namespace spmap
