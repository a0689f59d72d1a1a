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
///    (slot-index order, earliest found by argmin; `Evaluator`'s sweeps) or
///    `SortedSlots` (each device's multiset kept as a sorted ring — slots
///    are interchangeable, so only the multiset affects any start time; the
///    incremental engine's canonical form);
///  * OnEdge — what is recorded per in-edge: nothing (`NoRecord`), or the
///    engine's transfer records and base-state replay.
///
/// Every caller passes one start/finish pair to read source times from.
/// `sweep`, below, is the one loop that prices a run of walk positions:
/// full evaluations, frontier suffixes and the incremental engine's
/// suffix route all run it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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

  /// `sweep`'s factory; this form keeps no heads.
  static ArgminSlots over(double* ready, std::uint32_t*,
                          const std::size_t* offset) {
    return {ready, offset};
  }

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

/// Each device's slot-ready times kept as a sorted ring: ascending from the
/// device's head index to the end of its span, then on from the span's
/// start. The earliest slot is the head; taking it advances the head, and
/// the new ready time enters from the tail. Heads start at 0.
struct SortedSlots {
  /// Spans of at most this many slots are merged instead: the head stays
  /// 0 and a branch-free pass keeps the span sorted. On a queue-bound
  /// 4-slot CPU the insert point is random, and the ring's exit test
  /// mispredicts.
  static constexpr std::uint32_t kMergeSpan = 4;

  double* ready;
  std::uint32_t* head;  ///< per device: index of its minimum in its span
  const std::size_t* offset;

  static SortedSlots over(double* ready, std::uint32_t* head,
                          const std::size_t* offset) {
    return {ready, head, offset};
  }

  double start(std::uint32_t d, double at, double exec) const {
    const double start_v = std::max(at, ready[offset[d] + head[d]]);
    replace_min(d, start_v + exec);
    return start_v;
  }

  /// Drops device `d`'s minimum and inserts `value` (>= that minimum). In a
  /// ring the minimum's cell becomes the tail, and `value` moves toward the
  /// head past every larger time, so a new maximum — the common case in a
  /// sweep — costs O(1).
  void replace_min(std::uint32_t d, double value) const {
    double* span = ready + offset[d];
    const auto k = static_cast<std::uint32_t>(offset[d + 1] - offset[d]);
    if (k <= kMergeSpan) {
      // Each cell takes its successor up to `value`, then `value`, then
      // keeps its own time.
      for (std::uint32_t j = 0; j + 1 < k; ++j) {
        span[j] = std::max(span[j], std::min(span[j + 1], value));
      }
      span[k - 1] = std::max(span[k - 1], value);
      return;
    }
    std::uint32_t i = head[d];
    const std::uint32_t h = i + 1 == k ? 0 : i + 1;
    head[d] = h;
    while (i != h) {
      const std::uint32_t prev = (i == 0 ? k : i) - 1;
      if (span[prev] <= value) break;
      span[i] = span[prev];
      i = prev;
    }
    span[i] = value;
  }

  /// True when device `d` holds bitwise the same times in the same logical
  /// order here and in `other` (same offsets). Equal heads take one memcmp;
  /// otherwise the two wrap points cut the span into at most three runs
  /// that are contiguous in both. For the nonnegative times held here,
  /// bitwise equality is value equality (a -0.0 would only read as
  /// "differs": an extra recompute, never a wrong skip).
  bool same_span(const SortedSlots& other, std::uint32_t d) const {
    const double* a = ready + offset[d];
    const double* b = other.ready + offset[d];
    const std::size_t k = offset[d + 1] - offset[d];
    std::size_t ha = head[d];
    std::size_t hb = other.head[d];
    if (ha == hb) return std::memcmp(a, b, k * sizeof(double)) == 0;
    for (std::size_t left = k; left != 0;) {
      const std::size_t run = std::min({left, k - ha, k - hb});
      if (std::memcmp(a + ha, b + hb, run * sizeof(double)) != 0) return false;
      left -= run;
      ha = ha + run == k ? 0 : ha + run;
      hb = hb + run == k ? 0 : hb + run;
    }
    return true;
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

/// Lower bound on makespan - start(v) for task v on its device under
/// `map`, from its consumers' tails (so valid while no descendant of v
/// moves): the longer of v's run and, over its out-edges, the least the
/// consumer can start after v (a stream's fill share of v's run on a
/// shared FPGA, v's run on any other shared device, v's run plus the bare
/// transfer across devices; link waits only add to it) plus its tail:
/// HEFT's upward rank on the fixed mapping, behind every cutoff.
inline double tail_of(const SweepTables& t, const DeviceId* map,
                      std::uint32_t v, const double* tail) {
  const std::size_t m = t.devices;
  const std::uint32_t d = map[v].v;
  const double exec = t.exec[v * m + d];
  const double shared = t.is_fpga[d] != 0 ? t.fill[d] * exec : exec;
  double bound = exec;
  for (std::uint32_t k = t.flat.out_begin(NodeId(v));
       k < t.flat.out_end(NodeId(v)); ++k) {
    const std::uint32_t c = t.flat.out_dst(k);
    const std::size_t li = d * m + map[c].v;
    const double lead =
        map[c].v == d
            ? shared
            : exec + (t.latency[li] +
                      t.flat.out_data_mb(k) / 1000.0 / t.bandwidth[li]);
    bound = std::max(bound, lead + tail[c]);
  }
  return bound;
}

/// Every task's `tail_of` under `map`, in one reverse pass over a walk
/// plan (a topological walk puts each consumer after its producers).
inline void fill_tails(const SweepTables& t, const DeviceId* map,
                       const WalkPlan& plan, double* tail) {
  for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
    tail[it->node] = tail_of(t, map, it->node, tail);
  }
}

/// The stop limit for a cutoff: 1e-9 relative slack covers the different
/// rounding of start + tail and of the sweep's own sums.
inline double tail_limit(double cutoff) {
  return cutoff + std::abs(cutoff) * 1e-9;
}

/// Early-stop policy of `sweep`: active, the sweep ends as soon as a
/// task's start + tail, a lower bound on the makespan, exceeds `limit`,
/// and `stopped_at`, when set, receives that task's position.
template <bool kActive>
struct TailStop {
  const double* tail = nullptr;
  double limit = std::numeric_limits<double>::infinity();
  const PlanNode** stopped_at = nullptr;
};

/// Prices walk positions [first, last) under `map`, writing each node's
/// times into `start`/`finish` and advancing the slot and link state;
/// returns the running maximum finish from `run_max`, or the bound at which
/// `stop` ended the sweep. Full evaluations, frontier suffixes and the
/// incremental engine's suffix sweeps all run this loop; the arrays do not
/// alias, so its body stays in registers. `Slots` is the slot form of
/// `slot_ready`, built by its `over` factory: `ArgminSlots` for
/// `Evaluator`'s sweeps (`slot_head` unused, pass nullptr), `SortedSlots`
/// for the engine's rings with their heads in `slot_head`.
template <class Slots = ArgminSlots, bool kStops = false>
[[gnu::always_inline]] inline double sweep(
    const SweepTables& t, const DeviceId* __restrict map,
    const PlanNode* first, const PlanNode* last, double* __restrict start,
    double* __restrict finish, double* __restrict slot_ready,
    std::uint32_t* slot_head, double* __restrict link_ready, double run_max,
    TailStop<kStops> stop = {}) {
  const Slots slots = Slots::over(slot_ready, slot_head, t.slot_offset.data());
  for (; first != last; ++first) {
    const PlanNode pn = *first;
    const NodeTime nt =
        time_node(t, map, pn, link_ready, start, finish, slots);
    start[pn.node] = nt.start;
    finish[pn.node] = nt.finish;
    run_max = std::max(run_max, nt.finish);
    if constexpr (kStops) {
      const double bound = nt.start + stop.tail[pn.node];
      if (bound > stop.limit) {
        if (stop.stopped_at != nullptr) *stop.stopped_at = first;
        return bound;
      }
    }
  }
  return run_max;
}

}  // namespace spmap
