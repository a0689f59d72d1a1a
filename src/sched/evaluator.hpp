#pragma once
/// \file evaluator.hpp
/// Linear-time model-based makespan evaluation (paper Sections II-B, III-A).
///
/// Given a mapping and a topological schedule order, the evaluator simulates
/// the system once, in O(V + E):
///  * each device executes its tasks in schedule order, at most one task
///    per execution slot at a time (a multicore CPU has several slots, so
///    independent tasks overlap even in the all-CPU baseline);
///  * an edge between tasks on different devices pays latency + volume /
///    bandwidth and occupies the *link* of both endpoint devices for its
///    duration — concurrent transfers through one PCIe attachment serialize
///    (the data-intensive modeling assumption of Wilhelm et al. [5]);
///    same-device edges are free;
///  * an edge between two tasks co-mapped on an FPGA *streams*: the consumer
///    may start `fill_fraction * exec(producer)` after the producer START
///    (pipeline overlap) instead of waiting for the producer to finish, and
///    it does not contend for the device (dataflow stages co-reside in
///    fabric);
///  * a mapping that overflows any FPGA's area budget is infeasible and
///    evaluates to +infinity.
///
/// Following Section IV-A, the makespan of a mapping is the minimum over a
/// breadth-first schedule and a configurable number of random topological
/// schedules (the paper uses 100 for reporting; the mapping inner loop uses
/// the breadth-first schedule only by default).
///
/// ## The flat core
///
/// This is the hot path of every search mapper (thousands to millions of
/// calls per experiment), so the simulation never touches `Dag` or
/// `CostModel` inside the loop. At construction the evaluator builds its
/// `SweepTables` (a `FlatGraph` CSR view of the graph plus flattened
/// device/link tables) and, per prepared schedule order, a *walk plan*: one
/// compact record per node (node id, device-strided offset into the
/// execution-time table, in-edge span) laid out in walk order. Evaluating a
/// mapping is then a branch-light linear sweep over contiguous arrays,
/// pricing each node with `time_node` (sched/sweep_kernel.hpp) — the one
/// implementation of the timing arithmetic. One loop over it, `sweep` in
/// the same header, serves full evaluations, the frontier suffixes below
/// and the incremental engine's suffix sweeps. The arithmetic is performed
/// in exactly the order of the naive definition (see
/// sched/reference_evaluator.hpp), so flat results are bit-identical to
/// the reference implementation.
///
/// Frontier pricing: walk positions before a candidate's first moved task
/// p0 see the base mapping's devices, so `evaluate_moves` serves many
/// candidates with one cursor sweep of the base: taken in p0 order, each
/// copies the cursor's slot and link state and sweeps only p0..V-1 with
/// the same loop, bit-identical to `evaluate` at about half the cost, and
/// its area verdict is O(|move|) instead of an O(V) scan. Given a cutoff,
/// a candidate's sweep may also stop early: one reverse pass over the base
/// gives each task a *tail*, a lower bound on makespan - start(task) along
/// its out-edges on the base's devices (HEFT's upward rank on the fixed
/// mapping), valid for every task that neither moved nor has a moved
/// descendant — every position after the candidate's last moved task pl
/// (checked there with the moved task's tail on its new device). Once
/// start + tail exceeds the cutoff (plus 1e-9 relative slack for the
/// different rounding of the two sums), the candidate cannot end below it
/// and the sweep stops. A candidate whose makespan is below the cutoff is
/// swept to the end and stays exact.
///
/// ## Thread-safety contract
///
/// The evaluator is immutable after construction and holds no scratch:
/// every sweep writes into a caller-owned `EvalContext`, which also counts
/// the evaluations made through it. So:
///  * `evaluate(mapping, ctx)`, `evaluate_order(mapping, order, ctx)`,
///    `evaluate_batch(mappings, ctx, pool)` and
///    `evaluate_moves(base, moves, ctx, pool)` are const and safe to call
///    concurrently on one evaluator as long as each thread (each run) uses
///    its own context — a mapper owns one context per run and reports
///    `ctx.evaluations()` as its evaluation count;
///  * `evaluate_batch` and `evaluate_moves` price on the calling thread
///    through `ctx` and on every other pool worker through a child context
///    kept inside `ctx`, with a deterministic static partition, so their
///    results are bit-identical for every thread count, including the
///    serial path;
///  * the one-shot `evaluate(mapping)` prices through a fresh local context
///    (an allocation per call): for single calls, not for search loops.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "model/cost_model.hpp"
#include "sched/sweep_kernel.hpp"
#include "util/thread_pool.hpp"

namespace spmap {

struct EvalParams {
  /// Random schedules evaluated in addition to the breadth-first one.
  std::size_t random_orders = 0;
  /// Seed for generating the random schedules (fixed => reproducible).
  std::uint64_t seed = 0x5ced01e5;
};

/// Value returned for infeasible mappings.
inline constexpr double kInfeasible = std::numeric_limits<double>::infinity();

/// A candidate of `Evaluator::evaluate_moves`: the base mapping with every
/// node of `nodes` re-mapped to `device` (members already there allowed).
struct Move {
  std::span<const NodeId> nodes;
  DeviceId device;
};

/// Per-run simulation scratch and evaluation counter. Reused across
/// evaluations; buffers grow on first use with a given evaluator. A
/// context may only be used with one evaluator at a time and by one thread
/// at a time (`evaluate_batch` and `evaluate_moves` hand their workers
/// child contexts of its own).
///
/// All four per-sweep arrays (start, finish, slot_ready, link_ready) live
/// as plain-double segments of one arena allocation, in that order. The
/// structure-of-arrays layout keeps each inner loop of `evaluate_plan`
/// streaming over one contiguous double array (the device-frontier minimum
/// scans slot_ready linearly, the transfer reduction reads finish/link_ready
/// linearly), which is what lets the compiler vectorize them. Segment
/// offsets are rounded up to a cache line (8 doubles) so segments never
/// share a line with each other, and slot_ready/link_ready are adjacent so
/// the per-evaluation reset is a single fill. Segments are addressed by
/// offset, not pointer, so contexts copy and move safely (the vector of
/// batch-worker children relies on this).
class EvalContext {
 public:
  /// Single-order evaluations performed through this context, including
  /// those its batch-worker children made for it.
  std::size_t evaluations() const { return evals_; }

  /// Per-task start/finish times of the most recent single-order sweep
  /// through this context itself (schedule extraction; see
  /// sched/schedule.hpp). Empty before the first sweep; unspecified after
  /// an `evaluate_moves` call.
  std::span<const double> start_times() const { return {start(), nodes_}; }
  std::span<const double> finish_times() const { return {finish(), nodes_}; }

 private:
  friend class Evaluator;

  /// (Re)shapes the arena for a graph with `nodes` nodes on a platform
  /// with `slots` total execution slots across `devices` devices. No-op
  /// when the shape is unchanged.
  void layout(std::size_t nodes, std::size_t slots, std::size_t devices);

  double* start() { return arena_.data(); }
  double* finish() { return arena_.data() + finish_off_; }
  double* slot_ready() { return arena_.data() + slot_off_; }
  double* link_ready() { return arena_.data() + link_off_; }
  const double* start() const { return arena_.data(); }
  const double* finish() const { return arena_.data() + finish_off_; }

  // start | finish | slot_ready | link_ready | a copy of the last two
  std::vector<double> arena_;
  std::size_t nodes_ = 0, slots_ = 0, devices_ = 0;  // current shape
  std::size_t finish_off_ = 0, slot_off_ = 0, link_off_ = 0, moved_off_ = 0;
  std::size_t reset_len_ = 0;  // doubles to zero from slot_ready() per eval
  std::size_t evals_ = 0;

  // evaluate_moves scratch: the base with one move applied, then the
  // calling context's per-call state (per move, per device, per node).
  Mapping moved_;
  std::vector<double> makespans_, base_area_, area_delta_, tail_;
  std::vector<std::uint32_t> feasible_, last_;  // last_: pl per move
  std::vector<std::uint64_t> pos_, queue_;      // queue_: p0 << 32 | move

  /// Scratch of `evaluate_batch`/`evaluate_moves` pool workers 1..T-1
  /// (the caller, worker 0, prices through this context). Kept here so a
  /// generation loop's thousands of batches reuse them.
  std::vector<EvalContext> workers_;
};

class Evaluator {
 public:
  /// The cost model must outlive the evaluator. Schedule orders, the flat
  /// graph view and the per-order walk plans are built once here.
  explicit Evaluator(const CostModel& cost, EvalParams params = {});

  const CostModel& cost() const { return *cost_; }
  const Dag& dag() const { return cost_->dag(); }
  const FlatGraph& flat_graph() const { return tables_.flat; }

  /// Makespan of `mapping`: minimum over the prepared schedule orders.
  /// +infinity if infeasible.
  double evaluate(const Mapping& mapping, EvalContext& ctx) const;

  /// One-shot `evaluate` through a fresh local context.
  double evaluate(const Mapping& mapping) const;

  /// Makespan of `mapping` under one given topological order. Orders taken
  /// from `orders()` use the precomputed walk plan; foreign orders pay a
  /// one-off plan construction.
  double evaluate_order(const Mapping& mapping,
                        const std::vector<NodeId>& order,
                        EvalContext& ctx) const;

  /// Makespans of a batch of mappings, in order, counted in `ctx`. With a
  /// pool the batch is split into fixed-size chunks dealt round-robin to
  /// the workers (each item still evaluated independently, through `ctx`
  /// on the calling thread and a child context of `ctx` on every other
  /// worker), so one expensive region of the batch cannot serialize the
  /// call on a single worker; the chunk→worker map depends only on the
  /// batch size, so results are bit-identical to the serial path for every
  /// thread count. `pool == nullptr` (or a 1-thread pool) runs serially on
  /// the caller.
  std::vector<double> evaluate_batch(std::span<const Mapping> mappings,
                                     EvalContext& ctx,
                                     ThreadPool* pool = nullptr) const;

  /// Makespans of `base` with each move applied, in move order, counted
  /// in `ctx` as `evaluate` of the moved mapping would count them: once
  /// per schedule order, not at all when infeasible. A move whose makespan
  /// is below `cutoff` gets exactly `evaluate`'s value, bit for bit; any
  /// other move may stop early and report some value >= `cutoff` (with
  /// the default +inf every value is exact). With a pool each order's
  /// p0-sorted moves are dealt round-robin to the workers, each with its
  /// own cursor; every value is the same for every thread count. The span
  /// points into `ctx`, valid until its next `evaluate_moves`.
  /// Allocation-free once `ctx` has grown.
  std::span<const double> evaluate_moves(const Mapping& base,
                                         std::span<const Move> moves,
                                         EvalContext& ctx,
                                         ThreadPool* pool = nullptr,
                                         double cutoff = kInfeasible) const;

  /// Makespan with every task on the platform's default device — the
  /// baseline of the paper's "relative improvement" metric.
  double default_mapping_makespan() const;

  /// The default (all-CPU) mapping itself.
  Mapping default_mapping() const;

  const std::vector<std::vector<NodeId>>& orders() const { return orders_; }

  /// The immutable tables and the walk plan of `orders()[order_index]`
  /// that every sweep reads; the incremental engine shares them
  /// (sched/incremental_evaluator.hpp).
  const SweepTables& tables() const { return tables_; }
  const WalkPlan& plan(std::size_t order_index) const {
    return plans_[order_index];
  }

 private:
  WalkPlan build_plan(const std::vector<NodeId>& order) const;
  /// The flat sweep. Infeasibility is NOT checked here.
  double evaluate_plan(const Mapping& mapping, const WalkPlan& plan,
                       EvalContext& ctx) const;

  const CostModel* cost_;
  SweepTables tables_;
  std::vector<std::vector<NodeId>> orders_;  // [0] = breadth-first
  std::vector<WalkPlan> plans_;              // plans_[i] walks orders_[i]
};

}  // namespace spmap
