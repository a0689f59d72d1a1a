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
/// implementation of the timing arithmetic, shared with every sweep of the
/// incremental engine. The arithmetic is performed in exactly the order of
/// the naive definition (see sched/reference_evaluator.hpp), so flat
/// results are bit-identical to the reference implementation.
///
/// ## Thread-safety contract
///
/// The evaluator itself is immutable after construction. All simulation
/// scratch lives in an explicit `EvalContext`:
///  * `evaluate(mapping, ctx)` / `evaluate_order(mapping, order, ctx)` are
///    const and safe to call concurrently as long as each thread uses its
///    own context;
///  * the context-free convenience overloads (`evaluate(mapping)`, ...)
///    share one internal scratch context plus the `evaluation_count()` /
///    `last_*_times()` counters, and are therefore NOT thread-safe — they
///    exist for the single-threaded call sites (mappers' serial paths,
///    schedule extraction, tests);
///  * `evaluate_batch` runs the context overload with one persistent
///    private context per worker and a deterministic static partition, so
///    its results are bit-identical for every thread count, including the
///    serial path. It is itself a single-caller API (internally parallel,
///    but it shares the counters above): never call it concurrently with
///    itself or the convenience overloads.

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

/// Per-thread (or per-call) simulation scratch. Reused across evaluations;
/// buffers grow on first use with a given evaluator. A context may only be
/// used with one evaluator at a time and by one thread at a time.
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
/// offset, not pointer, so contexts copy and move safely (the pool's
/// per-worker context vector relies on this).
class EvalContext {
 public:
  /// Single-order evaluations performed through this context.
  std::size_t evaluations() const { return evals_; }

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

  std::vector<double> arena_;  // start | finish | slot_ready | link_ready
  std::size_t nodes_ = 0, slots_ = 0, devices_ = 0;  // current shape
  std::size_t finish_off_ = 0, slot_off_ = 0, link_off_ = 0;
  std::size_t reset_len_ = 0;  // doubles to zero from slot_ready() per eval
  std::size_t evals_ = 0;
};

class Evaluator {
 public:
  /// The cost model must outlive the evaluator. Schedule orders, the flat
  /// graph view and the per-order walk plans are built once here.
  explicit Evaluator(const CostModel& cost, EvalParams params = {});

  const CostModel& cost() const { return *cost_; }
  const Dag& dag() const { return cost_->dag(); }
  const FlatGraph& flat_graph() const { return tables_.flat; }

  // ---- thread-safe evaluation (explicit context) ----

  /// Makespan of `mapping`: minimum over the prepared schedule orders.
  /// +infinity if infeasible. Safe to call concurrently with distinct
  /// contexts.
  double evaluate(const Mapping& mapping, EvalContext& ctx) const;

  /// Makespan of `mapping` under one given topological order. Orders taken
  /// from `orders()` use the precomputed walk plan; foreign orders pay a
  /// one-off plan construction.
  double evaluate_order(const Mapping& mapping,
                        const std::vector<NodeId>& order,
                        EvalContext& ctx) const;

  // ---- single-threaded convenience (shared internal scratch) ----

  /// Makespans of a batch of mappings, in order. With a pool the batch is
  /// split into fixed-size chunks dealt round-robin to the workers (each
  /// item still evaluated independently with a persistent per-worker
  /// context), so one expensive region of the batch cannot serialize the
  /// call on a single worker; the chunk→worker map depends only on the
  /// batch size, so results are bit-identical to the serial path for every
  /// thread count. `pool == nullptr` (or a 1-thread pool) runs serially on
  /// the caller. The batch is internally parallel but a *single-caller*
  /// API: it reuses internal scratch and aggregates into
  /// evaluation_count(), so do not call it (or the other convenience
  /// overloads) concurrently from several threads.
  std::vector<double> evaluate_batch(std::span<const Mapping> mappings,
                                     ThreadPool* pool = nullptr) const;

  /// As the context overloads, but using the evaluator's internal scratch
  /// context. NOT thread-safe; see the contract above.
  double evaluate(const Mapping& mapping) const;
  double evaluate_order(const Mapping& mapping,
                        const std::vector<NodeId>& order) const;

  /// Makespan with every task on the platform's default device — the
  /// baseline of the paper's "relative improvement" metric.
  double default_mapping_makespan() const;

  /// The default (all-CPU) mapping itself.
  Mapping default_mapping() const;

  /// Number of single-order evaluations performed so far through the
  /// convenience overloads and evaluate_batch (profiling aid). Evaluations
  /// through caller-owned contexts are counted in EvalContext::evaluations.
  std::size_t evaluation_count() const { return eval_count_; }

  /// Per-task start/finish times of the most recent *convenience-overload*
  /// evaluate_order()/evaluate() call (schedule extraction; see
  /// sched/schedule.hpp). Context and batch evaluations do not touch
  /// these. Empty before the first such call.
  std::span<const double> last_start_times() const {
    return {scratch_.start(), scratch_.nodes_};
  }
  std::span<const double> last_finish_times() const {
    return {scratch_.finish(), scratch_.nodes_};
  }

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

  mutable EvalContext scratch_;  // backs the convenience overloads
  mutable std::vector<EvalContext> batch_contexts_;  // per-worker, reused
  mutable std::size_t eval_count_ = 0;
};

}  // namespace spmap
