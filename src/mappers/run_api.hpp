#pragma once
/// \file run_api.hpp
/// The anytime run API of every mapping algorithm: MapRequest / MapReport.
///
/// PR 4 added mapper families that behave like *jobs* — iterative searches
/// that can stop at any point and still hold a valid incumbent. This header
/// is the contract that lets every driver treat them that way:
///
///  * `MapRequest` bounds and observes one run: a wall-clock deadline, an
///    iteration/evaluation budget, a cooperative `CancelToken`, an optional
///    per-run seed, and an incumbent callback.
///  * `MapReport` explains one run: the mapping and its predicted makespan
///    (as every mapper always returned), plus wall time, the incumbent
///    trajectory, and a `TerminationReason` saying *why* the run stopped.
///  * `RunControl` is the implementation helper mappers use for honest
///    budget/deadline/cancellation checks in their inner loops.
///
/// ## Semantics
///
/// A mapper must return a *valid* mapping for every request, no matter how
/// tight: budgets and deadlines truncate the search, they never forfeit the
/// incumbent. One-shot algorithms (HEFT, PEFT, the decomposition seeds'
/// construction) that run to completion report `kConverged`; anytime
/// algorithms report whichever bound stopped them first.
///
/// ## Determinism
///
/// With a pinned seed and *budget-only* limits (no deadline, no
/// cancellation), a report is bit-identical for every `threads=` value —
/// except the wall-clock fields (`wall_seconds` and
/// `IncumbentRecord::seconds`), which measure real time. Deadlines and
/// cancellation are inherently racy against the scheduler and exempt from
/// the determinism contract.
///
/// ## Thread-safety
///
/// `CancelToken` is freely copyable and thread-safe: any thread may call
/// `request_cancel()` while a run polls `cancelled()`. A `MapRequest` may
/// be shared across concurrent runs (it is read-only to the mapper). One
/// `RunControl` belongs to one run; its latching API (`should_stop`,
/// `record_incumbent`) is single-threaded, while the const probes
/// (`cancelled`, `deadline_expired`, `interrupted`, `elapsed_seconds`) are
/// safe from parallel workers inside the run.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "model/mapping.hpp"
#include "util/timer.hpp"

namespace spmap {

class ThreadPool;

/// Why a map() run returned.
enum class TerminationReason {
  kConverged,        ///< The algorithm completed its own planned work.
  kBudgetExhausted,  ///< The request's iteration/evaluation budget ran out.
  kDeadline,         ///< The request's wall-clock deadline passed.
  kCancelled,        ///< The request's CancelToken was triggered.
};

/// Stable lower-case label ("converged", "budget_exhausted", ...).
const char* to_string(TerminationReason reason);

/// How the result cache participated in producing a report (stamped by
/// the MappingService; a direct Mapper::map call is always kNone).
enum class CacheOutcome {
  kNone,  ///< No cache consulted (cache off, or the job was uncacheable:
          ///< unpinned construction rng, or a wall-clock deadline).
  kMiss,  ///< Cache consulted, no entry: the job executed normally.
  kHit,   ///< Served from the memo without occupying a worker. Every
          ///< other field is bit-identical to recomputation (wall-clock
          ///< fields report the *original* run).
};

/// Stable lower-case label ("none", "miss", "hit").
const char* to_string(CacheOutcome outcome);

/// Cooperative cancellation flag, shared between a run and its observers.
/// Copies alias the same flag; cancellation is sticky (no reset).
/// `child()` derives a token that also observes this one — cancelling the
/// parent cancels every child, cancelling a child stays local. The
/// MappingService hands each job a child of the submitted request's token,
/// so `JobHandle::cancel` is per-job while a caller-held parent can still
/// cancel a whole batch.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  /// Requests cancellation of this token (and its children); safe from
  /// any thread, idempotent.
  void request_cancel() const {
    state_->flag.store(true, std::memory_order_relaxed);
  }
  bool cancelled() const { return state_->cancelled(); }

  /// A token cancelled when either it or this (its parent) is cancelled.
  CancelToken child() const {
    CancelToken c;
    c.state_->parent = state_;
    return c;
  }

 private:
  struct State {
    std::atomic<bool> flag{false};
    std::shared_ptr<const State> parent;

    bool cancelled() const {
      return flag.load(std::memory_order_relaxed) ||
             (parent != nullptr && parent->cancelled());
    }
  };

  std::shared_ptr<State> state_;
};

/// One point of the incumbent trajectory: the best makespan known after
/// `iteration` algorithm iterations, `seconds` after the run started.
struct IncumbentRecord {
  double makespan = 0.0;
  std::size_t iteration = 0;
  /// Wall-clock offset from run start. Excluded from the determinism
  /// contract (see the header comment).
  double seconds = 0.0;
};

/// Everything a caller may impose on or observe about one map() run.
/// The default-constructed request means "run to completion, unobserved" —
/// exactly the pre-request behaviour of every mapper.
struct MapRequest {
  /// Wall-clock deadline in milliseconds; <= 0 means none. The run returns
  /// its best incumbent with `TerminationReason::kDeadline` once it fires.
  double deadline_ms = 0.0;
  /// Cap on model evaluations (probes count for the incremental engine);
  /// 0 means unlimited. Checked between atomic units of work (a probe, a
  /// cohort, one evaluate() over all of an evaluator's prepared orders),
  /// so a run may overshoot by up to one unit before stopping.
  std::size_t max_evaluations = 0;
  /// Cap on algorithm iterations (GA generations, search probes, B&B
  /// nodes, tasks placed); 0 means unlimited.
  std::size_t max_iterations = 0;
  /// Per-run seed overriding the mapper's constructed seed. Unset keeps
  /// the constructed one, so repeated runs of one mapper object repeat.
  std::optional<std::uint64_t> seed;
  /// Cooperative cancellation; the run polls it in its inner loop.
  CancelToken cancel;
  /// Fired on every new incumbent, from the run's own thread. Parallel
  /// mappers may replay the winning trajectory at the end of the run
  /// instead of interleaving callbacks (see each mapper's contract).
  std::function<void(const IncumbentRecord&)> on_incumbent;
};

/// The result of one map() run. Supersedes the old `MapperResult` (which
/// is now an alias): same mapping/makespan/counter fields, plus the
/// explanation of how and why the run ended.
struct MapReport {
  Mapping mapping;
  /// Makespan of `mapping` as seen by the evaluator passed to map().
  double predicted_makespan = 0.0;
  /// Algorithm-specific progress counter (greedy iterations, GA
  /// generations, B&B nodes, search probes, ...).
  std::size_t iterations = 0;
  /// Number of single-schedule model evaluations consumed (incremental
  /// probes/applies count once each).
  std::size_t evaluations = 0;
  /// Wall-clock duration of the run (excluded from determinism).
  double wall_seconds = 0.0;
  TerminationReason termination = TerminationReason::kConverged;
  /// How the result cache participated (service-level field: mappers
  /// never set it; the MappingService stamps it on the way out).
  CacheOutcome cache = CacheOutcome::kNone;
  /// Best-makespan improvements in run order (first entry: the first
  /// incumbent; last entry: the returned mapping's makespan).
  std::vector<IncumbentRecord> trajectory;
};

/// Legacy name, kept so pre-request call sites read unchanged.
using MapperResult = MapReport;

/// Per-run bookkeeping used by mapper implementations: owns the run timer,
/// latches the first stop reason, and collects the incumbent trajectory.
/// See the thread-safety contract in the header comment.
class RunControl {
 public:
  /// The request must outlive the control (it is borrowed, not copied).
  explicit RunControl(const MapRequest& request)
      : request_(&request),
        deadline_s_(request.deadline_ms > 0.0 ? request.deadline_ms / 1e3
                                              : 0.0) {}

  // ---- const probes (safe from parallel workers) ----

  bool cancelled() const { return request_->cancel.cancelled(); }
  bool deadline_expired() const {
    return deadline_s_ > 0.0 && timer_.seconds() >= deadline_s_;
  }
  /// Cancelled or past the deadline — the two external interrupts parallel
  /// workers must poll themselves (budgets are partitioned serially).
  bool interrupted() const { return cancelled() || deadline_expired(); }
  double elapsed_seconds() const { return timer_.seconds(); }
  const MapRequest& request() const { return *request_; }

  // ---- latching API (run thread only) ----

  /// True once the run must stop: cancellation, deadline, or — given the
  /// progress counters — an exhausted budget. Latches the first reason;
  /// keeps returning true afterwards.
  bool should_stop(std::size_t iterations, std::size_t evaluations) {
    if (stop_) return true;
    if (cancelled()) {
      stop_ = TerminationReason::kCancelled;
    } else if (deadline_expired()) {
      stop_ = TerminationReason::kDeadline;
    } else if (budget_exhausted(iterations, evaluations)) {
      stop_ = TerminationReason::kBudgetExhausted;
    }
    return stop_.has_value();
  }

  bool budget_exhausted(std::size_t iterations,
                        std::size_t evaluations) const {
    return (request_->max_iterations != 0 &&
            iterations >= request_->max_iterations) ||
           (request_->max_evaluations != 0 &&
            evaluations >= request_->max_evaluations);
  }

  /// Latches `reason` unless a stop reason is already recorded.
  void stop(TerminationReason reason) {
    if (!stop_) stop_ = reason;
  }

  bool stopped() const { return stop_.has_value(); }
  /// The latched stop reason, or kConverged when the run completed.
  TerminationReason reason() const {
    return stop_.value_or(TerminationReason::kConverged);
  }

  /// Appends a trajectory point and fires the request's callback.
  void record_incumbent(double makespan, std::size_t iteration) {
    trajectory_.push_back({makespan, iteration, timer_.seconds()});
    if (request_->on_incumbent) request_->on_incumbent(trajectory_.back());
  }

  /// Replays an externally collected trajectory (parallel mappers record
  /// per-worker and replay the winner) through record_incumbent, keeping
  /// the recorded timestamps.
  void adopt_trajectory(std::vector<IncumbentRecord> trajectory) {
    for (IncumbentRecord& r : trajectory) {
      trajectory_.push_back(r);
      if (request_->on_incumbent) request_->on_incumbent(trajectory_.back());
    }
  }

  /// Stamps wall time, termination reason and trajectory onto `report`.
  /// Call exactly once, as the run's last step.
  void finalize(MapReport& report) {
    report.wall_seconds = timer_.seconds();
    report.termination = reason();
    report.trajectory = std::move(trajectory_);
  }

 private:
  const MapRequest* request_;
  double deadline_s_;
  WallTimer timer_;
  std::optional<TerminationReason> stop_;
  std::vector<IncumbentRecord> trajectory_;
};

/// Folds the bounds of `baked` (a mapper's default request, built from the
/// shared `deadline_ms=`/`max_evals=`/`max_iters=` spec options) into
/// `request`: each bound takes the tighter of the two (non-zero minimum).
/// Cancel token, seed and callback stay `request`'s own — a baked request
/// never carries those. Drivers that accept explicit requests for
/// registry-built mappers (MappingService, the CLI) run
/// `merge_run_bounds(mapper.default_request(), request)` so spec-level
/// bounds are honored alongside caller-level ones.
MapRequest merge_run_bounds(const MapRequest& baked, MapRequest request);

/// The private worker pool of a run with a `threads=` option: `threads`
/// workers, or none when `threads <= 1` (the serial path stays
/// allocation-free). Results are bit-identical for every thread count.
class PoolLease {
 public:
  explicit PoolLease(std::size_t threads);
  ~PoolLease();

  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  /// nullptr means "run serially".
  ThreadPool* get() const { return pool_.get(); }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace spmap
