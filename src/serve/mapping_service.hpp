#pragma once
/// \file mapping_service.hpp
/// Asynchronous mapping jobs: the serving facade over the anytime run API.
///
/// A `MappingService` owns a FIFO job queue and a fixed pool of worker
/// threads. One job is one complete mapping problem — a task graph, a
/// platform, a registry mapper spec, and the evaluation protocol — bundled
/// with a `MapRequest` bounding the run. `submit` returns a `JobHandle`
/// for status polling, blocking waits and cooperative cancellation; the
/// worker builds the cost model and evaluators, runs the mapper, and (when
/// `reporting_orders > 0`) re-prices the result with the paper's reporting
/// protocol (min over BFS + random schedules) plus the all-CPU baseline —
/// exactly what the scenario runner always computed inline. The scenario
/// runner (`spmap_cli sweep`) and the daemon are its clients.
///
/// ## Determinism
///
/// Jobs are executed FIFO by whichever worker frees up first, but nothing
/// a job computes depends on *which* worker runs it or *when*: the
/// construction rng of every job is fixed at submit time — either the
/// caller's explicit `construction_rng`, or a stream derived from the
/// service seed and the job's submission index — and the evaluators are
/// private to the job. Hence a batch of submissions produces bit-identical
/// results for every `workers` count (the serial scenario path included),
/// except wall-clock fields. Deadlines/cancellation break this, as always.
///
/// ## Thread-safety
///
/// `submit`, `wait_all` and every `JobHandle` member are safe to call from
/// any thread. The service must outlive its handles' `wait` calls; the
/// destructor drains the queue (runs every submitted job) and joins the
/// workers — cancel jobs first for a fast teardown.
///
/// ## Lifecycle
///
///   kQueued -> kRunning -> kDone (result().error.empty())
///                       -> kFailed (result().error explains)
///   kQueued -> kCancelled (cancelled before a worker picked it up)
///
/// Cancelling a *running* job triggers its CancelToken: the mapper returns
/// its incumbent and the job completes as kDone with
/// `report.termination == TerminationReason::kCancelled`.
///
/// ## Admission and priorities
///
/// Admission is decided here and nowhere else. `submit` always admits.
/// `try_submit` is the bounded door: `Options::max_queued` bounds the jobs
/// *waiting* for a worker (running jobs do not count), per priority class
/// against *graduated* thresholds — priority >= 2 may fill the whole
/// bound, priority 1 three quarters of it, lower priorities half (each at
/// least 1) — so under overload the least urgent traffic is shed first.
/// A refused job returns std::nullopt and is counted in
/// `stats().rejected`; cache hits never take a queue slot, so the bound
/// never refuses one. `MapJob::priority` also orders the queue: workers
/// always pick the highest waiting priority, FIFO within one priority, so
/// a saturated service keeps serving its most urgent class first.
///
/// ## Result cache
///
/// With `Options::cache` set, submit consults the memo before queueing.
/// A job is *cacheable* iff its computation is a pure function of its
/// inputs: the construction rng is pinned (`MapJob::construction_rng`
/// set — a derived per-submission stream is unique by construction and
/// would only pollute the memo) and neither the request nor the spec
/// carries a wall-clock deadline. The key covers the exact graph +
/// platform content hashes (sched/problem_hash.hpp), the canonical
/// mapper spec, the request bounds + seed, the reporting protocol and the
/// rng fingerprint — everything the determinism contract needs for
/// cached == computed, bit for bit (the mapper always runs against the
/// breadth-first evaluator).
///
/// A hit turns the job terminal inside submit: no queue slot (it is
/// admitted even when the queue is full), no worker, `on_terminal` fired
/// from the *submitting* thread before submit returns, `on_start` never
/// fired, and `report.cache == CacheOutcome::kHit`. Misses run normally
/// (reporting kMiss) and, when they finish deterministically (kDone with
/// kConverged/kBudgetExhausted), are inserted. Uncacheable jobs report
/// kNone.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/io.hpp"
#include "mappers/run_api.hpp"
#include "model/cost_model.hpp"
#include "model/platform.hpp"
#include "sched/evaluator.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace spmap {

class ResultCache;

/// Where a job is in its lifecycle (see the header comment).
enum class JobStatus { kQueued, kRunning, kDone, kFailed, kCancelled };

/// Stable lower-case label ("queued", "running", ...).
const char* to_string(JobStatus status);

/// Reporting state shared by every job of one problem: the paper's
/// reporting evaluator (min over BFS + N random schedules), the all-CPU
/// baseline makespan and the cost model, built **once** instead of per
/// job — and built *lazily*: construction only captures the inputs, the
/// first accessor call pays the build (under std::call_once, so the first
/// *job* to need it builds it on its worker and siblings reuse it; a
/// submit thread fanning out hundreds of jobs never serializes on it).
/// Immutable once built and priced through the evaluator's stateless
/// one-shot `evaluate`, so any number of concurrent workers may share one
/// context (the scenario runner shares one across a repetition's whole
/// mapper line-up).
class ReportingContext {
 public:
  ReportingContext(std::shared_ptr<const TaskGraph> graph,
                   std::shared_ptr<const Platform> platform,
                   std::size_t reporting_orders);

  // The built evaluator points into the built cost model: pinned.
  ReportingContext(const ReportingContext&) = delete;
  ReportingContext& operator=(const ReportingContext&) = delete;

  /// `mapping` priced by the reporting protocol. Thread-safe.
  double evaluate(const Mapping& mapping) const;
  double baseline() const { return built().baseline; }
  /// The protocol's random-order count (cache-key ingredient; cheap, does
  /// not force the lazy build).
  std::size_t random_orders() const { return reporting_orders_; }
  /// The shared cost model (immutable, thread-safe reads): jobs carrying
  /// this context build their inner evaluators on it instead of
  /// constructing a CostModel of their own.
  const CostModel& cost() const { return built().cost; }

 private:
  struct Built {
    CostModel cost;
    Evaluator evaluator;
    double baseline;

    Built(const TaskGraph& graph, const Platform& platform,
          std::size_t reporting_orders);
  };

  const Built& built() const;

  std::shared_ptr<const TaskGraph> graph_;
  std::shared_ptr<const Platform> platform_;
  std::size_t reporting_orders_ = 0;
  mutable std::once_flag built_once_;
  mutable std::optional<Built> built_;
};

struct MapJobResult;

/// One mapping problem. Graph and platform are shared immutable inputs
/// (submit many jobs over one graph without copying it).
struct MapJob {
  /// MapperRegistry spec, e.g. "anneal:iters=2000,seed=7".
  std::string mapper_spec;
  std::shared_ptr<const TaskGraph> graph;
  std::shared_ptr<const Platform> platform;
  /// Random schedule orders of the *reporting* evaluator (paper protocol:
  /// min over BFS + N random schedules; 0 = BFS only). Unset skips the
  /// reporting pass entirely: `reported_makespan` then equals the report's
  /// predicted makespan and `baseline_makespan` stays 0. Ignored when
  /// `reporting` is set.
  std::optional<std::size_t> reporting_orders;
  /// Shared precomputed reporting state; set this when many jobs price
  /// against the same graph/platform so the reporting evaluator and the
  /// baseline are built once, not per job. Must match `graph`/`platform`.
  std::shared_ptr<const ReportingContext> reporting;
  /// Construction rng for MapperRegistry::create (decomposition forests,
  /// unseeded mapper seeds). Unset: derived from the service seed and the
  /// job's submission index.
  std::optional<Rng> construction_rng;
  /// Queue priority: workers pick the highest waiting priority first,
  /// FIFO within one priority; `try_submit` bounds each class (see the
  /// header comment). 0 is the default; the daemon maps its wire classes
  /// low/normal/high to 0/1/2.
  int priority = 0;
  /// Fired exactly once when the job turns terminal (kDone / kFailed /
  /// kCancelled), from the worker that finished it — or from the
  /// cancelling thread for a queued-cancel, or from the *submitting*
  /// thread (before submit returns) for a cache hit. Runs outside every
  /// service lock, so it may call any JobHandle or service member, but it
  /// must not block: it delays that worker's next job. The serving daemon
  /// uses it to push completion events to subscribed connections.
  std::function<void(std::uint64_t id, JobStatus status,
                     const MapJobResult& result)>
      on_terminal;
  /// Fired once when a worker picks the job up (kQueued -> kRunning), from
  /// that worker, outside every service lock. Not fired for jobs cancelled
  /// while queued. Same non-blocking contract as `on_terminal`; a client
  /// timing queue wait (the benchmark's batch workloads) reads it.
  std::function<void(std::uint64_t id)> on_start;
};

/// What a finished job yields.
struct MapJobResult {
  MapReport report;
  /// `report.mapping` priced by the reporting protocol (== the report's
  /// predicted makespan when `reporting_orders == 0`).
  double reported_makespan = 0.0;
  /// Reporting-evaluator makespan of the all-CPU default mapping (0 when
  /// `reporting_orders == 0`).
  double baseline_makespan = 0.0;
  /// Wall clock of mapper construction + run (the paper's end-to-end
  /// mapper time, matching the scenario runner's timing).
  double wall_seconds = 0.0;
  /// Non-empty iff the job failed (bad spec, mapper exception).
  std::string error;
};

struct MappingServiceOptions {
  /// Worker threads executing jobs (>= 1; 0 is promoted to 1).
  std::size_t workers = 1;
  /// Base seed of the derived per-job construction rng streams.
  std::uint64_t seed = 0x5e9e5eed;
  /// Bound on *waiting* jobs (running jobs excluded) that `try_submit`
  /// enforces per priority class; 0 = unbounded.
  std::size_t max_queued = 0;
  /// Result cache consulted by submit (see the header comment). May be
  /// shared between services; null disables caching entirely.
  std::shared_ptr<ResultCache> cache;
};

/// Monotonic counter snapshot. Every snapshot is *consistent*:
/// `submitted == queued + running + done + failed + cancelled` holds in
/// each one, because the service keeps these counters under its lock and
/// every lifecycle transition moves a job between two of them inside one
/// critical section (a job is never in neither column). Rejected
/// submissions are counted separately and never got a JobHandle.
struct ServiceStats {
  std::size_t submitted = 0;  ///< accepted submissions (all time)
  std::size_t rejected = 0;   ///< refused by try_submit's class bound
  std::size_t queued = 0;     ///< currently waiting for a worker
  std::size_t running = 0;    ///< currently executing
  std::size_t done = 0;       ///< terminal: completed (incl. cancelled-
                              ///< while-running, which return incumbents,
                              ///< and cache hits, which never queue)
  std::size_t failed = 0;     ///< terminal: threw (bad spec, ...)
  std::size_t cancelled = 0;  ///< terminal: cancelled while still queued
  // Cache counters (all zero when Options::cache is null).
  std::size_t cache_hits = 0;    ///< submissions answered from the memo
  std::size_t cache_misses = 0;  ///< cacheable jobs that had to execute
};

class MappingService {
 public:
  using Options = MappingServiceOptions;

  explicit MappingService(Options options = {});
  /// Drains the queue (every submitted job still runs) and joins.
  ~MappingService();

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  class JobHandle;

  /// Enqueues a job; workers pick the highest waiting priority first,
  /// FIFO within one priority. The `request` bounds the mapper run exactly
  /// as in Mapper::map; its CancelToken is replaced by a per-job child, so
  /// `JobHandle::cancel` stays local to one job while cancelling the
  /// caller's original token still cancels every job submitted with it.
  /// Always admits, whatever `Options::max_queued` says.
  JobHandle submit(MapJob job, MapRequest request = {});

  /// Bounded admission: as `submit`, but std::nullopt (counted in
  /// `stats().rejected`) when the job's priority class has no queue room
  /// left (see the header comment). Never blocks.
  std::optional<JobHandle> try_submit(MapJob job, MapRequest request = {});

  /// Blocks until every job submitted so far is terminal.
  void wait_all();

  /// Consistent snapshot of the admission/lifecycle counters.
  ServiceStats stats() const;

  /// Background worker threads executing jobs (the promoted `workers`).
  std::size_t worker_count() const { return workers_.size(); }

 private:
  struct JobState;

  std::optional<JobHandle> submit_locked(MapJob job, MapRequest request,
                                         bool bounded);
  /// Waiting jobs a `try_submit` of `priority` may find and still enqueue.
  std::size_t class_capacity(int priority) const;
  void worker_loop();
  JobStatus execute(JobState& state);

  Options options_;
  std::vector<std::thread> workers_;

  mutable Mutex mutex_;
  CondVar work_ready_;   // workers wait for jobs / stop
  CondVar job_done_;     // waiters in wait_all
  /// Waiting jobs by priority, highest served first, FIFO within one.
  std::map<int, std::deque<std::shared_ptr<JobState>>, std::greater<int>>
      queues_ SPMAP_GUARDED_BY(mutex_);
  /// Lifecycle counters; `stats_.queued` counts the jobs across queues_.
  ServiceStats stats_ SPMAP_GUARDED_BY(mutex_);
  std::uint64_t next_id_ SPMAP_GUARDED_BY(mutex_) = 0;
  std::size_t unfinished_ SPMAP_GUARDED_BY(mutex_) = 0;  // not yet terminal
  bool stopping_ SPMAP_GUARDED_BY(mutex_) = false;
};

/// Observer + controller of one submitted job. Copyable; all members are
/// thread-safe. A default-constructed handle is empty (status kFailed).
class MappingService::JobHandle {
 public:
  JobHandle() = default;

  /// Submission-ordered id (also the index of the derived rng stream).
  std::uint64_t id() const;
  JobStatus status() const;
  /// True once the job is terminal (done, failed, or cancelled-in-queue).
  bool done() const;
  /// Requests cooperative cancellation: a queued job becomes kCancelled
  /// without running; a running job's CancelToken fires.
  void cancel() const;
  /// Blocks until terminal. The reference stays valid while the handle
  /// (or service) lives — which is why wait() cannot be called on a
  /// temporary handle (`submit(...).wait()` would dangle once the worker
  /// drops its reference). For kCancelled-in-queue jobs the result is
  /// empty with `error` explaining the cancellation.
  const MapJobResult& wait() const&;
  const MapJobResult& wait() const&& = delete;
  /// Timed wait: true once the job is terminal, false if `timeout_ms`
  /// elapsed first — the poll-free replacement for status()-in-a-sleep-
  /// loop callers. An empty handle is trivially terminal (true).
  bool wait_for(double timeout_ms) const;

 private:
  friend class MappingService;
  explicit JobHandle(std::shared_ptr<JobState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<JobState> state_;
};

}  // namespace spmap
