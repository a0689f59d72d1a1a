#include "serve/mapping_service.hpp"

#include <chrono>
#include <exception>
#include <limits>
#include <utility>

#include "mappers/registry.hpp"
#include "model/cost_model.hpp"
#include "sched/evaluator.hpp"
#include "sched/problem_hash.hpp"
#include "serve/result_cache.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace spmap {

ReportingContext::ReportingContext(std::shared_ptr<const TaskGraph> graph,
                                   std::shared_ptr<const Platform> platform,
                                   std::size_t reporting_orders)
    : graph_(std::move(graph)),
      platform_(std::move(platform)),
      reporting_orders_(reporting_orders) {}

ReportingContext::Built::Built(const TaskGraph& graph,
                               const Platform& platform,
                               std::size_t reporting_orders)
    : cost(graph.dag, graph.attrs, platform),
      evaluator(cost, {.random_orders = reporting_orders}),
      baseline(evaluator.default_mapping_makespan()) {}

const ReportingContext::Built& ReportingContext::built() const {
  std::call_once(built_once_, [this] {
    built_.emplace(*graph_, *platform_, reporting_orders_);
  });
  return *built_;
}

double ReportingContext::evaluate(const Mapping& mapping) const {
  return built().evaluator.evaluate(mapping);
}

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Shared between the service, its workers and every handle copy. The
/// per-job mutex/cv keeps handle operations independent of the service's
/// queue lock (a wait() never blocks submissions).
struct MappingService::JobState {
  // Immutable after submit (id/job/request/rng/key set once, then only
  // read): no guard needed. `request.cancel` is internally atomic.
  std::uint64_t id = 0;
  MapJob job;
  MapRequest request;
  Rng construction_rng{0};
  /// Memo key of a cacheable job (full computation identity).
  std::optional<Digest> cache_key;

  mutable Mutex mutex;
  CondVar terminal;
  JobStatus status SPMAP_GUARDED_BY(mutex) = JobStatus::kQueued;
  MapJobResult result SPMAP_GUARDED_BY(mutex);
  /// Guards the exactly-once `MapJob::on_terminal` invocation (the worker
  /// path and the queued-cancel path race for it).
  bool terminal_notified SPMAP_GUARDED_BY(mutex) = false;

  bool is_terminal_locked() const SPMAP_REQUIRES(mutex) {
    return status == JobStatus::kDone || status == JobStatus::kFailed ||
           status == JobStatus::kCancelled;
  }

  /// Claims the one on_terminal invocation.
  bool claim_terminal_notification_locked() SPMAP_REQUIRES(mutex) {
    if (terminal_notified) return false;
    terminal_notified = true;
    return job.on_terminal != nullptr;
  }

  /// The result of a job that already turned terminal. Terminal status is
  /// a one-way latch and no writer touches `result` past it (the
  /// invariant every terminal-notification caller relies on), so handing
  /// out the reference for lock-free reads is sound.
  const MapJobResult& terminal_result_locked() const SPMAP_REQUIRES(mutex) {
    return result;
  }
};

MappingService::MappingService(Options options) : options_(options) {
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(workers);
  // Touch the registry before spawning so its one-time init never races.
  MapperRegistry::instance();
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

MappingService::~MappingService() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

MappingService::JobHandle MappingService::submit(MapJob job,
                                                 MapRequest request) {
  return *submit_locked(std::move(job), std::move(request),
                        /*bounded=*/false);
}

std::optional<MappingService::JobHandle> MappingService::try_submit(
    MapJob job, MapRequest request) {
  return submit_locked(std::move(job), std::move(request), /*bounded=*/true);
}

std::size_t MappingService::class_capacity(int priority) const {
  const std::size_t m = options_.max_queued;
  if (m == 0) return std::numeric_limits<std::size_t>::max();
  if (priority >= 2) return m;
  if (priority == 1) return std::max<std::size_t>(1, (3 * m) / 4);
  return std::max<std::size_t>(1, m / 2);
}

std::optional<MappingService::JobHandle> MappingService::submit_locked(
    MapJob job, MapRequest request, bool bounded) {
  require(!job.mapper_spec.empty(), "MappingService: empty mapper spec");
  require(job.graph != nullptr, "MappingService: job without a graph");
  require(job.platform != nullptr, "MappingService: job without a platform");

  // ---- cache consult (outside every service lock: hashing is O(V+E)) ----
  ResultCache* cache = options_.cache.get();
  std::optional<Digest> cache_key;
  if (cache != nullptr && job.construction_rng.has_value()) {
    // Cacheable only if deterministic: canonical spec resolvable (a bad
    // spec stays uncacheable and fails in execute() with its usual
    // diagnostic) and no wall-clock deadline anywhere — request-level or
    // baked into the spec (nested init= sub-specs included, hence the
    // substring check on the canonical form).
    std::optional<std::string> canonical;
    try {
      canonical = MapperRegistry::instance().canonical_spec(job.mapper_spec);
    } catch (const std::exception&) {
    }
    if (canonical.has_value() && request.deadline_ms <= 0.0 &&
        canonical->find("deadline_ms=") == std::string::npos) {
      const bool has_reporting_pass =
          job.reporting != nullptr || job.reporting_orders.has_value();
      const std::size_t reporting_orders =
          job.reporting != nullptr
              ? job.reporting->random_orders()
              : job.reporting_orders.value_or(0);
      ContentHasher key("spmap-memo-key/1");
      key.digest(task_graph_hash(*job.graph))
          .digest(platform_hash(*job.platform))
          .str(*canonical)
          .u64(request.max_evaluations)
          .u64(request.max_iterations)
          .boolean(request.seed.has_value())
          .u64(request.seed.value_or(0))
          .boolean(has_reporting_pass)
          .u64(reporting_orders)
          .u64(job.construction_rng->fingerprint());
      cache_key = key.digest();
    }
  }

  if (cache_key.has_value()) {
    if (std::optional<MapJobResult> hit = cache->lookup(*cache_key)) {
      // O(1) fast path: terminal before submit returns, no queue slot
      // consumed (hits are admitted even when the queue is full), no
      // worker occupied, on_start never fired. Wall-clock fields carry
      // the original run's timings (excluded from determinism anyway).
      auto state = std::make_shared<JobState>();
      state->job = std::move(job);
      hit->report.cache = CacheOutcome::kHit;
      state->result = *std::move(hit);
      state->status = JobStatus::kDone;
      {
        MutexLock lock(mutex_);
        state->id = next_id_++;
        ++stats_.submitted;
        ++stats_.done;
        ++stats_.cache_hits;
      }
      bool fire = false;
      const MapJobResult* published = nullptr;
      {
        MutexLock job_lock(state->mutex);
        fire = state->claim_terminal_notification_locked();
        published = &state->terminal_result_locked();
      }
      if (fire) {
        state->job.on_terminal(state->id, JobStatus::kDone, *published);
      }
      return JobHandle(state);
    }
  }

  auto state = std::make_shared<JobState>();
  state->job = std::move(job);
  state->request = std::move(request);
  state->cache_key = cache_key;
  // Per-job cancellation scope: JobHandle::cancel fires only this job's
  // token; the caller's original token (the child's parent) still cancels
  // every job submitted with it.
  state->request.cancel = state->request.cancel.child();
  {
    MutexLock lock(mutex_);
    if (bounded && stats_.queued >= class_capacity(state->job.priority)) {
      ++stats_.rejected;
      return std::nullopt;
    }
    state->id = next_id_++;
    // The per-job rng stream depends only on the submission index, never
    // on worker scheduling — the determinism contract of the header.
    if (state->job.construction_rng.has_value()) {
      state->construction_rng = *state->job.construction_rng;
    } else {
      std::uint64_t stream = options_.seed + 0x9e3779b97f4a7c15ULL * (state->id + 1);
      state->construction_rng = Rng(splitmix64(stream));
    }
    ++unfinished_;
    ++stats_.submitted;
    if (cache_key.has_value()) ++stats_.cache_misses;
    ++stats_.queued;
    queues_[state->job.priority].push_back(state);
  }
  work_ready_.notify_one();
  return JobHandle(state);
}

void MappingService::wait_all() {
  MutexLock lock(mutex_);
  while (unfinished_ != 0) job_done_.wait(lock);
}

ServiceStats MappingService::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void MappingService::worker_loop() {
  for (;;) {
    std::shared_ptr<JobState> state;
    bool run = false;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && stats_.queued == 0) work_ready_.wait(lock);
      if (stats_.queued == 0) return;  // stopping and drained
      // Highest waiting priority first (queues_ is ordered descending),
      // FIFO within one priority.
      auto it = queues_.begin();
      state = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) queues_.erase(it);
      // The queued -> running (or queued -> cancelled, for a job the
      // cancel path already made terminal) transition is accounted inside
      // this one critical section, together with the queue pop: a stats()
      // snapshot must never see a job in neither column. The nested
      // status lock is safe — no path acquires mutex_ while holding a job
      // mutex.
      {
        MutexLock job_lock(state->mutex);
        if (state->status == JobStatus::kQueued) {
          state->status = JobStatus::kRunning;
          run = true;
        }
      }
      --stats_.queued;
      if (run) {
        ++stats_.running;
      } else {
        // Cancelled while waiting: the cancel path already fired
        // on_terminal; just account for it.
        ++stats_.cancelled;
      }
    }

    if (run) {
      if (state->job.on_start) state->job.on_start(state->id);
      const JobStatus final_status = execute(*state);
      MutexLock lock(mutex_);
      --stats_.running;
      if (final_status == JobStatus::kFailed) {
        ++stats_.failed;
      } else {
        ++stats_.done;
      }
    }

    bool drained = false;
    {
      MutexLock lock(mutex_);
      drained = --unfinished_ == 0;
    }
    if (drained) job_done_.notify_all();
    state->terminal.notify_all();
  }
}

JobStatus MappingService::execute(JobState& state) {
  MapJobResult result;
  JobStatus final_status = JobStatus::kDone;
  try {
    const MapJob& job = state.job;
    // Reuse the shared context's cost model when present; the tables are
    // identical, so only jobs without one pay the construction.
    std::optional<CostModel> owned_cost;
    if (job.reporting == nullptr) {
      owned_cost.emplace(job.graph->dag, job.graph->attrs, *job.platform);
    }
    const CostModel& cost =
        job.reporting != nullptr ? job.reporting->cost() : *owned_cost;
    // The mapper prices against the breadth-first order alone.
    const Evaluator inner(cost);

    WallTimer timer;
    Rng rng = state.construction_rng;
    auto mapper =
        MapperRegistry::instance().create(job.mapper_spec, job.graph->dag, rng);
    // Bounds baked into the spec (deadline_ms= etc.) tighten the
    // submit-time request instead of being shadowed by it.
    result.report = mapper->map(
        inner, merge_run_bounds(mapper->default_request(), state.request));
    result.wall_seconds = timer.seconds();

    if (job.reporting != nullptr) {
      result.baseline_makespan = job.reporting->baseline();
      result.reported_makespan = job.reporting->evaluate(result.report.mapping);
    } else if (job.reporting_orders.has_value()) {
      const Evaluator reporting(cost,
                                {.random_orders = *job.reporting_orders});
      result.baseline_makespan = reporting.default_mapping_makespan();
      result.reported_makespan = reporting.evaluate(result.report.mapping);
    } else {
      result.reported_makespan = result.report.predicted_makespan;
    }
    result.report.cache =
        state.cache_key.has_value() ? CacheOutcome::kMiss : CacheOutcome::kNone;
  } catch (const std::exception& ex) {
    result.error = ex.what();
    final_status = JobStatus::kFailed;
  }

  // Feed the cache (outside every service lock; the cache has its own).
  // Only deterministic completions enter: kConverged/kBudgetExhausted are
  // pure functions of the key, while deadline- or cancel-truncated runs
  // depend on wall-clock racing and must never be replayed as answers.
  if (state.cache_key.has_value() && final_status == JobStatus::kDone &&
      (result.report.termination == TerminationReason::kConverged ||
       result.report.termination == TerminationReason::kBudgetExhausted)) {
    options_.cache->insert(*state.cache_key, result);
  }

  bool fire = false;
  const MapJobResult* published = nullptr;
  {
    MutexLock lock(state.mutex);
    state.result = std::move(result);
    state.status = final_status;
    fire = state.claim_terminal_notification_locked();
    published = &state.terminal_result_locked();
  }
  // Outside the job lock: the callback may touch the handle or service.
  // No writer mutates result/status after a job turns terminal (the
  // terminal_result_locked contract).
  if (fire) state.job.on_terminal(state.id, final_status, *published);
  return final_status;
}

// ---- JobHandle ----

std::uint64_t MappingService::JobHandle::id() const {
  return state_ == nullptr ? 0 : state_->id;
}

JobStatus MappingService::JobHandle::status() const {
  if (state_ == nullptr) return JobStatus::kFailed;
  MutexLock lock(state_->mutex);
  return state_->status;
}

bool MappingService::JobHandle::done() const {
  if (state_ == nullptr) return true;
  MutexLock lock(state_->mutex);
  return state_->is_terminal_locked();
}

void MappingService::JobHandle::cancel() const {
  if (state_ == nullptr) return;
  bool became_terminal = false;
  bool fire = false;
  const MapJobResult* published = nullptr;
  {
    MutexLock lock(state_->mutex);
    if (state_->status == JobStatus::kQueued) {
      // The worker that eventually pops this state sees a non-queued
      // status and skips execution.
      state_->status = JobStatus::kCancelled;
      state_->result.error = "cancelled before execution";
      became_terminal = true;
      fire = state_->claim_terminal_notification_locked();
      published = &state_->terminal_result_locked();
    }
  }
  // Outside the job lock: the running mapper polls this token.
  state_->request.cancel.request_cancel();
  if (became_terminal) state_->terminal.notify_all();
  if (fire) {
    state_->job.on_terminal(state_->id, JobStatus::kCancelled, *published);
  }
}

const MapJobResult& MappingService::JobHandle::wait() const& {
  require(state_ != nullptr, "JobHandle::wait on an empty handle");
  MutexLock lock(state_->mutex);
  while (!state_->is_terminal_locked()) state_->terminal.wait(lock);
  return state_->terminal_result_locked();
}

bool MappingService::JobHandle::wait_for(double timeout_ms) const {
  if (state_ == nullptr) return true;
  const auto deadline = deadline_after_ms(timeout_ms);
  MutexLock lock(state_->mutex);
  while (!state_->is_terminal_locked()) {
    if (state_->terminal.wait_until(lock, deadline) ==
        std::cv_status::timeout) {
      return state_->is_terminal_locked();
    }
  }
  return true;
}

}  // namespace spmap
