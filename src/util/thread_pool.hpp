#pragma once
/// \file thread_pool.hpp
/// Persistent worker pool with deterministic parallel loops.
///
/// The pool exists for the evaluator's batch API: many independent,
/// identically-shaped work items (candidate mappings) that each need a
/// per-worker scratch buffer. `parallel_for` splits [0, n) into one
/// contiguous block per worker, deterministically — for a given
/// (n, worker_count) every worker always receives the same indices — so any
/// computation whose items are independent produces bit-identical results
/// regardless of scheduling jitter. A caller that wants skewed items spread
/// over all workers runs `parallel_for(thread_count(), ...)` and deals its
/// items round-robin by worker id itself (see Evaluator::evaluate_batch).
///
/// The calling thread participates as worker 0; a pool of `threads == 1`
/// spawns no OS threads at all and runs everything inline, so serial
/// callers pay nothing. Worker threads live until the pool is destroyed,
/// avoiding per-call thread spawn costs in generation loops that dispatch
/// thousands of small batches.
///
/// ## Exceptions
///
/// Every worker's exception is caught and collected; after the parallel
/// region completes, the exception of the lowest-indexed throwing worker is
/// rethrown on the calling thread (a deterministic choice), the rest are
/// logged to stderr as a suppressed count and exposed via
/// `last_suppressed_exception_count()`. Earlier versions kept only one
/// arbitrary racing winner and silently dropped the rest.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

namespace spmap {

class ThreadPool {
 public:
  /// A pool with `threads` workers total (including the calling thread).
  /// `threads == 0` is promoted to 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers (calling thread + background threads).
  std::size_t thread_count() const { return thread_count_; }

  /// Runs `fn(begin, end, worker)` over a static partition of [0, n) into
  /// `thread_count()` contiguous blocks and blocks until all are done.
  /// Worker ids are in [0, thread_count()); the caller runs block 0.
  /// `fn` must not recurse into the same pool. See "Exceptions" above.
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t begin, std::size_t end,
                               std::size_t worker)>& fn);

  /// Worker exceptions swallowed (not rethrown) by the most recent
  /// parallel_for call on this pool: total thrown minus the one rethrown.
  /// 0 when the last call succeeded. Atomic so a monitor thread polling
  /// it against an in-flight parallel region reads a clean (previous-call)
  /// value instead of a torn one.
  std::size_t last_suppressed_exception_count() const {
    return suppressed_count_.load(std::memory_order_acquire);
  }

  /// Block of worker `w` in the static partition of [0, n) over `workers`.
  static std::pair<std::size_t, std::size_t> partition(std::size_t n,
                                                       std::size_t workers,
                                                       std::size_t w);

 private:
  void worker_loop(std::size_t worker);
  /// Runs worker `w`'s block of [0, n), catching into errors_[w].
  void run_share(std::size_t n, std::size_t worker,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)>& fn);

  std::size_t thread_count_ = 1;
  std::vector<std::thread> threads_;

  Mutex mutex_;
  CondVar work_ready_;
  CondVar work_done_;
  // Job state, guarded by mutex_. errors_ has one slot per worker, each
  // written only by its owner while the job runs (read by the caller after
  // the job completes, with the pending_-handshake through mutex_ ordering
  // the writes before the read), so the first-thrower choice cannot race.
  const std::function<void(std::size_t, std::size_t, std::size_t)>* job_
      SPMAP_GUARDED_BY(mutex_) = nullptr;
  std::size_t job_n_ SPMAP_GUARDED_BY(mutex_) = 0;
  std::uint64_t job_epoch_ SPMAP_GUARDED_BY(mutex_) = 0;  // per-call bump
  std::size_t pending_ SPMAP_GUARDED_BY(mutex_) = 0;  // workers still busy
  bool stop_ SPMAP_GUARDED_BY(mutex_) = false;
  /// One slot per worker: errors_[w] is written only by worker w during a
  /// job and read by the caller after the pending_ handshake, so slot
  /// accesses need no lock of their own; the vector itself is only
  /// *reshaped* (assign) under mutex_ between jobs.
  std::vector<std::exception_ptr> errors_;
  std::atomic<std::size_t> suppressed_count_{0};
};

}  // namespace spmap
