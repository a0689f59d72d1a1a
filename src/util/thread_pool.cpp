#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>

#include "util/mutex.hpp"

namespace spmap {

ThreadPool::ThreadPool(std::size_t threads)
    : thread_count_(std::max<std::size_t>(1, threads)),
      errors_(thread_count_) {
  threads_.reserve(thread_count_ - 1);
  for (std::size_t w = 1; w < thread_count_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

std::pair<std::size_t, std::size_t> ThreadPool::partition(std::size_t n,
                                                          std::size_t workers,
                                                          std::size_t w) {
  // First (n % workers) blocks get one extra item; blocks stay contiguous.
  const std::size_t base = n / workers;
  const std::size_t extra = n % workers;
  const std::size_t begin = w * base + std::min(w, extra);
  const std::size_t end = begin + base + (w < extra ? 1 : 0);
  return {begin, end};
}

void ThreadPool::run_share(
    std::size_t n, std::size_t worker,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  try {
    const auto [begin, end] = partition(n, thread_count_, worker);
    if (begin < end) fn(begin, end, worker);
  } catch (...) {
    errors_[worker] = std::current_exception();
  }
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  suppressed_count_.store(0, std::memory_order_release);
  if (thread_count_ == 1 || n <= 1) {
    // Inline path: a single worker's exception propagates directly.
    if (n != 0) fn(0, n, 0);
    return;
  }
  {
    MutexLock lock(mutex_);
    job_ = &fn;
    job_n_ = n;
    errors_.assign(thread_count_, nullptr);
    pending_ = thread_count_ - 1;
    ++job_epoch_;
  }
  work_ready_.notify_all();

  // The caller is worker 0.
  run_share(n, 0, fn);

  MutexLock lock(mutex_);
  while (pending_ != 0) work_done_.wait(lock);
  job_ = nullptr;

  // Rethrow the lowest-indexed worker's exception (a deterministic pick);
  // count the rest so they are not dropped silently.
  std::exception_ptr first;
  std::size_t thrown = 0;
  for (std::size_t w = 0; w < thread_count_; ++w) {
    if (!errors_[w]) continue;
    if (!first) first = errors_[w];
    ++thrown;
    errors_[w] = nullptr;
  }
  if (!first) return;
  const std::size_t suppressed = thrown - 1;
  suppressed_count_.store(suppressed, std::memory_order_release);
  lock.unlock();
  if (suppressed > 0) {
    std::fprintf(stderr,
                 "spmap: ThreadPool: %zu worker exception(s) suppressed "
                 "(rethrowing the first)\n",
                 suppressed);
  }
  std::rethrow_exception(first);
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t, std::size_t, std::size_t)>* job;
    std::size_t n;
    {
      MutexLock lock(mutex_);
      while (!stop_ && job_epoch_ == seen_epoch) work_ready_.wait(lock);
      if (stop_) return;
      seen_epoch = job_epoch_;
      job = job_;
      n = job_n_;
    }
    run_share(n, worker, *job);
    {
      MutexLock lock(mutex_);
      if (--pending_ == 0) work_done_.notify_one();
    }
  }
}

}  // namespace spmap
