#include "mappers/run_api.hpp"

#include "util/thread_pool.hpp"

namespace spmap {

const char* to_string(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kConverged: return "converged";
    case TerminationReason::kBudgetExhausted: return "budget_exhausted";
    case TerminationReason::kDeadline: return "deadline";
    case TerminationReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

const char* to_string(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kNone: return "none";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
  }
  return "unknown";
}

MapRequest merge_run_bounds(const MapRequest& baked, MapRequest request) {
  const auto tighter = [](std::size_t a, std::size_t b) {
    if (a == 0) return b;
    if (b == 0) return a;
    return a < b ? a : b;
  };
  if (baked.deadline_ms > 0.0 &&
      (request.deadline_ms <= 0.0 || baked.deadline_ms < request.deadline_ms)) {
    request.deadline_ms = baked.deadline_ms;
  }
  request.max_evaluations =
      tighter(baked.max_evaluations, request.max_evaluations);
  request.max_iterations =
      tighter(baked.max_iterations, request.max_iterations);
  return request;
}

PoolLease::PoolLease(const MapRequest& request, std::size_t threads) {
  if (request.pool != nullptr) {
    pool_ = request.pool;
  } else if (threads > 1) {
    owned_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_.get();
  }
}

PoolLease::~PoolLease() = default;

}  // namespace spmap
