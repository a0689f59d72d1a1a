#pragma once
/// \file timer.hpp
/// Wall-clock timing used for the execution-time series of every experiment.

#include <chrono>

namespace spmap {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Deadline helper for solver time limits. A non-positive budget means
/// "no limit".
class Deadline {
 public:
  explicit Deadline(double budget_seconds)
      : budget_(budget_seconds), timer_() {}

  bool expired() const {
    return budget_ > 0.0 && timer_.seconds() >= budget_;
  }
  double remaining() const {
    if (budget_ <= 0.0) return 1e300;
    const double r = budget_ - timer_.seconds();
    return r > 0.0 ? r : 0.0;
  }
  double budget() const { return budget_; }

 private:
  double budget_;
  WallTimer timer_;
};

}  // namespace spmap
