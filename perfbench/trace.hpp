#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced run.
///
/// Spans are recorded by the benchmark's own code around the calls it
/// makes into each layer's public functions — the library itself is not
/// instrumented. Each span has a name (the layer, e.g.
/// "sched.evaluator_build"), a start and end on the monotonic clock, and
/// the index of the span that was open when it began on the same thread
/// (its parent). Spans stay in memory until the run ends and are then
/// written out as one JSON document.
///
/// A layer's self time is its span durations minus the time covered by
/// their child spans; `self_seconds()` sums that per name.
///
/// One Tracer belongs to one thread; threads that trace concurrently
/// each own one and the results are merged after they joined.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  };

  /// Opens a span; returns its index for `end`.
  std::size_t begin(const std::string& name);
  void end(std::size_t index);
  /// Records a finished span from timestamps taken elsewhere; returns its
  /// index, to be passed as the `parent` of its children.
  std::size_t record(const std::string& name, double start, double end,
                     std::int64_t parent = -1) {
    spans_.push_back(Span{name, start, end, parent});
    return spans_.size() - 1;
  }

  /// Adds to a named counter (work counts recorded at span boundaries).
  void count(const std::string& name, double amount) {
    counters_[name] += amount;
  }

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per span name (duration minus direct children).
  std::map<std::string, double> self_seconds() const;
  /// Total seconds of the spans named `name`.
  double total_seconds(const std::string& name) const;

  /// Appends `other`'s spans (re-parented) and adds its counters.
  void merge(const Tracer& other);

  /// Writes spans + counters as JSON to `path`.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
  std::map<std::string, double> counters_;
};

/// RAII span; a null tracer makes it free (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->begin(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace perfbench
