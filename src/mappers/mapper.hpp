#pragma once
/// \file mapper.hpp
/// Common interface of all task-mapping algorithms.
///
/// A mapper consumes a model-based Evaluator (graph + attributes + platform
/// + cost function) and produces a device assignment for every task. Mappers
/// never see hardware — the evaluator is the single source of truth, which
/// is the paper's model-based design principle (Section II-B) and makes all
/// algorithms directly comparable.
///
/// Runs go through the anytime run API (run_api.hpp): `map(eval, request)`
/// executes one bounded, cancellable, observable run and returns a
/// `MapReport` explaining how it ended. The request-free overload runs the
/// mapper's *baked* request (set by the registry from the shared
/// `deadline_ms=` / `max_evals=` / `max_iters=` options; unlimited by
/// default), so pre-redesign call sites keep compiling and behaving as
/// before. Derived classes implement the two-argument virtual and inherit
/// the convenience overload via `using Mapper::map;`.

#include <memory>
#include <string>

#include "mappers/run_api.hpp"
#include "model/mapping.hpp"
#include "sched/evaluator.hpp"

namespace spmap {

class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Display name used in experiment tables, e.g. "SPFirstFit".
  virtual std::string name() const = 0;

  /// Computes a mapping for the evaluator's task graph under `request`'s
  /// bounds. Always returns a valid mapping (see run_api.hpp semantics).
  virtual MapReport map(const Evaluator& eval, const MapRequest& request) = 0;

  /// Runs the baked default request (source-compatibility overload).
  MapReport map(const Evaluator& eval) { return map(eval, default_request_); }

  /// The request used by the request-free overload. The registry bakes the
  /// shared run options (`deadline_ms=`, `max_evals=`, `max_iters=`) here.
  const MapRequest& default_request() const { return default_request_; }
  void set_default_request(MapRequest request) {
    default_request_ = std::move(request);
  }

 private:
  MapRequest default_request_;
};

/// Ends a one-shot run (cpu, the list schedulers, the MILPs): prices
/// `mapping` once through a fresh context, records it as the run's only
/// incumbent at `iterations` and finalizes the report.
inline MapReport one_shot_report(const Evaluator& eval, RunControl& control,
                                 Mapping mapping, std::size_t iterations) {
  MapReport report;
  EvalContext ctx;
  report.predicted_makespan = eval.evaluate(mapping, ctx);
  report.evaluations = ctx.evaluations();
  report.mapping = std::move(mapping);
  report.iterations = iterations;
  control.record_incumbent(report.predicted_makespan, iterations);
  control.finalize(report);
  return report;
}

}  // namespace spmap
