#include "mappers/decomposition.hpp"

#include <algorithm>
#include <memory>

#include "mappers/builtin_registrations.hpp"
#include "mappers/registry.hpp"
#include "util/error.hpp"
#include "util/indexed_heap.hpp"
#include "util/thread_pool.hpp"

namespace spmap {

namespace {

constexpr double kTiny = 1e-15;

/// Candidate mappings materialized per evaluate_batch call. Bounds the
/// memory of a full-frontier sweep to kBatchChunk * node_count devices.
constexpr std::size_t kBatchChunk = 512;

/// One mapping operation: move all nodes of a subgraph onto one device.
struct OpTable {
  const SubgraphSet* set;
  std::size_t device_count;

  std::size_t count() const { return set->size() * device_count; }
  const std::vector<NodeId>& nodes(std::size_t op) const {
    return set->subgraphs[op / device_count];
  }
  DeviceId device(std::size_t op) const {
    return DeviceId(op % device_count);
  }

  /// True if the operation would not change `mapping` at all.
  bool is_noop(std::size_t op, const Mapping& mapping) const {
    const DeviceId d = device(op);
    for (const NodeId n : nodes(op)) {
      if (mapping[n] != d) return false;
    }
    return true;
  }

  void apply(std::size_t op, Mapping& mapping) const {
    const DeviceId d = device(op);
    for (const NodeId n : nodes(op)) mapping[n] = d;
  }

  /// Applies `op` to `mapping`, saving the previous devices into `undo`.
  void apply_with_undo(std::size_t op, Mapping& mapping,
                       std::vector<DeviceId>& undo) const {
    const auto& ns = nodes(op);
    undo.resize(ns.size());
    const DeviceId d = device(op);
    for (std::size_t k = 0; k < ns.size(); ++k) {
      undo[k] = mapping[ns[k]];
      mapping[ns[k]] = d;
    }
  }

  void revert(std::size_t op, Mapping& mapping,
              const std::vector<DeviceId>& undo) const {
    const auto& ns = nodes(op);
    for (std::size_t k = 0; k < ns.size(); ++k) mapping[ns[k]] = undo[k];
  }
};

/// Runs `consume(op, makespan)` for every non-noop operation in ascending
/// op order, with the makespans computed through Evaluator::evaluate_batch
/// in chunks (parallel across `pool`'s workers). The ascending consume
/// order makes the caller's running-best selection identical to the serial
/// apply/evaluate/revert loop; the batch itself is bit-identical for every
/// thread count. Deadline/cancellation interrupts (`control.interrupted()`)
/// truncate the scan at the next op; the caller then acts on whatever
/// prefix was priced.
template <typename Consume>
void sweep_frontier(const OpTable& ops, const Mapping& mapping,
                    const Evaluator& eval, EvalContext& ctx, ThreadPool* pool,
                    const RunControl& control, Consume&& consume) {
  std::vector<std::size_t> op_of;
  std::vector<Mapping> candidates;
  op_of.reserve(kBatchChunk);
  candidates.reserve(kBatchChunk);
  auto flush = [&]() {
    const std::vector<double> makespans =
        eval.evaluate_batch(candidates, ctx, pool);
    for (std::size_t i = 0; i < makespans.size(); ++i) {
      consume(op_of[i], makespans[i]);
    }
    op_of.clear();
    candidates.clear();
  };
  for (std::size_t op = 0; op < ops.count(); ++op) {
    if (control.interrupted()) break;
    if (ops.is_noop(op, mapping)) continue;
    candidates.push_back(mapping);
    ops.apply(op, candidates.back());
    op_of.push_back(op);
    if (candidates.size() == kBatchChunk) flush();
  }
  if (!candidates.empty()) flush();
}

}  // namespace

DecompositionMapper::DecompositionMapper(std::string name,
                                         SubgraphSet subgraphs,
                                         DecompositionParams params)
    : name_(std::move(name)),
      subgraphs_(std::move(subgraphs)),
      params_(params) {
  require(!subgraphs_.subgraphs.empty(),
          "DecompositionMapper: empty subgraph set");
}

MapReport DecompositionMapper::map(const Evaluator& eval,
                                   const MapRequest& request) {
  RunControl control(request);
  EvalContext ctx;
  MapReport report = params_.variant == DecompositionVariant::Basic
                         ? map_basic(eval, ctx, control)
                         : map_threshold(eval, ctx, control);
  control.record_incumbent(report.predicted_makespan, report.iterations);
  control.finalize(report);
  return report;
}

MapReport DecompositionMapper::map_basic(const Evaluator& eval,
                                         EvalContext& ctx,
                                         RunControl& control) const {
  const OpTable ops{&subgraphs_, eval.cost().platform().device_count()};
  const auto objective = [&](const Mapping& m) {
    return params_.objective ? params_.objective(eval, m, ctx)
                             : eval.evaluate(m, ctx);
  };
  // A custom objective cannot go through the makespan batch API.
  const PoolLease lease(control.request(),
                        params_.objective ? 1 : params_.threads);
  ThreadPool* pool = params_.objective ? nullptr : lease.get();

  Mapping mapping = eval.default_mapping();
  double current = objective(mapping);
  const std::size_t cap = params_.max_iterations
                              ? params_.max_iterations
                              : std::max<std::size_t>(16, 2 * mapping.size());

  // Budgets are checked between improvement iterations (a sweep prices up
  // to ops.count() candidates at once); deadline/cancellation truncate the
  // candidate scans themselves.
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<DeviceId> undo;
  while (iterations < cap) {
    if (control.should_stop(iterations, ctx.evaluations())) {
      break;
    }
    std::size_t best_op = ops.count();
    double best_makespan = current;
    auto keep_best = [&](std::size_t op, double ms) {
      if (ms < best_makespan - kTiny) {
        best_makespan = ms;
        best_op = op;
      }
    };
    if (pool) {
      sweep_frontier(ops, mapping, eval, ctx, pool, control, keep_best);
    } else {
      for (std::size_t op = 0; op < ops.count(); ++op) {
        if (control.interrupted()) break;
        if (ops.is_noop(op, mapping)) continue;
        ops.apply_with_undo(op, mapping, undo);
        const double ms = objective(mapping);
        ops.revert(op, mapping, undo);
        keep_best(op, ms);
      }
    }
    if (best_op == ops.count()) {
      // Nothing improving — convergence only if the scan was complete.
      converged = !control.interrupted();
      break;
    }
    ops.apply(best_op, mapping);
    current = best_makespan;
    ++iterations;
  }
  if (!converged) {
    control.should_stop(iterations, ctx.evaluations());
  }

  MapReport report;
  report.predicted_makespan = eval.evaluate(mapping, ctx);
  report.mapping = std::move(mapping);
  report.iterations = iterations;
  report.evaluations = ctx.evaluations();
  return report;
}

MapReport DecompositionMapper::map_threshold(const Evaluator& eval,
                                             EvalContext& ctx,
                                             RunControl& control) const {
  const OpTable ops{&subgraphs_, eval.cost().platform().device_count()};
  const double gamma = std::max(params_.gamma, 1.0);
  const auto objective = [&](const Mapping& m) {
    return params_.objective ? params_.objective(eval, m, ctx)
                             : eval.evaluate(m, ctx);
  };
  // A custom objective cannot go through the makespan batch API. The
  // heap-guided inner scan is inherently sequential; only the full-frontier
  // sweeps (initial fill, verification) batch.
  const PoolLease lease(control.request(),
                        params_.objective ? 1 : params_.threads);
  ThreadPool* pool = params_.objective ? nullptr : lease.get();

  Mapping mapping = eval.default_mapping();
  double current = objective(mapping);
  std::vector<DeviceId> undo;

  // Expected improvement of one operation against the current mapping.
  auto recompute = [&](std::size_t op) {
    if (ops.is_noop(op, mapping)) return -kInfeasible;  // never useful
    ops.apply_with_undo(op, mapping, undo);
    const double ms = objective(mapping);
    ops.revert(op, mapping, undo);
    return current - ms;  // > 0 == improvement
  };

  // Improvement of every operation against the current mapping at once
  // (noops fixed at -inf, like recompute). Calls consume(op, improvement)
  // in ascending op order.
  auto recompute_all = [&](auto&& consume) {
    if (pool) {
      std::vector<double> improvement(ops.count(), -kInfeasible);
      sweep_frontier(ops, mapping, eval, ctx, pool, control,
                     [&](std::size_t op, double ms) {
                       improvement[op] = current - ms;
                     });
      for (std::size_t op = 0; op < ops.count(); ++op) {
        consume(op, improvement[op]);
      }
    } else {
      for (std::size_t op = 0; op < ops.count(); ++op) {
        if (control.interrupted()) break;
        consume(op, recompute(op));
      }
    }
  };

  // First iteration: evaluate every operation once and fill the priority
  // queue with the expected improvements (Section III-D).
  IndexedMaxHeap heap(ops.count());
  recompute_all(
      [&](std::size_t op, double imp) { heap.push_or_update(op, imp); });

  const std::size_t cap = params_.max_iterations
                              ? params_.max_iterations
                              : std::max<std::size_t>(16, 2 * mapping.size());
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<bool> fresh(ops.count(), false);

  while (iterations < cap) {
    if (control.should_stop(iterations, ctx.evaluations())) {
      break;
    }
    // Scan operations in order of expected improvement, re-evaluating each
    // against the current configuration. Once an actual improvement is
    // found, keep looking only while the next expectation exceeds
    // best_imp / gamma.
    std::fill(fresh.begin(), fresh.end(), false);
    std::size_t best_op = ops.count();
    double best_imp = 0.0;
    while (!heap.empty()) {
      if (control.interrupted()) break;
      const std::size_t top = heap.top();
      if (fresh[top]) break;  // exact value on top: nothing stale can win
      if (best_op != ops.count() && heap.top_priority() <= best_imp / gamma) {
        break;  // look-ahead cutoff
      }
      if (heap.top_priority() <= kTiny && best_op != ops.count()) break;
      const double imp = recompute(top);
      heap.push_or_update(top, imp);
      fresh[top] = true;
      if (imp > best_imp + kTiny) {
        best_imp = imp;
        best_op = top;
      }
      if (best_op == ops.count() && heap.top_priority() <= kTiny) {
        break;  // best expectation is non-positive: no candidate this round
      }
    }

    if (best_op == ops.count() && !control.interrupted()) {
      // Verification sweep (paper: "in the last iteration, we recompute
      // every possible mapping"): expectations may be stale underestimates.
      recompute_all([&](std::size_t op, double imp) {
        heap.push_or_update(op, imp);
        if (imp > best_imp + kTiny) {
          best_imp = imp;
          best_op = op;
        }
      });
      if (best_op == ops.count()) {
        // Verified — convergence only if the sweep ran to completion.
        converged = !control.interrupted();
        break;
      }
    }
    if (best_op == ops.count()) break;  // interrupted with nothing to apply

    ops.apply(best_op, mapping);
    current -= best_imp;
    // The applied operation is exhausted for now; its expectation resets.
    heap.push_or_update(best_op, 0.0);
    ++iterations;
  }
  if (!converged) {
    control.should_stop(iterations, ctx.evaluations());
  }

  MapReport report;
  report.predicted_makespan = eval.evaluate(mapping, ctx);
  report.mapping = std::move(mapping);
  report.iterations = iterations;
  report.evaluations = ctx.evaluations();
  return report;
}

namespace {

CutPolicy cut_policy_option(const MapperOptions& options) {
  const std::string value = options.get("cut", "random");
  if (value == "random") return CutPolicy::Random;
  if (value == "smallest") return CutPolicy::SmallestSubtree;
  if (value == "largest") return CutPolicy::LargestSubtree;
  if (value == "first") return CutPolicy::FirstActive;
  throw Error("mapper option 'cut': expected random|smallest|largest|first, "
              "got '" +
              value + "'");
}

std::size_t max_iterations_option(const MapperOptions& options) {
  const std::int64_t value = options.get_int("max-iterations", 0);
  require(value >= 0, "mapper option 'max-iterations': must be >= 0");
  return static_cast<std::size_t>(value);
}

double gamma_option(const MapperOptions& options) {
  const double gamma = options.get_double("gamma", 1.0);
  require(gamma >= 1.0, "mapper option 'gamma': must be >= 1 (1 = FirstFit)");
  return gamma;
}

const MapperOptionInfo kMaxIterationsOption{
    "max-iterations", "0",
    "iteration cap; 0 derives ~one iteration per task"};
const MapperOptionInfo kGammaOption{
    "gamma", "1", "threshold look-ahead divisor; 1 = FirstFit"};
const MapperOptionInfo kCutOption{
    "cut", "random",
    "Algorithm 1 branch-cut policy: random|smallest|largest|first"};
const MapperOptionInfo kThreadsOption{
    "threads", "1",
    "candidate-sweep worker threads (results thread-count invariant)"};

}  // namespace

void detail::register_decomposition_mappers(MapperRegistry& registry) {
  {
    MapperEntry entry;
    entry.name = "sn";
    entry.display_name = "SingleNode";
    entry.description =
        "Single-node decomposition mapping (Section III-B): exhaustive "
        "greedy re-mapping of individual tasks, best improvement first";
    entry.options = {kMaxIterationsOption, kThreadsOption};
    entry.factory = [](const MapperContext& ctx) {
      DecompositionParams params;
      params.variant = DecompositionVariant::Basic;
      params.max_iterations = max_iterations_option(ctx.options);
      params.threads = threads_option(ctx.options);
      return std::make_unique<DecompositionMapper>(
          "SingleNode", single_node_subgraphs(ctx.dag.node_count()), params);
    };
    registry.add(std::move(entry));
  }
  {
    MapperEntry entry;
    entry.name = "snff";
    entry.display_name = "SNFirstFit";
    entry.description =
        "Single-node decomposition with the gamma-threshold heap "
        "(Section III-D); gamma=1 is the paper's SNFirstFit";
    entry.options = {kGammaOption, kMaxIterationsOption, kThreadsOption};
    entry.factory = [](const MapperContext& ctx) {
      DecompositionParams params;
      params.variant = DecompositionVariant::Threshold;
      params.gamma = gamma_option(ctx.options);
      params.max_iterations = max_iterations_option(ctx.options);
      params.threads = threads_option(ctx.options);
      return std::make_unique<DecompositionMapper>(
          "SNFirstFit", single_node_subgraphs(ctx.dag.node_count()), params);
    };
    registry.add(std::move(entry));
  }
  {
    MapperEntry entry;
    entry.name = "sp";
    entry.display_name = "SeriesParallel";
    entry.description =
        "Series-parallel decomposition mapping (Section III-C): greedy "
        "re-mapping of whole SP subgraphs from the Algorithm 1 forest";
    entry.needs_sp_decomposition = true;
    entry.options = {kCutOption, kMaxIterationsOption, kThreadsOption};
    entry.factory = [](const MapperContext& ctx) {
      DecompositionParams params;
      params.variant = DecompositionVariant::Basic;
      params.max_iterations = max_iterations_option(ctx.options);
      params.threads = threads_option(ctx.options);
      return std::make_unique<DecompositionMapper>(
          "SeriesParallel",
          series_parallel_subgraphs(ctx.dag, ctx.rng,
                                    cut_policy_option(ctx.options)),
          params);
    };
    registry.add(std::move(entry));
  }
  {
    MapperEntry entry;
    entry.name = "spff";
    entry.display_name = "SPFirstFit";
    entry.description =
        "Series-parallel decomposition with the gamma-threshold heap; "
        "gamma=1 is the paper's SPFirstFit flagship heuristic";
    entry.needs_sp_decomposition = true;
    entry.options = {kCutOption, kGammaOption, kMaxIterationsOption,
                     kThreadsOption};
    entry.factory = [](const MapperContext& ctx) {
      DecompositionParams params;
      params.variant = DecompositionVariant::Threshold;
      params.gamma = gamma_option(ctx.options);
      params.max_iterations = max_iterations_option(ctx.options);
      params.threads = threads_option(ctx.options);
      return std::make_unique<DecompositionMapper>(
          "SPFirstFit",
          series_parallel_subgraphs(ctx.dag, ctx.rng,
                                    cut_policy_option(ctx.options)),
          params);
    };
    registry.add(std::move(entry));
  }
}

}  // namespace spmap
