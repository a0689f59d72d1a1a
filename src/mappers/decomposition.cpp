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

/// Operations priced per Evaluator::evaluate_moves call. The deadline and
/// cancellation are polled between calls, so the chunk bounds a
/// full-frontier scan's interruption latency to kBatchChunk suffix sweeps.
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
};

}  // namespace

/// One run's state, shared by both variants: the operation table, the
/// current mapping with its makespan, and how candidates are priced.
struct DecompositionMapper::Search {
  const Evaluator& eval;
  EvalContext& ctx;
  RunControl& control;
  ThreadPool* pool;
  OpTable ops;
  Mapping mapping;
  Mapping trial;  // == mapping, but while `price` applies a candidate
  double current = 0.0;  // makespan of `mapping`
  std::size_t cap = 0, iterations = 0;
  std::vector<Move> moves{};  // a scan's chunk and each move's op
  std::vector<std::size_t> op_of{};

  /// Makespan of the current mapping with `op` applied.
  double price(std::size_t op) {
    ops.apply(op, trial);
    const double v = eval.evaluate(trial, ctx);
    for (const NodeId n : ops.nodes(op)) trial[n] = mapping[n];
    return v;
  }

  void accept(std::size_t op) {
    ops.apply(op, mapping);
    ops.apply(op, trial);
    ++iterations;
  }

  /// Runs `consume(op, makespan)` for every non-noop operation in
  /// ascending op order, as a one-at-a-time scan would: through
  /// Evaluator::evaluate_moves, kBatchChunk operations per call, exact
  /// below `cutoff` and any value >= `cutoff` otherwise. An interrupt,
  /// polled between calls, truncates the scan to the prefix priced.
  template <typename Consume>
  void scan(double cutoff, Consume&& consume) {
    for (std::size_t op = 0; op < ops.count() && !control.interrupted();) {
      moves.clear();
      op_of.clear();
      for (; op < ops.count() && moves.size() < kBatchChunk; ++op) {
        if (ops.is_noop(op, mapping)) continue;
        moves.push_back({ops.nodes(op), ops.device(op)});
        op_of.push_back(op);
      }
      const std::span<const double> makespans =
          eval.evaluate_moves(mapping, moves, ctx, pool, cutoff);
      for (std::size_t i = 0; i < makespans.size(); ++i) {
        consume(op_of[i], makespans[i]);
      }
    }
  }
};

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
  const PoolLease lease(params_.threads);
  Search s{.eval = eval, .ctx = ctx, .control = control, .pool = lease.get(),
           .ops = {&subgraphs_, eval.cost().platform().device_count()},
           .mapping = eval.default_mapping(),
           .trial = eval.default_mapping()};
  s.current = eval.evaluate(s.mapping, ctx);
  s.cap = params_.max_iterations
              ? params_.max_iterations
              : std::max<std::size_t>(16, 2 * s.mapping.size());
  const bool converged = params_.variant == DecompositionVariant::Basic
                             ? search_basic(s)
                             : search_threshold(s);
  if (!converged) control.should_stop(s.iterations, ctx.evaluations());

  MapReport report;
  report.predicted_makespan = eval.evaluate(s.mapping, ctx);
  report.mapping = std::move(s.mapping);
  report.iterations = s.iterations;
  report.evaluations = ctx.evaluations();
  control.record_incumbent(report.predicted_makespan, report.iterations);
  control.finalize(report);
  return report;
}

bool DecompositionMapper::search_basic(Search& s) const {
  // Budgets are checked between improvement iterations (a scan prices up
  // to ops.count() candidates at once); deadline/cancellation truncate the
  // candidate scans themselves.
  while (s.iterations < s.cap) {
    if (s.control.should_stop(s.iterations, s.ctx.evaluations())) {
      return false;
    }
    // Nothing at or above current - kTiny is ever accepted (best_makespan
    // only falls), so candidates there need not be priced exactly.
    std::size_t best_op = s.ops.count();
    double best_makespan = s.current;
    s.scan(s.current - kTiny, [&](std::size_t op, double ms) {
      if (ms < best_makespan - kTiny) {
        best_makespan = ms;
        best_op = op;
      }
    });
    if (best_op == s.ops.count()) {
      // Nothing improving — convergence only if the scan was complete.
      return !s.control.interrupted();
    }
    s.accept(best_op);
    s.current = best_makespan;
  }
  return false;
}

bool DecompositionMapper::search_threshold(Search& s) const {
  const OpTable& ops = s.ops;
  const double gamma = std::max(params_.gamma, 1.0);

  // Expected improvement of one operation against the current mapping.
  // The heap-guided inner scan is inherently sequential; only the
  // full-frontier sweeps (initial fill, verification) go through `scan`.
  auto recompute = [&](std::size_t op) {
    if (ops.is_noop(op, s.mapping)) return -kInfeasible;  // never useful
    return s.current - s.price(op);  // > 0 == improvement
  };

  // Improvement of every operation against the current mapping at once
  // (noops fixed at -inf, like recompute), exact: the heap keeps them.
  // Calls consume(op, improvement) in ascending op order; an interrupt
  // leaves the unpriced rest at -inf.
  auto recompute_all = [&](auto&& consume) {
    std::size_t next = 0;  // ops below `next` are consumed
    s.scan(kInfeasible, [&](std::size_t op, double value) {
      for (; next < op; ++next) consume(next, -kInfeasible);
      consume(op, s.current - value);
      next = op + 1;
    });
    for (; next < ops.count(); ++next) consume(next, -kInfeasible);
  };

  // First iteration: evaluate every operation once and fill the priority
  // queue with the expected improvements (Section III-D).
  IndexedMaxHeap heap(ops.count());
  recompute_all(
      [&](std::size_t op, double imp) { heap.push_or_update(op, imp); });

  std::vector<bool> fresh(ops.count(), false);
  while (s.iterations < s.cap) {
    if (s.control.should_stop(s.iterations, s.ctx.evaluations())) {
      return false;
    }
    // Scan operations in order of expected improvement, re-evaluating each
    // against the current configuration. Once an actual improvement is
    // found, keep looking only while the next expectation exceeds
    // best_imp / gamma.
    std::fill(fresh.begin(), fresh.end(), false);
    std::size_t best_op = ops.count();
    double best_imp = 0.0;
    while (!heap.empty()) {
      if (s.control.interrupted()) break;
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

    if (best_op == ops.count() && !s.control.interrupted()) {
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
        return !s.control.interrupted();
      }
    }
    if (best_op == ops.count()) return false;  // interrupted, nothing found

    s.accept(best_op);
    s.current -= best_imp;
    // The applied operation is exhausted for now; its expectation resets.
    heap.push_or_update(best_op, 0.0);
  }
  return false;
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
