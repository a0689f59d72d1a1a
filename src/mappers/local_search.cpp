#include "mappers/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mappers/builtin_registrations.hpp"
#include "mappers/registry.hpp"
#include "sched/incremental_evaluator.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spmap {

namespace {

/// Outcome of one restart; the best by (makespan, restart index) wins.
struct RestartResult {
  Mapping mapping;
  double makespan = kInfeasible;
  std::size_t applies = 0;
  /// Probes actually executed (== the allotment unless interrupted).
  std::size_t executed = 0;
  /// Set when the restart broke on an external interrupt.
  bool hit_cancel = false;
  bool hit_deadline = false;
  /// Per-restart incumbent improvements; the winning restart's sequence
  /// becomes the report's trajectory.
  std::vector<IncumbentRecord> trajectory;
};

/// Deadline/cancellation poll shared by the three inner loops (workers may
/// run in parallel: only the const RunControl probes are used). Returns
/// true when the restart must stop, recording which interrupt fired.
bool interrupted(const RunControl& control, RestartResult& r) {
  if (control.cancelled()) {
    r.hit_cancel = true;
    return true;
  }
  if (control.deadline_expired()) {
    r.hit_deadline = true;
    return true;
  }
  return false;
}

void note_incumbent(const RunControl& control, RestartResult& r,
                    double makespan, std::size_t iteration) {
  r.trajectory.push_back({makespan, iteration, control.elapsed_seconds()});
}

// Moves are drawn by random_reassignment (incremental_evaluator.hpp), the
// sampler shared with the reassignment benchmarks.

RestartResult run_hillclimb(IncrementalEvaluator& inc, std::size_t devices,
                            std::size_t iterations, Rng rng,
                            const RunControl& control) {
  RestartResult r;
  double best = inc.makespan();
  std::size_t i = 0;
  for (; i < iterations; ++i) {
    if (interrupted(control, r)) break;
    const TaskReassignment move = random_reassignment(inc.mapping(), devices, rng);
    // Trace-free probe first: the common rejected case records nothing,
    // and stops once it cannot end below `best`.
    const double probed = inc.probe(move, best);
    if (probed < best) {
      best = probed;
      inc.apply(move);
      note_incumbent(control, r, best, i + 1);
    }
  }
  r.mapping = inc.mapping();
  r.makespan = best;
  r.applies = inc.apply_count() + inc.probe_count();
  r.executed = i;
  return r;
}

RestartResult run_anneal(IncrementalEvaluator& inc, std::size_t devices,
                         std::size_t iterations, double t0, double cooling,
                         Rng rng, const RunControl& control) {
  RestartResult r;
  double current = inc.makespan();
  r.mapping = inc.mapping();
  r.makespan = current;
  if (t0 <= 0.0) t0 = 0.05 * current;  // derived: 5% of the seed makespan
  // Geometric schedule with 100 cooling steps across the probe budget.
  const std::size_t step = std::max<std::size_t>(1, iterations / 100);
  double temperature = t0;
  std::size_t i = 0;
  for (; i < iterations; ++i) {
    if (interrupted(control, r)) break;
    if (i != 0 && i % step == 0) temperature *= cooling;
    const TaskReassignment move = random_reassignment(inc.mapping(), devices, rng);
    const double probed = inc.probe(move);
    const bool accept =
        probed < current ||
        (temperature > 0.0 && probed < kInfeasible &&
         rng.chance(std::exp(-(probed - current) / temperature)));
    if (accept) {
      current = probed;
      inc.apply(move);
      if (current < r.makespan) {
        r.makespan = current;
        r.mapping = inc.mapping();
        note_incumbent(control, r, current, i + 1);
      }
    }
  }
  r.applies = inc.apply_count() + inc.probe_count();
  r.executed = i;
  return r;
}

RestartResult run_tabu(IncrementalEvaluator& inc, std::size_t devices,
                       std::size_t iterations, std::size_t tenure,
                       std::size_t candidates, Rng rng,
                       const RunControl& control) {
  RestartResult r;
  r.mapping = inc.mapping();
  r.makespan = inc.makespan();
  const std::size_t n = inc.mapping().size();
  if (tenure == 0) tenure = std::max<std::size_t>(8, n / 8);
  std::vector<std::size_t> tabu_until(n, 0);
  const std::size_t rounds = std::max<std::size_t>(1, iterations / candidates);
  std::size_t probes = 0;
  bool stop = false;
  for (std::size_t round = 1; round <= rounds && !stop; ++round) {
    TaskReassignment best_move{NodeId(0u), DeviceId(0u)};
    double best_probed = kInfeasible;
    bool have_move = false;
    for (std::size_t c = 0; c < candidates; ++c) {
      // The probe allotment is a hard cap: a truncated round still
      // considers whatever candidates it managed to price.
      if (probes >= iterations || interrupted(control, r)) {
        stop = true;
        break;
      }
      const TaskReassignment move = random_reassignment(inc.mapping(), devices, rng);
      // Once the round holds a candidate only a probe below it can win, and
      // a tabu move counts only below the incumbent: the probe may stop at
      // the smaller of the two.
      const bool tabu = tabu_until[move.node.v] >= round;
      const double probed = inc.probe(
          move, std::min(have_move ? best_probed : kInfeasible,
                         tabu ? r.makespan : kInfeasible));
      ++probes;
      // Tabu unless it aspires (beats the best mapping seen so far).
      if (tabu && probed >= r.makespan) continue;
      if (!have_move || probed < best_probed) {
        have_move = true;
        best_probed = probed;
        best_move = move;
      }
    }
    if (!have_move || best_probed >= kInfeasible) continue;
    inc.apply(best_move);
    tabu_until[best_move.node.v] = round + tenure;
    if (best_probed < r.makespan) {
      r.makespan = best_probed;
      r.mapping = inc.mapping();
      note_incumbent(control, r, best_probed, probes);
    }
  }
  r.applies = inc.apply_count() + inc.probe_count();
  r.executed = probes;
  return r;
}

}  // namespace

LocalSearchMapper::LocalSearchMapper(LocalSearchParams params,
                                     std::unique_ptr<Mapper> init_mapper)
    : params_(std::move(params)), init_(std::move(init_mapper)) {
  require(init_ != nullptr, "LocalSearchMapper: null init mapper");
  require(params_.restarts >= 1, "LocalSearchMapper: restarts must be >= 1");
}

std::string LocalSearchMapper::name() const {
  switch (params_.variant) {
    case LocalSearchParams::Variant::kHillClimb: return "HillClimb";
    case LocalSearchParams::Variant::kAnneal: return "SimAnneal";
    case LocalSearchParams::Variant::kTabu: return "TabuSearch";
  }
  return "LocalSearch";
}

MapReport LocalSearchMapper::map(const Evaluator& eval,
                                 const MapRequest& request) {
  RunControl control(request);
  const std::size_t n = eval.dag().node_count();
  const std::size_t devices = eval.cost().platform().device_count();

  // The init run shares the deadline window, the cancel token and the
  // evaluation budget (a seed that overruns any of them must stop too;
  // whatever the init consumes is deducted from the search's allotment
  // below). The *iteration* budget stays with the search: probes and init
  // iterations (tasks placed, generations) are different units. A pinned
  // per-run seed pins the init too (derived stream, so a stochastic init=
  // does not correlate with the search rng).
  MapRequest init_request;
  if (request.deadline_ms > 0.0) {
    init_request.deadline_ms = std::max(
        0.001, request.deadline_ms - control.elapsed_seconds() * 1e3);
  }
  init_request.max_evaluations = request.max_evaluations;
  if (request.seed.has_value()) {
    init_request.seed = *request.seed ^ 0x9e3779b97f4a7c15ULL;
  }
  init_request.cancel = request.cancel;
  // Like every explicit-request driver, fold in the bounds baked into the
  // init= sub-spec (e.g. init=nsga:deadline_ms=20).
  MapReport seed = init_->map(
      eval, merge_run_bounds(init_->default_request(), init_request));

  const std::size_t iterations =
      params_.iterations != 0 ? params_.iterations : 50 * std::max<std::size_t>(n, 1);

  MapReport report;
  if (n == 0 || devices < 2 || iterations == 0 ||
      seed.termination == TerminationReason::kCancelled ||
      seed.termination == TerminationReason::kDeadline) {
    if (seed.termination != TerminationReason::kConverged) {
      control.stop(seed.termination);
    }
    report = std::move(seed);
    report.trajectory.clear();
    control.record_incumbent(report.predicted_makespan, 0);
    control.finalize(report);
    return report;
  }

  // The request budget caps the total probe count. Allotments are carved
  // out serially — restart r takes up to its planned `iterations` from
  // what is left — so a bounded run executes the exact probe sequence of
  // the unbounded run's prefix, bit-identical for every thread count.
  // Saturating product: huge sentinel iters= values must not wrap to a
  // tiny (or zero) budget.
  constexpr std::size_t kNoBudget = ~std::size_t{0};
  std::size_t budget = iterations > kNoBudget / params_.restarts
                           ? kNoBudget
                           : iterations * params_.restarts;
  bool truncated = false;
  if (request.max_iterations != 0) {
    budget = std::min(budget, request.max_iterations);
  }
  if (request.max_evaluations != 0) {
    budget = std::min(budget, request.max_evaluations > seed.evaluations
                                  ? request.max_evaluations - seed.evaluations
                                  : 0);
  }
  std::vector<std::size_t> allotment(params_.restarts, 0);
  {
    std::size_t remaining = budget;
    for (std::size_t r = 0; r < params_.restarts; ++r) {
      allotment[r] = std::min(iterations, remaining);
      remaining -= allotment[r];
      if (allotment[r] < iterations) truncated = true;
    }
  }

  // Restart rng streams are derived serially up front; the restart loop
  // below runs on the pool's static partition with one persistent
  // IncrementalEvaluator per worker, so every number is bit-identical for
  // every thread count.
  Rng master(request.seed.value_or(params_.seed));
  std::vector<std::uint64_t> restart_seeds(params_.restarts);
  for (auto& s : restart_seeds) s = master();

  // The seed mapping is the run's first incumbent; record it before the
  // search so the trajectory's timestamps stay monotonic.
  control.record_incumbent(seed.predicted_makespan, 0);

  const PoolLease lease(params_.threads);
  ThreadPool* pool = lease.get();
  const std::size_t workers =
      pool == nullptr ? 1 : std::max<std::size_t>(1, pool->thread_count());
  std::vector<std::unique_ptr<IncrementalEvaluator>> engines(
      std::max<std::size_t>(workers, 1));
  std::vector<RestartResult> restarts(params_.restarts);

  auto run_block = [&](std::size_t begin, std::size_t end,
                       std::size_t worker) {
    if (begin == end) return;
    if (engines[worker] == nullptr) {
      engines[worker] = std::make_unique<IncrementalEvaluator>(eval);
    }
    IncrementalEvaluator& inc = *engines[worker];
    for (std::size_t restart = begin; restart < end; ++restart) {
      if (allotment[restart] == 0) {
        restarts[restart].mapping = seed.mapping;
        restarts[restart].makespan = kInfeasible;  // never beats the seed
        continue;
      }
      inc.reset(seed.mapping);
      Rng rng(restart_seeds[restart]);
      switch (params_.variant) {
        case LocalSearchParams::Variant::kHillClimb:
          restarts[restart] = run_hillclimb(inc, devices, allotment[restart],
                                            rng, control);
          break;
        case LocalSearchParams::Variant::kAnneal:
          restarts[restart] = run_anneal(inc, devices, allotment[restart],
                                         params_.t0, params_.cooling, rng,
                                         control);
          break;
        case LocalSearchParams::Variant::kTabu:
          restarts[restart] = run_tabu(inc, devices, allotment[restart],
                                       params_.tenure, params_.candidates,
                                       rng, control);
          break;
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(params_.restarts, run_block);
  } else {
    run_block(0, params_.restarts, 0);
  }

  std::size_t applies = 0;
  std::size_t executed = 0;
  bool hit_cancel = false;
  bool hit_deadline = false;
  RestartResult* best = &restarts.front();
  for (RestartResult& r : restarts) {
    applies += r.applies;
    executed += r.executed;
    hit_cancel |= r.hit_cancel;
    hit_deadline |= r.hit_deadline;
    if (r.makespan < best->makespan) best = &r;
  }
  if (hit_cancel) {
    control.stop(TerminationReason::kCancelled);
  } else if (hit_deadline) {
    control.stop(TerminationReason::kDeadline);
  } else if (truncated) {
    control.stop(TerminationReason::kBudgetExhausted);
  }

  // The searched makespan is the breadth-first-order one; report the final
  // mapping through the evaluator's own metric (min over its prepared
  // orders) like every other mapper. The seed wins ties, so a local search
  // never reports a worse mapping than its init. The trajectory is the
  // seed incumbent followed by the winning restart's improvement sequence
  // (replayed here: parallel restarts must not interleave callbacks); a
  // final entry re-prices the returned mapping under the evaluator's own
  // metric so the last entry always equals the reported makespan.
  EvalContext ctx;
  const double searched = eval.evaluate(best->mapping, ctx);
  if (searched < seed.predicted_makespan) {
    report.mapping = best->mapping;
    report.predicted_makespan = searched;
    // Restart entries carry the BFS-order probe metric while the seed
    // entry carries the evaluator's reported (min-over-orders) metric;
    // keep only genuine improvements over the seed incumbent so the
    // trajectory stays a monotone best-makespan curve under either
    // metric. (The probe metric never under-prices the reported one, so
    // dropped entries were not improvements.)
    std::erase_if(best->trajectory, [&](const IncumbentRecord& r) {
      return r.makespan >= seed.predicted_makespan;
    });
    const double last_probed = best->trajectory.empty()
                                   ? seed.predicted_makespan
                                   : best->trajectory.back().makespan;
    // Same unit as the adopted entries: the winning restart's own probe
    // count, not the global sum over all restarts.
    const std::size_t last_probe = best->executed;
    control.adopt_trajectory(std::move(best->trajectory));
    if (searched != last_probed) {
      control.record_incumbent(searched, last_probe);
    }
  } else {
    report.mapping = std::move(seed.mapping);
    report.predicted_makespan = seed.predicted_makespan;
  }
  report.iterations = executed;
  // One apply re-prices a candidate: the incremental counterpart of one
  // single-schedule evaluation, plus the init's and the final full sweeps.
  report.evaluations = applies + seed.evaluations + ctx.evaluations();
  control.finalize(report);
  return report;
}

namespace {

/// Shared option-value validation; also run at scenario parse time through
/// MapperEntry::validate_values, so committed files fail eagerly.
void validate_local_search_values(const MapperOptions& options,
                                  bool anneal_opts, bool tabu_opts) {
  const std::int64_t iters = options.get_int("iters", 0);
  require(iters >= 0,
          "mapper option 'iters': must be >= 0 (0 derives 50 * tasks)");
  const std::int64_t restarts = options.get_int("restarts", 1);
  require(restarts >= 1, "mapper option 'restarts': must be >= 1");
  threads_option(options);  // validates threads >= 1
  if (options.has("seed")) {
    // Route through the shared helper so the parse-time diagnostic cannot
    // drift from the one create() raises (the rng is never drawn: the
    // option is present).
    Rng unused(0);
    seed_option(options, unused);
  }
  if (options.has("init")) {
    const std::string init = options.get("init", "");
    require(!init.empty(), "mapper option 'init': must name a mapper");
    // Resolve eagerly: unknown names and bad nested options throw here,
    // listing what the registry accepts.
    const auto [name, nested] = MapperRegistry::split_spec(init);
    MapperRegistry::instance().at(name).validate_options(
        MapperOptions::parse(nested));
  }
  if (anneal_opts) {
    const double t0 = options.get_double("t0", 0.0);
    require(t0 >= 0.0,
            "mapper option 't0': must be >= 0 (0 derives 5% of the seed "
            "makespan)");
    const double cooling = options.get_double("cooling", 0.9);
    require(cooling > 0.0 && cooling < 1.0,
            "mapper option 'cooling': must be in (0, 1)");
  }
  if (tabu_opts) {
    const std::int64_t tenure = options.get_int("tenure", 0);
    require(tenure >= 0,
            "mapper option 'tenure': must be >= 0 (0 derives max(8, "
            "tasks / 8))");
    const std::int64_t candidates = options.get_int("candidates", 16);
    require(candidates >= 1, "mapper option 'candidates': must be >= 1");
  }
}

MapperEntry make_local_search_entry(const char* name, const char* display,
                                    const char* description,
                                    LocalSearchParams::Variant variant) {
  const bool anneal_opts = variant == LocalSearchParams::Variant::kAnneal;
  const bool tabu_opts = variant == LocalSearchParams::Variant::kTabu;
  const LocalSearchParams defaults;
  MapperEntry entry;
  entry.name = name;
  entry.display_name = display;
  entry.description = description;
  entry.options = {
      {"init", defaults.init,
       "registry spec of the mapper that seeds the search"},
      {"iters", "0", "probes per restart; 0 derives 50 * tasks"},
      {"restarts", std::to_string(defaults.restarts),
       "independent searches; the best result wins"},
      {"seed", "", "search seed; unset draws from the construction rng"},
      {"threads", std::to_string(defaults.threads),
       "parallel-restart worker threads (results thread-count invariant)"},
  };
  if (anneal_opts) {
    entry.options.push_back(
        {"t0", "0",
         "initial temperature; 0 derives 5% of the seed makespan"});
    entry.options.push_back({"cooling", format_option_value(defaults.cooling),
                             "geometric cooling factor (100 steps)"});
  }
  if (tabu_opts) {
    entry.options.push_back(
        {"tenure", "0",
         "iterations a moved task stays tabu; 0 derives max(8, tasks/8)"});
    entry.options.push_back({"candidates",
                             std::to_string(defaults.candidates),
                             "probed reassignments per tabu iteration"});
  }
  entry.validate_values = [anneal_opts, tabu_opts](const MapperOptions& o) {
    validate_local_search_values(o, anneal_opts, tabu_opts);
  };
  entry.factory = [variant, anneal_opts, tabu_opts](const MapperContext& ctx) {
    // Values were already validated: MapperRegistry::create runs the
    // entry's validate_values hook before invoking the factory.
    LocalSearchParams params;
    params.variant = variant;
    params.init = ctx.options.get("init", params.init);
    params.iterations =
        static_cast<std::size_t>(ctx.options.get_int("iters", 0));
    params.restarts = static_cast<std::size_t>(
        ctx.options.get_int("restarts",
                            static_cast<std::int64_t>(params.restarts)));
    params.threads = threads_option(ctx.options);
    if (anneal_opts) {
      params.t0 = ctx.options.get_double("t0", params.t0);
      params.cooling = ctx.options.get_double("cooling", params.cooling);
    }
    if (tabu_opts) {
      params.tenure =
          static_cast<std::size_t>(ctx.options.get_int("tenure", 0));
      params.candidates = static_cast<std::size_t>(ctx.options.get_int(
          "candidates", static_cast<std::int64_t>(params.candidates)));
    }
    // Construct the seed mapper first, then draw the search seed, so the
    // construction-rng stream is consumed in a fixed documented order.
    std::unique_ptr<Mapper> init =
        MapperRegistry::instance().create(params.init, ctx.dag, ctx.rng);
    params.seed = seed_option(ctx.options, ctx.rng);
    return std::make_unique<LocalSearchMapper>(std::move(params),
                                               std::move(init));
  };
  return entry;
}

}  // namespace

void detail::register_local_search_mappers(MapperRegistry& registry) {
  registry.add(make_local_search_entry(
      "hillclimb", "HillClimb",
      "Randomized first-improvement hill climbing over single-task "
      "reassignments, priced by the incremental delta evaluator; refines "
      "any registered mapper via init=",
      LocalSearchParams::Variant::kHillClimb));
  registry.add(make_local_search_entry(
      "anneal", "SimAnneal",
      "Simulated annealing over single-task reassignments (Metropolis "
      "acceptance, geometric cooling), priced by the incremental delta "
      "evaluator; refines any registered mapper via init=",
      LocalSearchParams::Variant::kAnneal));
  registry.add(make_local_search_entry(
      "tabu", "TabuSearch",
      "Tabu search over single-task reassignments (candidate probes, "
      "task-level tabu tenure, aspiration), priced by the incremental "
      "delta evaluator; refines any registered mapper via init=",
      LocalSearchParams::Variant::kTabu));
}

}  // namespace spmap
