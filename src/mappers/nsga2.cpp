#include "mappers/nsga2.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/algorithms.hpp"
#include "mappers/builtin_registrations.hpp"
#include "mappers/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spmap {

namespace {

using Genes = std::vector<DeviceId>;

/// An individual: genome + fitness.
struct Individual {
  Genes genes;
  double fitness = kInfeasible;
};

bool fitter(const Individual& a, const Individual& b) {
  return a.fitness < b.fitness;
}

/// The genome: one gene (device) per task, genes in breadth-first
/// topological order so that single-point crossover cuts the graph into a
/// "front" and a "back" part (the paper's "topologically sorted genome").
/// Every operator draws from the caller's rng in a fixed order, so a run
/// repeats from its seed.
class Genome {
 public:
  Genome(const CostModel& cost, const Nsga2Params& params);

  /// Initial population member `i`: all on the default device for i == 0,
  /// uniformly random devices otherwise; repaired.
  Genes initial(std::size_t i, Rng& rng) const;

  /// A child of `a` and `b`: single-point crossover at the crossover rate,
  /// per-gene mutation, repair.
  Genes breed(const Genes& a, const Genes& b, Rng& rng) const;

  Mapping to_mapping(const Genes& genes) const;

  /// Parent selection: the fittest of `tournament` uniform draws from
  /// `population`; earlier draws win ties.
  const Individual& tournament(const std::vector<Individual>& population,
                               Rng& rng) const {
    const Individual* best = &population[rng.below(population.size())];
    for (std::size_t t = 1; t < tournament_; ++t) {
      const Individual& challenger = population[rng.below(population.size())];
      if (fitter(challenger, *best)) best = &challenger;
    }
    return *best;
  }

 private:
  /// Moves the largest-area FPGA tasks back to the default device until
  /// every FPGA other than the default device fits its budget.
  void repair(Genes& genes) const;

  const CostModel* cost_;
  std::vector<NodeId> gene_node_;  // gene position -> task
  double crossover_rate_;
  double mutation_rate_;  // the paper's 1/n unless set
  std::size_t tournament_;
};

Genome::Genome(const CostModel& cost, const Nsga2Params& params)
    : cost_(&cost),
      gene_node_(bfs_order(cost.dag())),
      crossover_rate_(params.crossover_rate),
      mutation_rate_(params.mutation_rate > 0.0
                         ? params.mutation_rate
                         : 1.0 / static_cast<double>(std::max<std::size_t>(
                                     gene_node_.size(), 1))),
      tournament_(params.tournament) {}

Genes Genome::initial(std::size_t i, Rng& rng) const {
  const Platform& platform = cost_->platform();
  Genes genes(gene_node_.size());
  for (DeviceId& gene : genes) {
    gene = i == 0 ? platform.default_device()
                  : DeviceId(rng.below(platform.device_count()));
  }
  repair(genes);
  return genes;
}

Genes Genome::breed(const Genes& a, const Genes& b, Rng& rng) const {
  const std::size_t n = gene_node_.size();
  Genes child = a;
  if (rng.chance(crossover_rate_) && n > 1) {
    const std::size_t cut = 1 + rng.below(n - 1);
    for (std::size_t g = cut; g < n; ++g) child[g] = b[g];
  }
  for (DeviceId& gene : child) {
    if (rng.chance(mutation_rate_)) {
      gene = DeviceId(rng.below(cost_->platform().device_count()));
    }
  }
  repair(child);
  return child;
}

Mapping Genome::to_mapping(const Genes& genes) const {
  Mapping mp(genes.size(), cost_->platform().default_device());
  for (std::size_t g = 0; g < genes.size(); ++g) mp[gene_node_[g]] = genes[g];
  return mp;
}

void Genome::repair(Genes& genes) const {
  const Platform& platform = cost_->platform();
  const std::size_t n = genes.size();
  for (const DeviceId f : platform.fpga_devices()) {
    // Repair moves tasks onto the default device: an FPGA that is the
    // default device has nowhere to send them, so an overflow there stays
    // and the individual prices at kInfeasible.
    if (f == platform.default_device()) continue;
    const double budget = platform.device(f).area_budget;
    for (;;) {
      double used = 0.0;
      std::size_t worst = n;
      double worst_area = -1.0;
      for (std::size_t g = 0; g < n; ++g) {
        if (genes[g] != f) continue;
        const double a = cost_->area(gene_node_[g]);
        used += a;
        if (a > worst_area) {
          worst_area = a;
          worst = g;
        }
      }
      if (used <= budget || worst == n) break;
      genes[worst] = platform.default_device();
    }
  }
}

}  // namespace

MapReport Nsga2Mapper::map(const Evaluator& eval, const MapRequest& request) {
  RunControl control(request);
  const Genome genome(eval.cost(), params_);
  EvalContext ctx;
  Rng rng(request.seed.value_or(params_.seed));

  // Fitness of a whole cohort at once through the parallel batch API.
  // Evaluation consumes no rng state, so batching a cohort leaves the GA's
  // random stream — and hence its trajectory — identical to evaluating
  // each individual on the spot; the batch itself is bit-identical for
  // every thread count.
  const PoolLease lease(request, params_.threads);
  auto evaluate_cohort = [&](std::vector<Individual>& cohort) {
    std::vector<Mapping> mappings;
    mappings.reserve(cohort.size());
    for (const Individual& ind : cohort) {
      mappings.push_back(genome.to_mapping(ind.genes));
    }
    const std::vector<double> fitness =
        eval.evaluate_batch(mappings, ctx, lease.get());
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      cohort[i].fitness = fitness[i];
    }
  };

  std::vector<Individual> population(params_.population);
  for (std::size_t p = 0; p < population.size(); ++p) {
    population[p].genes = genome.initial(p, rng);
  }
  evaluate_cohort(population);

  // Incumbent tracking: the best fitness seen, recorded whenever it
  // improves so the trajectory explains the GA's anytime behaviour.
  double incumbent = kInfeasible;
  auto track_incumbent = [&](std::size_t generation) {
    double best = kInfeasible;
    for (const Individual& ind : population) {
      best = std::min(best, ind.fitness);
    }
    if (best < incumbent) {
      incumbent = best;
      control.record_incumbent(best, generation);
    }
  };
  track_incumbent(0);

  // Honest anytime loop: deadline/cancellation and the request budget are
  // checked between generations (one generation consumes `population`
  // evaluations), and the elitist population always holds the incumbent.
  std::vector<Individual> offspring;
  std::size_t generations_run = 0;
  for (std::size_t gen = 0; gen < params_.generations; ++gen) {
    if (control.should_stop(gen, ctx.evaluations())) {
      break;
    }
    offspring.clear();
    while (offspring.size() < params_.population) {
      const Individual& pa = genome.tournament(population, rng);
      const Individual& pb = genome.tournament(population, rng);
      offspring.push_back({genome.breed(pa.genes, pb.genes, rng)});
    }
    evaluate_cohort(offspring);
    // Elitist (mu + lambda) survival: best `population` of parents +
    // offspring (single-objective NSGA-II truncation).
    for (auto& child : offspring) population.push_back(std::move(child));
    std::stable_sort(population.begin(), population.end(), fitter);
    population.resize(params_.population);
    ++generations_run;
    track_incumbent(generations_run);
  }

  // Scan instead of relying on sort order: a zero-generation run (budget
  // already exhausted) leaves the initial population unsorted.
  const Individual* best = &population.front();
  for (const Individual& ind : population) {
    if (ind.fitness < best->fitness) best = &ind;
  }
  MapReport report;
  report.mapping = genome.to_mapping(best->genes);
  report.predicted_makespan = best->fitness;
  report.iterations = generations_run;
  report.evaluations = ctx.evaluations();
  control.finalize(report);
  return report;
}

void detail::register_nsga2_mapper(MapperRegistry& registry) {
  MapperEntry entry;
  entry.name = "nsga";
  entry.display_name = "NSGAII";
  entry.description =
      "Single-objective NSGA-II genetic algorithm (Section IV-A): "
      "topological genome, elitist (mu+lambda) truncation selection";
  const Nsga2Params defaults;
  entry.options = {
      {"generations", std::to_string(defaults.generations),
       "number of generations"},
      {"pop", std::to_string(defaults.population), "population size"},
      {"crossover", format_option_value(defaults.crossover_rate),
       "single-point crossover rate"},
      {"mutation", format_option_value(defaults.mutation_rate),
       "per-gene mutation rate; 0 derives the paper's 1/n"},
      {"tournament", std::to_string(defaults.tournament),
       "parent-selection tournament size"},
      {"seed", "", "GA seed; unset draws from the construction rng"},
      {"threads", std::to_string(defaults.threads),
       "fitness-evaluation worker threads (results thread-count invariant)"},
  };
  entry.factory = [](const MapperContext& ctx) {
    Nsga2Params params;
    const std::int64_t generations =
        ctx.options.get_int("generations",
                            static_cast<std::int64_t>(params.generations));
    require(generations > 0, "mapper option 'generations': must be > 0");
    params.generations = static_cast<std::size_t>(generations);
    const std::int64_t pop = ctx.options.get_int(
        "pop", static_cast<std::int64_t>(params.population));
    require(pop >= 2, "mapper option 'pop': must be >= 2");
    params.population = static_cast<std::size_t>(pop);
    params.crossover_rate =
        ctx.options.get_double("crossover", params.crossover_rate);
    require(params.crossover_rate >= 0.0 && params.crossover_rate <= 1.0,
            "mapper option 'crossover': must be in [0, 1]");
    params.mutation_rate =
        ctx.options.get_double("mutation", params.mutation_rate);
    require(params.mutation_rate >= 0.0 && params.mutation_rate <= 1.0,
            "mapper option 'mutation': must be in [0, 1] (0 derives 1/n)");
    const std::int64_t tournament = ctx.options.get_int(
        "tournament", static_cast<std::int64_t>(params.tournament));
    require(tournament >= 1, "mapper option 'tournament': must be >= 1");
    params.tournament = static_cast<std::size_t>(tournament);
    params.seed = seed_option(ctx.options, ctx.rng);
    params.threads = threads_option(ctx.options);
    return std::make_unique<Nsga2Mapper>(params);
  };
  registry.add(std::move(entry));
}

}  // namespace spmap
