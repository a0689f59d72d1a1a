#include "mappers/multi_objective.hpp"

#include <algorithm>
#include <limits>

namespace spmap {

bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
  const bool no_worse = a.makespan <= b.makespan && a.energy <= b.energy;
  const bool better = a.makespan < b.makespan || a.energy < b.energy;
  return no_worse && better;
}

std::vector<ParetoPoint> pareto_filter(std::vector<ParetoPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.makespan != b.makespan) return a.makespan < b.makespan;
              return a.energy < b.energy;
            });
  std::vector<ParetoPoint> front;
  double best_energy = std::numeric_limits<double>::infinity();
  for (auto& p : points) {
    if (p.energy < best_energy) {
      if (!front.empty() && front.back().makespan == p.makespan &&
          front.back().energy == p.energy) {
        continue;  // exact duplicate
      }
      best_energy = p.energy;
      front.push_back(std::move(p));
    }
  }
  return front;
}

namespace {

struct MoIndividual {
  Genome::Genes genes;
  double makespan = kInfeasible;
  double energy = kInfeasible;
  int rank = 0;
  double crowding = 0.0;
};

/// Deb et al.'s fast non-dominated sorting; assigns ranks (0 = best front).
void non_dominated_sort(std::vector<MoIndividual>& pop) {
  const std::size_t n = pop.size();
  std::vector<std::vector<std::size_t>> dominated(n);
  std::vector<int> domination_count(n, 0);
  auto dom = [&](const MoIndividual& a, const MoIndividual& b) {
    const bool no_worse = a.makespan <= b.makespan && a.energy <= b.energy;
    const bool better = a.makespan < b.makespan || a.energy < b.energy;
    return no_worse && better;
  };
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (dom(pop[i], pop[j])) {
        dominated[i].push_back(j);
      } else if (dom(pop[j], pop[i])) {
        ++domination_count[i];
      }
    }
    if (domination_count[i] == 0) {
      pop[i].rank = 0;
      current.push_back(i);
    }
  }
  int rank = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t i : current) {
      for (const std::size_t j : dominated[i]) {
        if (--domination_count[j] == 0) {
          pop[j].rank = rank + 1;
          next.push_back(j);
        }
      }
    }
    ++rank;
    current = std::move(next);
  }
}

/// Crowding distance within each front (boundary points get infinity).
void assign_crowding(std::vector<MoIndividual>& pop) {
  for (auto& ind : pop) ind.crowding = 0.0;
  std::vector<std::size_t> idx(pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) idx[i] = i;
  // Group by rank.
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return pop[a].rank < pop[b].rank;
  });
  std::size_t begin = 0;
  while (begin < idx.size()) {
    std::size_t end = begin;
    while (end < idx.size() && pop[idx[end]].rank == pop[idx[begin]].rank) {
      ++end;
    }
    for (const bool by_makespan : {true, false}) {
      std::sort(idx.begin() + begin, idx.begin() + end,
                [&](std::size_t a, std::size_t b) {
                  return by_makespan ? pop[a].makespan < pop[b].makespan
                                     : pop[a].energy < pop[b].energy;
                });
      auto value = [&](std::size_t k) {
        return by_makespan ? pop[idx[k]].makespan : pop[idx[k]].energy;
      };
      const double span = value(end - 1) - value(begin);
      pop[idx[begin]].crowding = kInfeasible;
      pop[idx[end - 1]].crowding = kInfeasible;
      if (span <= 0.0) continue;
      for (std::size_t k = begin + 1; k + 1 < end; ++k) {
        pop[idx[k]].crowding += (value(k + 1) - value(k - 1)) / span;
      }
    }
    begin = end;
  }
}

/// (rank, crowding) ordering: lower rank, then larger crowding.
bool nsga_less(const MoIndividual& a, const MoIndividual& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.crowding > b.crowding;
}

}  // namespace

std::vector<ParetoPoint> MoNsga2Mapper::optimize(const Evaluator& eval) const {
  const CostModel& cost = eval.cost();
  const Genome genome(cost, params_);
  Rng rng(params_.seed);

  EvalContext ctx;
  auto evaluate = [&](MoIndividual& ind) {
    const Mapping mp = genome.to_mapping(ind.genes);
    ind.makespan = eval.evaluate(mp, ctx);
    ind.energy = mapping_energy_joules(cost, mp, ind.makespan);
  };

  std::vector<MoIndividual> pop(params_.population);
  for (std::size_t p = 0; p < pop.size(); ++p) {
    pop[p].genes = genome.initial(p, rng);
    evaluate(pop[p]);
  }
  non_dominated_sort(pop);
  assign_crowding(pop);

  for (std::size_t gen = 0; gen < params_.generations; ++gen) {
    std::vector<MoIndividual> offspring;
    while (offspring.size() < params_.population) {
      const MoIndividual& pa = genome.tournament(pop, rng, nsga_less);
      const MoIndividual& pb = genome.tournament(pop, rng, nsga_less);
      MoIndividual child;
      child.genes = genome.breed(pa.genes, pb.genes, rng);
      evaluate(child);
      offspring.push_back(std::move(child));
    }
    for (auto& child : offspring) pop.push_back(std::move(child));
    non_dominated_sort(pop);
    assign_crowding(pop);
    std::stable_sort(pop.begin(), pop.end(), nsga_less);
    pop.resize(params_.population);
  }

  std::vector<ParetoPoint> points;
  for (const MoIndividual& ind : pop) {
    if (ind.rank != 0) continue;
    points.push_back(
        ParetoPoint{genome.to_mapping(ind.genes), ind.makespan, ind.energy});
  }
  return pareto_filter(std::move(points));
}

std::vector<ParetoPoint> decomposition_pareto_sweep(
    const Evaluator& eval, const Dag& dag, Rng& rng,
    const std::vector<double>& weights) {
  require(!weights.empty(), "decomposition_pareto_sweep: no weights");
  const CostModel& cost = eval.cost();
  const Mapping base = eval.default_mapping();
  const double ms0 = eval.evaluate(base);
  const double e0 = mapping_energy_joules(cost, base, ms0);
  require(ms0 > 0.0 && e0 > 0.0,
          "decomposition_pareto_sweep: degenerate baseline");

  std::vector<ParetoPoint> points;
  for (const double w : weights) {
    DecompositionParams params;
    params.variant = DecompositionVariant::Threshold;
    params.gamma = 1.0;
    params.objective = [w, ms0, e0](const Evaluator& ev, const Mapping& m,
                                    EvalContext& ctx) {
      const double ms = ev.evaluate(m, ctx);
      if (ms >= kInfeasible) return kInfeasible;
      const double energy = mapping_energy_joules(ev.cost(), m, ms);
      return w * ms / ms0 + (1.0 - w) * energy / e0;
    };
    DecompositionMapper mapper("SPFirstFit-scalarized",
                               series_parallel_subgraphs(dag, rng), params);
    const MapperResult r = mapper.map(eval);
    const double ms = eval.evaluate(r.mapping);
    points.push_back(ParetoPoint{
        r.mapping, ms, mapping_energy_joules(cost, r.mapping, ms)});
  }
  return pareto_filter(std::move(points));
}

}  // namespace spmap
