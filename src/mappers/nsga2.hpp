#pragma once
/// \file nsga2.hpp
/// Single-objective NSGA-II genetic algorithm (paper Section IV-A).
///
/// Configuration follows the paper: topologically sorted genome with one
/// gene (device) per task, single-point crossover at rate 0.9, per-gene
/// mutation rate 1/n, population 100, default 500 generations, and a repair
/// function that restores FPGA-area feasibility after variation. With a
/// single objective, NSGA-II's non-dominated sorting degenerates to elitist
/// (mu + lambda) truncation selection on fitness, which is what this
/// implementation performs.

#include <cstdint>
#include <vector>

#include "mappers/mapper.hpp"
#include "util/rng.hpp"

namespace spmap {

struct Nsga2Params {
  std::size_t population = 100;
  std::size_t generations = 500;
  double crossover_rate = 0.9;
  /// Per-gene mutation probability; <= 0 derives the paper's 1/n.
  double mutation_rate = 0.0;
  std::uint64_t seed = 0x6e5ca2;
  /// Binary tournament size for parent selection.
  std::size_t tournament = 2;
  /// Worker threads for fitness evaluation (Evaluator::evaluate_batch).
  /// Results are bit-identical for every thread count; 1 = serial.
  std::size_t threads = 1;
};

/// The genome both NSGA-IIs evolve (this mapper and MoNsga2Mapper): one
/// gene (device) per task, genes in breadth-first topological order so
/// that single-point crossover cuts the graph into a "front" and a "back"
/// part (the paper's "topologically sorted genome"). Every operator draws
/// from the caller's rng in a fixed order, so a run repeats from its seed.
class Genome {
 public:
  using Genes = std::vector<DeviceId>;

  Genome(const CostModel& cost, const Nsga2Params& params);

  /// Initial population member `i`: all on the default device for i == 0,
  /// uniformly random devices otherwise; repaired.
  Genes initial(std::size_t i, Rng& rng) const;

  /// A child of `a` and `b`: single-point crossover at the crossover rate,
  /// per-gene mutation, repair.
  Genes breed(const Genes& a, const Genes& b, Rng& rng) const;

  Mapping to_mapping(const Genes& genes) const;

  /// Parent selection: the best of `tournament` uniform draws from
  /// `population` under `better(a, b)` ("a beats b"); earlier draws win
  /// ties.
  template <class Individual, class Better>
  const Individual& tournament(const std::vector<Individual>& population,
                               Rng& rng, const Better& better) const {
    const Individual* best = &population[rng.below(population.size())];
    for (std::size_t t = 1; t < tournament_; ++t) {
      const Individual& challenger = population[rng.below(population.size())];
      if (better(challenger, *best)) best = &challenger;
    }
    return *best;
  }

 private:
  /// Moves the largest-area FPGA tasks back to the default device until
  /// every FPGA fits its budget.
  void repair(Genes& genes) const;

  const CostModel* cost_;
  std::vector<NodeId> gene_node_;  // gene position -> task
  double crossover_rate_;
  double mutation_rate_;  // the paper's 1/n unless set
  std::size_t tournament_;
};

class Nsga2Mapper final : public Mapper {
 public:
  explicit Nsga2Mapper(Nsga2Params params = {}) : params_(params) {}

  using Mapper::map;
  std::string name() const override { return "NSGAII"; }
  MapReport map(const Evaluator& eval, const MapRequest& request) override;

 private:
  Nsga2Params params_;
};

}  // namespace spmap
