#pragma once
/// \file nsga2.hpp
/// Single-objective NSGA-II genetic algorithm (paper Section IV-A).
///
/// Configuration follows the paper: topologically sorted genome with one
/// gene (device) per task, single-point crossover at rate 0.9, per-gene
/// mutation rate 1/n, population 100, default 500 generations, and a repair
/// function that restores FPGA-area feasibility after variation by moving
/// tasks to the default device (when that device is itself an overflowing
/// FPGA, the individual stays infeasible and prices at `kInfeasible`).
/// With a single objective, NSGA-II's non-dominated sorting degenerates to
/// elitist (mu + lambda) truncation selection on fitness, which is what
/// this implementation performs.

#include <cstdint>

#include "mappers/mapper.hpp"

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
