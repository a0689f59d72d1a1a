#pragma once
/// \file local_search.hpp
/// Local-search mapper family on the incremental delta-evaluation engine.
///
/// The standard refinement pass of the list-scheduling literature: seed a
/// mapping with any registered base mapper (`init=`), then walk the
/// single-task-reassignment neighborhood. Three acceptance strategies:
///
///  * `hillclimb` — randomized first-improvement hill climbing: apply a
///    random reassignment, keep it iff it strictly improves the makespan.
///  * `anneal`    — simulated annealing: worsening moves are accepted with
///    Metropolis probability exp(-delta/T) under a geometric cooling
///    schedule (100 cooling steps from t0 down).
///  * `tabu`      — tabu search: each iteration probes a candidate set of
///    reassignments, takes the best non-tabu one (even if worsening),
///    and tabus the moved task for `tenure` iterations; aspiration admits
///    tabu moves that beat the best mapping seen.
///
/// Every probe goes through an IncrementalEvaluator bound to the
/// evaluator's breadth-first schedule order, so a candidate costs
/// O(affected suffix) instead of a full O(V + E) sweep. `probe` prices a
/// candidate without touching the committed state; only accepted moves
/// are applied. hillclimb passes its best makespan as the probe cutoff,
/// tabu the round's best candidate (for a tabu move, at most the
/// incumbent), anneal none (Metropolis needs the exact delta); results are
/// exact probes' results, and a stopped probe still counts once.
///
/// `restarts=` independent searches (distinct rng streams, same seed
/// mapping) run on a ThreadPool via the static partition; the reported
/// result is the best restart by (makespan, restart index), so results are
/// bit-identical for every `threads=` value.

#include <cstdint>
#include <memory>
#include <string>

#include "mappers/mapper.hpp"

namespace spmap {

struct LocalSearchParams {
  enum class Variant { kHillClimb, kAnneal, kTabu };
  Variant variant = Variant::kHillClimb;
  /// Registry spec of the mapper that produces the seed mapping.
  std::string init = "heft";
  /// Probe budget per restart; 0 derives 50 * tasks.
  std::size_t iterations = 0;
  /// Independent searches; the best result wins.
  std::size_t restarts = 1;
  std::uint64_t seed = 0x10ca15ea;
  /// Worker threads for parallel restarts (thread-count invariant).
  std::size_t threads = 1;
  // ---- anneal ----
  /// Initial temperature; 0 derives 5% of the seed makespan.
  double t0 = 0.0;
  /// Per-step factor of the geometric cooling schedule (100 steps).
  double cooling = 0.9;
  // ---- tabu ----
  /// Iterations a moved task stays tabu; 0 derives max(8, tasks / 8).
  std::size_t tenure = 0;
  /// Probed candidate reassignments per tabu iteration.
  std::size_t candidates = 16;
};

class LocalSearchMapper final : public Mapper {
 public:
  /// `init_mapper` produces the seed mapping (consumed by every restart).
  LocalSearchMapper(LocalSearchParams params,
                    std::unique_ptr<Mapper> init_mapper);

  using Mapper::map;
  std::string name() const override;
  MapReport map(const Evaluator& eval, const MapRequest& request) override;

 private:
  LocalSearchParams params_;
  std::unique_ptr<Mapper> init_;
};

}  // namespace spmap
