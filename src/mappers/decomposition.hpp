#pragma once
/// \file decomposition.hpp
/// Decomposition-based task mapping (paper Section III).
///
/// The mapper starts from the default (all-CPU) mapping and greedily
/// re-maps candidate subgraphs to other devices, accepting a change only
/// after a full model-based re-evaluation shows it reduces the makespan
/// (Section III-A). The candidate family is a SubgraphSet: all singletons
/// for single-node decomposition (III-B) or the operations of a
/// series-parallel decomposition forest (III-C).
///
/// Two search variants (Section III-D):
///  * Basic      — every iteration evaluates every (subgraph, device)
///                 operation and applies the best improvement;
///  * Threshold  — operations are prioritized by their expected improvement
///                 in an updatable heap; once an improvement `imp` is found,
///                 only operations whose expected improvement exceeds
///                 `imp / gamma` are still re-evaluated in this iteration.
///                 gamma == 1 is the FirstFit heuristic. When an iteration
///                 finds nothing, every operation is recomputed once more
///                 before the algorithm terminates.
///
/// Both variants never return a mapping worse than the default one.
/// Full-frontier scans price candidates through Evaluator::evaluate_moves:
/// each costs the sweep from its first moved task on, bit-identical to a
/// full re-evaluation; deadline and cancellation are polled per chunk.
/// The basic variant passes its incumbent as the cutoff, so a candidate
/// that cannot beat it may stop early (it could never be accepted).

#include "mappers/mapper.hpp"
#include "sp/subgraph_set.hpp"

namespace spmap {

enum class DecompositionVariant { Basic, Threshold };

struct DecompositionParams {
  DecompositionVariant variant = DecompositionVariant::Basic;
  /// Threshold look-ahead divisor; 1.0 == FirstFit (Section III-D).
  double gamma = 1.0;
  /// Cap on improvement iterations; 0 derives the paper's suggestion of one
  /// iteration per task (times a small safety factor).
  std::size_t max_iterations = 0;
  /// Worker threads for the full-frontier candidate scans (basic variant
  /// iterations; the threshold variant's initial fill and verification
  /// sweep), which split each Evaluator::evaluate_moves call — results are
  /// bit-identical for every thread count; 1 = serial.
  std::size_t threads = 1;
};

class DecompositionMapper final : public Mapper {
 public:
  DecompositionMapper(std::string name, SubgraphSet subgraphs,
                      DecompositionParams params = {});

  using Mapper::map;
  std::string name() const override { return name_; }
  MapReport map(const Evaluator& eval, const MapRequest& request) override;

  const SubgraphSet& subgraphs() const { return subgraphs_; }

 private:
  struct Search;  // one run's state (decomposition.cpp)
  /// The two variants; each returns whether the search converged.
  bool search_basic(Search& s) const;
  bool search_threshold(Search& s) const;

  std::string name_;
  SubgraphSet subgraphs_;
  DecompositionParams params_;
};

}  // namespace spmap
