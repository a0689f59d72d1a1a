#pragma once
/// \file decomposition_forest.hpp
/// Algorithm 1 of the paper: growing a forest of series-parallel
/// decomposition trees for a general DAG.
///
/// Starting from a virtual incoming edge (eps, s), a series operation is
/// grown along the graph. Where a node forks, a parallel operation is grown
/// by advancing a wavefront of active subtrees and merging subtrees that
/// reach the same end node. If the wavefront stalls (the graph is not
/// series-parallel), one active subtree is *cut*: it becomes its own tree in
/// the forest and the expected in-degree of its end node is reduced so the
/// remaining branches can proceed.
///
/// For a series-parallel input the result is a single decomposition tree and
/// `cuts == 0`; in general the forest covers every edge of the DAG exactly
/// once (cut trees plus the core tree).

#include <cstddef>

#include "graph/dag.hpp"
#include "sp/sp_tree.hpp"
#include "util/rng.hpp"

namespace spmap {

/// Strategy for choosing which wavefront subtree to cut when the wavefront
/// stalls (paper line 38: "Choose any Tc"). The paper notes a well-designed
/// heuristic may improve the mapping; scenarios/ablation_cut_policy.json
/// compares these.
enum class CutPolicy {
  Random,           ///< Paper default: uniformly random active subtree.
  SmallestSubtree,  ///< Cut the subtree with the fewest edges (lose least).
  LargestSubtree,   ///< Cut the subtree with the most edges.
  FirstActive,      ///< Deterministic: first subtree in wavefront order.
};

struct DecompositionResult {
  SpForest forest;        ///< Core tree last; cut subtrees in cut order.
  std::size_t cuts = 0;   ///< Number of cut operations performed.
  /// Edges that could not be attributed to any grown tree (each becomes a
  /// single-leaf root). Zero for well-formed inputs; tracked defensively.
  std::size_t orphan_edges = 0;
};

/// Runs Algorithm 1 on `dag`, which must have a unique source and a unique
/// sink (normalize_source_sink() first if needed). `rng` is only used by
/// CutPolicy::Random; pass any seeded generator.
DecompositionResult grow_decomposition_forest(
    const Dag& dag, Rng& rng, CutPolicy policy = CutPolicy::Random);

}  // namespace spmap
