#pragma once
/// \file problem_hash.hpp
/// Canonical content hashes of mapping-problem inputs (task graph,
/// platform) — the domain layer under the result cache's keys.
///
/// `task_graph_hash` is the identity of the *computation*. It covers the
/// model content (attrs, edges, payloads) in node-id order, because mapper
/// runs are id-order sensitive: the breadth-first schedule order breaks
/// level ties by node id, so two insertion orders of "the same" graph are
/// genuinely different computations with different (equally valid)
/// results. The memo of MapReports keys on this hash — it is what makes a
/// cache hit provably bit-identical to recomputation. Invariant under JSON
/// key order and save/load round-trips (hashes the parsed structure, and
/// numbers round-trip by bit pattern); sensitive to node insertion order.
///
/// Node labels are cosmetic (never read by the cost model) and excluded
/// from the hash, as are device names on the platform side.
///
/// All hashes require validated inputs (acyclic graph, fully-linked
/// platform) — the same precondition every evaluator shares.

#include "graph/io.hpp"
#include "model/platform.hpp"
#include "util/content_hash.hpp"

namespace spmap {

/// Exact (labeled) content hash of a task graph: node attrs in id order,
/// in-edges per node in adjacency order with payloads. The cache-key
/// identity; see the file comment for why it must be id-order sensitive.
Digest task_graph_hash(const TaskGraph& graph);

/// Content hash of a platform: per-device model fields in device-index
/// order (mappings reference device indices, so index order is data, not
/// presentation) plus the full link matrix. Device names excluded.
Digest platform_hash(const Platform& platform);

}  // namespace spmap
