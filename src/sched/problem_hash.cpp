#include "sched/problem_hash.hpp"

namespace spmap {

namespace {

ContentHasher node_attrs_hasher(const TaskAttrs& attrs, std::size_t v) {
  ContentHasher h("spmap-task/1");
  h.f64(attrs.complexity[v])
      .f64(attrs.parallelizability[v])
      .f64(attrs.streamability[v])
      .f64(attrs.area[v]);
  return h;
}

}  // namespace

Digest task_graph_hash(const TaskGraph& graph) {
  const Dag& dag = graph.dag;
  ContentHasher h("spmap-task-graph-exact/1");
  h.u64(dag.node_count()).u64(dag.edge_count());
  for (std::size_t v = 0; v < dag.node_count(); ++v) {
    h.digest(node_attrs_hasher(graph.attrs, v).digest());
    // In-edges in adjacency order: (source id, payload). Together with
    // the per-node iteration this covers every edge exactly once, in the
    // order the evaluator's flat walk sees it.
    const NodeId node{static_cast<std::uint32_t>(v)};
    h.u64(dag.in_degree(node));
    for (EdgeId e : dag.in_edges(node)) {
      h.u64(dag.src(e).v).f64(dag.data_mb(e));
    }
  }
  return h.digest();
}

Digest platform_hash(const Platform& platform) {
  ContentHasher h("spmap-platform/1");
  const std::size_t n = platform.device_count();
  h.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Device& d = platform.device(DeviceId{static_cast<std::uint32_t>(i)});
    h.u64(static_cast<std::uint64_t>(d.kind))
        .f64(d.lanes)
        .f64(d.lane_gops)
        .u64(d.slots)
        .f64(d.area_budget)
        .f64(d.stream_gops_per_streamability)
        .f64(d.stream_fill_fraction);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const DeviceId from{static_cast<std::uint32_t>(i)};
      const DeviceId to{static_cast<std::uint32_t>(j)};
      h.f64(platform.bandwidth_gbps(from, to)).f64(platform.latency_s(from, to));
    }
  }
  return h.digest();
}

}  // namespace spmap
