#include "sched/evaluator.hpp"

#include <algorithm>

namespace spmap {

SweepTables::SweepTables(const CostModel& cost)
    : flat(cost.dag()), exec(cost.exec_data()) {
  const Platform& platform = cost.platform();
  const std::size_t m = platform.device_count();
  devices = m;
  slot_offset.resize(m + 1, 0);
  is_fpga.resize(m);
  fill.resize(m);
  for (std::size_t d = 0; d < m; ++d) {
    const Device& dev = platform.device(DeviceId(d));
    slot_offset[d + 1] = slot_offset[d] + std::max<std::size_t>(1, dev.slots);
    is_fpga[d] = dev.is_fpga() ? 1 : 0;
    fill[d] = dev.stream_fill_fraction;
  }
  latency.assign(m * m, 0.0);
  bandwidth.assign(m * m, 1.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      if (a == b) continue;
      latency[a * m + b] = platform.latency_s(DeviceId(a), DeviceId(b));
      bandwidth[a * m + b] = platform.bandwidth_gbps(DeviceId(a), DeviceId(b));
    }
  }
  // Hoist the constant /1000 unit conversion of the transfer formula out
  // of the sweep (same operation as the naive path, so still bit-exact).
  in_mb1000.resize(flat.edge_count());
  for (std::size_t k = 0; k < flat.edge_count(); ++k) {
    in_mb1000[k] = flat.in_data_mb_data()[k] / 1000.0;
  }
}

Evaluator::Evaluator(const CostModel& cost, EvalParams params)
    : cost_(&cost), tables_(cost) {
  const Dag& dag = cost.dag();
  orders_.push_back(bfs_order(dag));
  Rng rng(params.seed);
  for (std::size_t i = 0; i < params.random_orders; ++i) {
    orders_.push_back(random_topological_order(dag, rng));
  }
  plans_.reserve(orders_.size());
  for (const auto& order : orders_) plans_.push_back(build_plan(order));
}

WalkPlan Evaluator::build_plan(const std::vector<NodeId>& order) const {
  WalkPlan plan;
  plan.reserve(order.size());
  const auto m = static_cast<std::uint32_t>(tables_.devices);
  const FlatGraph& flat = tables_.flat;
  for (const NodeId v : order) {
    plan.push_back(PlanNode{v.v, v.v * m, flat.in_begin(v), flat.in_end(v)});
  }
  return plan;
}

void EvalContext::layout(std::size_t nodes, std::size_t slots,
                         std::size_t devices) {
  if (nodes_ == nodes && slots_ == slots && devices_ == devices) return;
  // Segment offsets round up to a cache line (8 doubles) so no two
  // segments share a line; see the class comment in evaluator.hpp.
  constexpr std::size_t kLineDoubles = 8;
  const auto pad = [](std::size_t x) {
    return (x + kLineDoubles - 1) / kLineDoubles * kLineDoubles;
  };
  nodes_ = nodes;
  slots_ = slots;
  devices_ = devices;
  finish_off_ = pad(nodes);
  slot_off_ = finish_off_ + pad(nodes);
  link_off_ = slot_off_ + pad(slots);
  // The per-evaluation reset zeroes slot_ready, the alignment gap and
  // link_ready in one contiguous fill; the gap doubles are never read.
  reset_len_ = link_off_ + devices - slot_off_;
  arena_.assign(link_off_ + devices, 0.0);
}

double Evaluator::evaluate_plan(const Mapping& mapping, const WalkPlan& plan,
                                EvalContext& ctx) const {
  ++ctx.evals_;
  ctx.layout(tables_.flat.node_count(), tables_.slot_count(), tables_.devices);
  std::fill_n(ctx.slot_ready(), ctx.reset_len_, 0.0);

  // The per-sweep arrays are captured in local non-aliasing pointers (the
  // kernel does the same for the tables), so the loop body stays in
  // registers.
  const DeviceId* __restrict map = mapping.device.data();
  double* __restrict start = ctx.start();
  double* __restrict finish = ctx.finish();
  double* __restrict link_ready = ctx.link_ready();
  const PlainTimes times{start, finish};
  const ArgminSlots slots{ctx.slot_ready(), tables_.slot_offset.data()};

  double makespan = 0.0;
  for (const PlanNode pn : plan) {
    const NodeTime nt = time_node(tables_, map, pn, link_ready, times, slots);
    start[pn.node] = nt.start;
    finish[pn.node] = nt.finish;
    makespan = std::max(makespan, nt.finish);
  }
  return makespan;
}

double Evaluator::evaluate(const Mapping& mapping, EvalContext& ctx) const {
  SPMAP_ASSERT(mapping.size() == tables_.flat.node_count());
  if (!cost_->area_feasible(mapping)) return kInfeasible;
  double best = kInfeasible;
  for (const WalkPlan& plan : plans_) {
    best = std::min(best, evaluate_plan(mapping, plan, ctx));
  }
  return best;
}

double Evaluator::evaluate_order(const Mapping& mapping,
                                 const std::vector<NodeId>& order,
                                 EvalContext& ctx) const {
  SPMAP_ASSERT(order.size() == tables_.flat.node_count());
  SPMAP_ASSERT(mapping.size() == tables_.flat.node_count());
  for (std::size_t i = 0; i < orders_.size(); ++i) {
    if (&orders_[i] == &order) return evaluate_plan(mapping, plans_[i], ctx);
  }
  return evaluate_plan(mapping, build_plan(order), ctx);
}

double Evaluator::evaluate(const Mapping& mapping) const {
  EvalContext ctx;
  return evaluate(mapping, ctx);
}

std::vector<double> Evaluator::evaluate_batch(std::span<const Mapping> mappings,
                                              EvalContext& ctx,
                                              ThreadPool* pool) const {
  std::vector<double> result(mappings.size());
  if (pool == nullptr || pool->thread_count() <= 1 || mappings.size() <= 1) {
    for (std::size_t i = 0; i < mappings.size(); ++i) {
      result[i] = evaluate(mappings[i], ctx);
    }
    return result;
  }
  // The caller runs as pool worker 0 and prices through `ctx`; worker w > 0
  // through child context w - 1.
  if (ctx.workers_.size() < pool->thread_count() - 1) {
    ctx.workers_.resize(pool->thread_count() - 1);
  }
  // Chunks of 8 dealt round-robin: small enough that a few expensive
  // mappings (e.g. large-makespan outliers on a skewed cohort) spread
  // across workers instead of serializing one block, large enough that
  // dispatch overhead stays negligible.
  //
  // False-sharing audit of `result`: a chunk of 8 doubles is exactly one
  // 64-byte cache line, so with chunked writes each worker owns whole
  // lines except possibly the two lines straddling the vector's start
  // and end (the allocator guarantees 16-byte alignment only). At most
  // two boundary lines per chunk transition can ping-pong, independent
  // of batch size — negligible next to the evaluation cost per item.
  constexpr std::size_t kBatchChunk = 8;
  pool->parallel_for_chunks(
      mappings.size(), kBatchChunk,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        EvalContext& scratch = worker == 0 ? ctx : ctx.workers_[worker - 1];
        for (std::size_t i = begin; i < end; ++i) {
          result[i] = evaluate(mappings[i], scratch);
        }
      });
  for (EvalContext& child : ctx.workers_) {
    ctx.evals_ += child.evals_;
    child.evals_ = 0;
  }
  return result;
}

Mapping Evaluator::default_mapping() const {
  return Mapping(cost_->dag().node_count(),
                 cost_->platform().default_device());
}

double Evaluator::default_mapping_makespan() const {
  return evaluate(default_mapping());
}

}  // namespace spmap
