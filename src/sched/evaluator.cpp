#include "sched/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace spmap {

namespace {

/// Lower bound on makespan - start(v) for task v on its device under
/// `map`, from its consumers' tails (so valid while no descendant of v
/// moves): the longer of v's run and, over its out-edges, the least the
/// consumer can start after v (a stream's fill share of v's run on a
/// shared FPGA, v's run on any other shared device, v's run plus the bare
/// transfer across devices; link waits only add to it) plus its tail.
double tail_of(const SweepTables& t, const DeviceId* map, std::uint32_t v,
               const double* tail) {
  const std::size_t m = t.devices;
  const std::uint32_t d = map[v].v;
  const double exec = t.exec[v * m + d];
  const double shared = t.is_fpga[d] != 0 ? t.fill[d] * exec : exec;
  double bound = exec;
  for (std::uint32_t k = t.flat.out_begin(NodeId(v));
       k < t.flat.out_end(NodeId(v)); ++k) {
    const std::uint32_t c = t.flat.out_dst(k);
    const std::size_t li = d * m + map[c].v;
    const double lead =
        map[c].v == d
            ? shared
            : exec + (t.latency[li] +
                      t.flat.out_data_mb(k) / 1000.0 / t.bandwidth[li]);
    bound = std::max(bound, lead + tail[c]);
  }
  return bound;
}

}  // namespace

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
  moved_off_ = pad(link_off_ + devices);
  arena_.assign(moved_off_ + reset_len_, 0.0);
}

double Evaluator::evaluate_plan(const Mapping& mapping, const WalkPlan& plan,
                                EvalContext& ctx) const {
  ++ctx.evals_;
  ctx.layout(tables_.flat.node_count(), tables_.slot_count(), tables_.devices);
  std::fill_n(ctx.slot_ready(), ctx.reset_len_, 0.0);
  return sweep(tables_, mapping.device.data(), plan.data(),
               plan.data() + plan.size(), ctx.start(), ctx.finish(),
               ctx.slot_ready(), ctx.link_ready(), 0.0);
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

std::span<const double> Evaluator::evaluate_moves(const Mapping& base,
                                                  std::span<const Move> moves,
                                                  EvalContext& ctx,
                                                  ThreadPool* pool,
                                                  double cutoff) const {
  const std::size_t n = tables_.flat.node_count();
  const std::size_t m = tables_.devices;
  SPMAP_ASSERT(base.size() == n && moves.size() <= 0xffffffffu);
  ctx.makespans_.assign(moves.size(), kInfeasible);

  // Area verdicts in O(|move|): the base's exact per-device sums plus the
  // move's delta, resynced near the budget by CostModel::area_in_use.
  ctx.base_area_.resize(m);
  ctx.area_delta_.assign(m, 0.0);
  for (std::size_t d = 0; d < m; ++d) {
    ctx.base_area_[d] = cost_->mapped_area(base, DeviceId(d));
  }
  ctx.moved_ = base;
  ctx.feasible_.clear();
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const DeviceId to = moves[i].device;
    for (const NodeId v : moves[i].nodes) {
      const DeviceId from = std::exchange(ctx.moved_[v], to);
      if (from == to) continue;
      ctx.area_delta_[from.v] -= cost_->area(v);
      ctx.area_delta_[to.v] += cost_->area(v);
    }
    bool fits = true;
    for (std::size_t d = 0; d < m; ++d) {
      const double delta = std::exchange(ctx.area_delta_[d], 0.0);
      fits = fits && (delta == 0.0 ? ctx.base_area_[d]
                                   : cost_->area_in_use(
                                         ctx.moved_, DeviceId(d),
                                         ctx.base_area_[d] + delta)) <=
                         cost_->area_budget(DeviceId(d));
    }
    for (const NodeId v : moves[i].nodes) ctx.moved_[v] = base[v];
    if (fits) ctx.feasible_.push_back(static_cast<std::uint32_t>(i));
  }
  ctx.evals_ += ctx.feasible_.size() * plans_.size();
  if (ctx.feasible_.empty()) return ctx.makespans_;

  // Every order's tails are the same: one reverse topological pass.
  const bool stops = cutoff < kInfeasible;
  if (stops) {
    ctx.tail_.resize(n);
    for (auto it = plans_[0].rbegin(); it != plans_[0].rend(); ++it) {
      ctx.tail_[it->node] =
          tail_of(tables_, base.device.data(), it->node, ctx.tail_.data());
    }
  }
  const double limit = cutoff + std::abs(cutoff) * 1e-9;

  const std::size_t workers = pool == nullptr ? 1 : pool->thread_count();
  if (ctx.workers_.size() + 1 < workers) ctx.workers_.resize(workers - 1);
  ctx.pos_.resize(n);
  ctx.last_.resize(moves.size());
  for (const WalkPlan& plan : plans_) {
    for (std::size_t p = 0; p < n; ++p) ctx.pos_[plan[p].node] = p;
    // Each feasible move as p0 << 32 | move, p0 the first walk position
    // whose device it changes (n when it changes none), sorted by p0; the
    // last such position is its pl.
    ctx.queue_.clear();
    for (const std::uint32_t i : ctx.feasible_) {
      std::uint64_t p0 = n, pl = 0;
      for (const NodeId v : moves[i].nodes) {
        if (base[v] == moves[i].device) continue;
        p0 = std::min(p0, ctx.pos_[v.v]);
        pl = std::max(pl, ctx.pos_[v.v]);
      }
      ctx.queue_.push_back(p0 << 32 | i);
      ctx.last_[i] = static_cast<std::uint32_t>(pl);
    }
    std::sort(ctx.queue_.begin(), ctx.queue_.end());

    // Prices every `stride`-th queue entry from `first` on one cursor
    // sweep of `base` through `c`. Invariant: c's start/finish hold base's
    // times below the cursor (a suffix sweep writes only positions >= its
    // p0, which the cursor recomputes before a later move reads them).
    const auto price = [&]<bool kStops>(std::size_t first, std::size_t stride,
                                        EvalContext& c,
                                        TailStop<kStops> stop) {
      c.layout(n, tables_.slot_count(), m);
      std::fill_n(c.slot_ready(), c.reset_len_, 0.0);
      c.moved_ = base;
      const PlanNode* walk = plan.data();
      std::size_t cursor = 0;
      double cursor_max = 0.0;
      for (std::size_t k = first; k < ctx.queue_.size(); k += stride) {
        const std::size_t p0 = ctx.queue_[k] >> 32;
        const std::uint32_t i = ctx.queue_[k] & 0xffffffffu;
        const Move& move = moves[i];
        cursor_max = sweep(tables_, base.device.data(), walk + cursor,
                           walk + p0, c.start(), c.finish(), c.slot_ready(),
                           c.link_ready(), cursor_max);
        cursor = p0;
        double makespan = cursor_max;
        if (p0 < n) {
          // The suffix sweeps a copy of the cursor's slot and link state:
          // p0..pl exactly, then past pl, where no task and no descendant
          // moved, under `stop`.
          double* slot = c.arena_.data() + c.moved_off_;
          double* link = slot + (c.link_off_ - c.slot_off_);
          std::copy_n(c.slot_ready(), c.reset_len_, slot);
          for (const NodeId v : move.nodes) c.moved_[v] = move.device;
          const DeviceId* map = c.moved_.device.data();
          const PlanNode* pl = walk + ctx.last_[i];
          makespan = sweep(tables_, map, walk + p0, pl + 1, c.start(),
                           c.finish(), slot, link, cursor_max);
          double bound = 0.0;  // the moved task's, on its new device
          if constexpr (kStops) {
            bound = c.start()[pl->node] +
                    tail_of(tables_, map, pl->node, stop.tail);
          }
          makespan = bound > stop.limit
                         ? bound
                         : sweep(tables_, map, pl + 1, walk + n, c.start(),
                                 c.finish(), slot, link, makespan, stop);
          for (const NodeId v : move.nodes) c.moved_[v] = base[v];
        }
        double& out = ctx.makespans_[i];
        out = std::min(out, makespan);
      }
    };
    // Worker w takes every workers-th move from the w-th: about an equal
    // share of suffix work. A move's value depends only on `base`, its p0
    // and pl and the cutoff, so no split changes a result.
    const auto price_all = [&](auto stop) {
      if (workers == 1) return price(0, 1, ctx, stop);
      pool->parallel_for(workers, [&](std::size_t begin, std::size_t end,
                                      std::size_t worker) {
        EvalContext& c = worker == 0 ? ctx : ctx.workers_[worker - 1];
        for (std::size_t w = begin; w < end; ++w) price(w, workers, c, stop);
      });
    };
    if (stops) {
      price_all(TailStop<true>{ctx.tail_.data(), limit});
    } else {
      price_all(TailStop<false>{});
    }
  }
  return ctx.makespans_;
}

Mapping Evaluator::default_mapping() const {
  return Mapping(cost_->dag().node_count(),
                 cost_->platform().default_device());
}

double Evaluator::default_mapping_makespan() const {
  return evaluate(default_mapping());
}

}  // namespace spmap
