#include "sched/incremental_evaluator.hpp"

#include <algorithm>
#include <cstring>

namespace spmap {

IncrementalEvaluator::IncrementalEvaluator(const Evaluator& eval,
                                           std::size_t order_index)
    : eval_(&eval), order_index_(order_index), t_(&eval.tables()) {
  require(order_index < eval.orders().size(),
          "IncrementalEvaluator: order index out of range");
  plan_ = &eval.plan(order_index);
  const FlatGraph& flat = t_->flat;
  n_ = flat.node_count();
  m_ = t_->devices;
  s_total_ = t_->slot_count();

  const std::vector<NodeId>& ord = eval.orders()[order_index];
  pos_.resize(n_);
  for (std::size_t p = 0; p < n_; ++p) {
    pos_[ord[p].v] = static_cast<std::uint32_t>(p);
  }
  // The last walk position that reads a node's mapping or times: the
  // farthest consumer (the node itself if it has none). Dirty influence
  // cannot reach past this position.
  last_consumer_pos_.resize(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    std::uint32_t last = pos_[v];
    for (std::uint32_t k = flat.out_begin(NodeId(v));
         k < flat.out_end(NodeId(v)); ++k) {
      last = std::max(last, pos_[flat.out_dst(k)]);
    }
    last_consumer_pos_[v] = last;
  }
  // Out-CSR slot -> in-CSR slot of the same Dag edge, so a node's out-edges
  // can reach the per-in-edge transfer records.
  {
    std::vector<std::uint32_t> in_slot_of_edge(flat.edge_count());
    for (std::uint32_t k = 0; k < flat.edge_count(); ++k) {
      in_slot_of_edge[flat.in_edge(k).v] = k;
    }
    out_in_slot_.resize(flat.edge_count());
    for (std::uint32_t j = 0; j < flat.edge_count(); ++j) {
      out_in_slot_[j] = in_slot_of_edge[flat.out_edge(j).v];
    }
  }

  const Platform& platform = eval.cost().platform();
  budget_.assign(m_, 0.0);
  for (std::size_t d = 0; d < m_; ++d) {
    if (t_->is_fpga[d]) {
      budget_[d] =
          platform.device(DeviceId(static_cast<std::uint32_t>(d))).area_budget;
    }
  }

  blocks_ = n_ == 0 ? 0 : (n_ - 1) / kStride + 1;
  start_.resize(n_);
  finish_.resize(n_);
  streamed_.resize(n_);
  edge_xfer_.resize(flat.edge_count());
  edge_arrival_.resize(flat.edge_count());
  prefix_max_.resize(n_);
  checkpoints_.resize(blocks_ * (s_total_ + m_));
  block_slot_uses_.assign(blocks_ * m_, 0);
  block_link_uses_.assign(blocks_ * m_, 0);
  total_slot_uses_.assign(m_, 0);
  total_link_uses_.assign(m_, 0);
  area_used_.assign(m_, 0.0);

  cur_slot_.resize(s_total_);
  cur_link_.resize(m_);
  base_slot_.resize(s_total_);
  base_link_.resize(m_);
  slot_differs_.assign(m_, 0);
  link_differs_.assign(m_, 0);
  diff_listed_.assign(m_, 0);
  timing_dirty_.assign(n_, 0);
  seen_slot_.assign(m_, 0);
  seen_link_.assign(m_, 0);
  probe_start_.resize(n_);
  probe_finish_.resize(n_);

  reset(Mapping(n_, platform.default_device()));
}

const std::vector<NodeId>& IncrementalEvaluator::order() const {
  return eval_->orders()[order_index_];
}

void IncrementalEvaluator::bump_slot_use(std::size_t p, std::uint32_t device,
                                         bool add) {
  const std::uint32_t delta = add ? 1 : ~0u;
  block_slot_uses_[(p / kStride) * m_ + device] += delta;
  total_slot_uses_[device] += delta;
}

void IncrementalEvaluator::bump_link_use(std::size_t p, std::uint32_t device,
                                         bool add) {
  const std::uint32_t delta = add ? 1 : ~0u;
  block_link_uses_[(p / kStride) * m_ + device] += delta;
  total_link_uses_[device] += delta;
}

void IncrementalEvaluator::shift_move_uses(std::uint32_t node,
                                           std::uint32_t from,
                                           std::uint32_t to) {
  // The committed records themselves are untouched; only the device ends of
  // the moved node's own contributions change.
  const FlatGraph& flat = t_->flat;
  const std::size_t p0 = pos_[node];
  if (!streamed_[p0]) {
    bump_slot_use(p0, from, false);
    bump_slot_use(p0, to, true);
  }
  for (std::uint32_t k = flat.in_begin(NodeId(node));
       k < flat.in_end(NodeId(node)); ++k) {
    if (!edge_xfer_[k]) continue;
    bump_link_use(p0, from, false);
    bump_link_use(p0, to, true);
  }
  for (std::uint32_t j = flat.out_begin(NodeId(node));
       j < flat.out_end(NodeId(node)); ++j) {
    const std::uint32_t k = out_in_slot_[j];
    if (!edge_xfer_[k]) continue;
    const std::size_t pw = pos_[flat.out_dst(j)];
    bump_link_use(pw, from, false);
    bump_link_use(pw, to, true);
  }
}

double IncrementalEvaluator::reset(const Mapping& mapping) {
  SPMAP_ASSERT(mapping.size() == n_);
  mapping_ = mapping;
  apply_count_ = 0;
  probe_count_ = 0;
  full_recording_sweep();
  probe_start_ = start_;
  probe_finish_ = finish_;

  std::fill(block_slot_uses_.begin(), block_slot_uses_.end(), 0);
  std::fill(block_link_uses_.begin(), block_link_uses_.end(), 0);
  std::fill(total_slot_uses_.begin(), total_slot_uses_.end(), 0);
  std::fill(total_link_uses_.begin(), total_link_uses_.end(), 0);
  const std::uint32_t* in_src = t_->flat.in_src_data();
  for (std::size_t p = 0; p < n_; ++p) {
    const PlanNode pn = (*plan_)[p];
    if (!streamed_[p]) bump_slot_use(p, mapping_.device[pn.node].v, true);
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      if (!edge_xfer_[k]) continue;
      bump_link_use(p, mapping_.device[in_src[k]].v, true);
      bump_link_use(p, mapping_.device[pn.node].v, true);
    }
  }

  const CostModel& cost = eval_->cost();
  over_budget_count_ = 0;
  for (std::size_t d = 0; d < m_; ++d) {
    if (!t_->is_fpga[d]) continue;
    area_used_[d] =
        cost.mapped_area(mapping_, DeviceId(static_cast<std::uint32_t>(d)));
    if (area_used_[d] > budget_[d]) ++over_budget_count_;
  }
  return makespan();
}

void IncrementalEvaluator::full_recording_sweep() {
  std::fill(cur_slot_.begin(), cur_slot_.end(), 0.0);
  std::fill(cur_link_.begin(), cur_link_.end(), 0.0);
  const SortedSlots slots{cur_slot_.data(), t_->slot_offset.data()};
  const auto record = [&](std::uint32_t k, std::uint32_t, std::uint32_t,
                          bool xfer, double arrival) {
    edge_xfer_[k] = xfer ? 1 : 0;
    edge_arrival_[k] = arrival;
  };
  double run_max = 0.0;
  for (std::size_t p = 0; p < n_; ++p) {
    if (p % kStride == 0) {
      double* ck = checkpoint(p / kStride);
      std::copy(cur_slot_.begin(), cur_slot_.end(), ck);
      std::copy(cur_link_.begin(), cur_link_.end(), ck + s_total_);
    }
    const PlanNode pn = (*plan_)[p];
    const NodeTime nt =
        time_node(*t_, mapping_.device.data(), pn, cur_link_.data(),
                  start_.data(), finish_.data(), slots, record);
    streamed_[p] = nt.streamed ? 1 : 0;
    start_[pn.node] = nt.start;
    finish_[pn.node] = nt.finish;
    run_max = std::max(run_max, nt.finish);
    prefix_max_[p] = run_max;
  }
  makespan_value_ = run_max;
}

void IncrementalEvaluator::reconstruct_state(std::size_t p0, bool with_base) {
  const std::size_t c = p0 / kStride;
  const double* ck = checkpoint(c);
  double* slots = with_base ? base_slot_.data() : cur_slot_.data();
  double* links = with_base ? base_link_.data() : cur_link_.data();
  std::copy(ck, ck + s_total_, slots);
  std::copy(ck + s_total_, ck + s_total_ + m_, links);
  if (with_base) {
    // Seed the seen-use counters with the whole-block prefix...
    std::fill(seen_slot_.begin(), seen_slot_.end(), 0);
    std::fill(seen_link_.begin(), seen_link_.end(), 0);
    for (std::size_t b = 0; b < c; ++b) {
      for (std::size_t d = 0; d < m_; ++d) {
        seen_slot_[d] += block_slot_uses_[b * m_ + d];
        seen_link_[d] += block_link_uses_[b * m_ + d];
      }
    }
  }
  // ...then replay the committed records forward to p0 (counting uses as we
  // go). Every node and source here precedes p0 in the walk, so its mapping
  // is untouched by the move.
  const std::uint32_t* in_src = t_->flat.in_src_data();
  for (std::size_t p = c * kStride; p < p0; ++p) {
    const PlanNode pn = (*plan_)[p];
    const std::uint32_t u = pn.node;
    const std::uint32_t d = mapping_.device[u].v;
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      if (!edge_xfer_[k]) continue;
      const std::uint32_t ds = mapping_.device[in_src[k]].v;
      links[ds] = edge_arrival_[k];
      links[d] = edge_arrival_[k];
      if (with_base) {
        ++seen_link_[ds];
        ++seen_link_[d];
      }
    }
    if (!streamed_[p]) {
      pop_min_insert(slots, d, finish_[u]);
      if (with_base) ++seen_slot_[d];
    }
  }
  if (with_base) {
    std::copy(base_slot_.begin(), base_slot_.end(), cur_slot_.begin());
    std::copy(base_link_.begin(), base_link_.end(), cur_link_.begin());
  }
}

bool IncrementalEvaluator::slot_span_equal(std::uint32_t device) const {
  // Bitwise compare: for the nonnegative finite times in these spans it
  // matches value equality (a hypothetical -0.0 vs +0.0 would only read as
  // "differs", which is conservative — an extra recompute, never a skip).
  const std::size_t b = t_->slot_offset[device];
  return std::memcmp(cur_slot_.data() + b, base_slot_.data() + b,
                     (t_->slot_offset[device + 1] - b) * sizeof(double)) == 0;
}

void IncrementalEvaluator::touch_slot_device(std::uint32_t device) {
  // Consecutive duplicates are the common case (base and cur writes land
  // on the same device); dropping them halves the refresh compares.
  if (!touched_slot_devs_.empty() && touched_slot_devs_.back() == device) {
    return;
  }
  touched_slot_devs_.push_back(device);
}

void IncrementalEvaluator::touch_link_device(std::uint32_t device) {
  if (!touched_link_devs_.empty() && touched_link_devs_.back() == device) {
    return;
  }
  touched_link_devs_.push_back(device);
}

void IncrementalEvaluator::refresh_touched_diffs() {
  for (const std::uint32_t d : touched_slot_devs_) {
    const std::uint8_t differs = slot_span_equal(d) ? 0 : 1;
    if (differs != slot_differs_[d]) {
      slot_differs_[d] = differs;
      diff_device_count_ += differs ? 1 : std::size_t(-1);
      if (differs && !diff_listed_[d]) {
        diff_listed_[d] = 1;
        diff_list_.push_back(d);
      }
    }
  }
  touched_slot_devs_.clear();
  for (const std::uint32_t d : touched_link_devs_) {
    const std::uint8_t differs = cur_link_[d] != base_link_[d] ? 1 : 0;
    if (differs != link_differs_[d]) {
      link_differs_[d] = differs;
      diff_device_count_ += differs ? 1 : std::size_t(-1);
      if (differs && !diff_listed_[d]) {
        diff_listed_[d] = 1;
        diff_list_.push_back(d);
      }
    }
  }
  touched_link_devs_.clear();
}

bool IncrementalEvaluator::can_stop(std::size_t p) const {
  if (p <= limit_) return false;
  if (diff_device_count_ == 0) return true;
  // Diffs linger, but they are harmless once nothing ahead reads them:
  // only a slot-occupying task reads its device's slot state, and only a
  // transfer endpoint reads a link. (Past limit_ every unvisited position
  // keeps its committed records, so committed use counts are exact.)
  for (const std::uint32_t dev : diff_list_) {
    if (slot_differs_[dev] && total_slot_uses_[dev] > seen_slot_[dev]) {
      return false;
    }
    if (link_differs_[dev] && total_link_uses_[dev] > seen_link_[dev]) {
      return false;
    }
  }
  return true;
}

void IncrementalEvaluator::patch_tail_checkpoints(std::size_t p) {
  if (diff_device_count_ == 0) return;
  // The diverged devices are unused from p to the end, so the new sweep's
  // state for them is frozen at the current values — write those into every
  // remaining checkpoint so later reconstructions see the new truth.
  for (std::size_t c = (p + kStride - 1) / kStride; c < blocks_; ++c) {
    double* ck = checkpoint(c);
    for (const std::uint32_t dev : diff_list_) {
      if (slot_differs_[dev]) {
        std::copy(cur_slot_.begin() + t_->slot_offset[dev],
                  cur_slot_.begin() + t_->slot_offset[dev + 1],
                  ck + t_->slot_offset[dev]);
      }
      if (link_differs_[dev]) ck[s_total_ + dev] = cur_link_[dev];
    }
  }
}

template <bool kProbe>
bool IncrementalEvaluator::step(std::size_t p) {
  const PlanNode pn = (*plan_)[p];
  const std::uint32_t u = pn.node;
  const std::uint32_t d = mapping_.device[u].v;
  const std::uint32_t* in_src = t_->flat.in_src_data();

  // ---- skip test: would a full sweep read exactly the committed values?
  // (A source whose times changed is flagged timing_dirty_; a probe holds
  // its new times in the view only.)
  bool needs = u == moved_ || slot_differs_[d] != 0;
  for (std::uint32_t k = pn.in_begin; !needs && k < pn.in_end; ++k) {
    const std::uint32_t s = in_src[k];
    needs = timing_dirty_[s] != 0 || s == moved_ ||
            (edge_xfer_[k] != 0 && (link_differs_[mapping_.device[s].v] != 0 ||
                                    link_differs_[d] != 0));
  }

  if (!needs) {
    // Clean node: its times stand; replay its committed writes into both
    // states. Every written entry compared equal before (the skip test),
    // so no diff flag can change.
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      if (!edge_xfer_[k]) continue;
      const std::uint32_t ds = mapping_.device[in_src[k]].v;
      const double arrival = edge_arrival_[k];
      base_link_[ds] = arrival;
      base_link_[d] = arrival;
      cur_link_[ds] = arrival;
      cur_link_[d] = arrival;
      ++seen_link_[ds];
      ++seen_link_[d];
    }
    if (!streamed_[p]) {
      const double fv = finish_[u];
      pop_min_insert(base_slot_.data(), d, fv);
      pop_min_insert(cur_slot_.data(), d, fv);
      ++seen_slot_[d];
    }
    return false;
  }

  // Recompute against the cur state with the shared kernel. Each in-edge's
  // committed record is replayed into the base state as the kernel passes
  // it (base and cur are disjoint). Seen counting follows the records the
  // rest of the walk will read: an apply rewrites them (shift_move_uses ran
  // and the new records are counted), a probe keeps the committed ones.
  const std::uint32_t d_old = u == moved_ ? moved_old_dev_ : d;
  const auto on_edge = [&](std::uint32_t k, std::uint32_t s, std::uint32_t ds,
                           bool xfer, double arrival)
                           __attribute__((always_inline)) {
    if (edge_xfer_[k]) {
      const std::uint32_t ds_old = s == moved_ ? moved_old_dev_ : ds;
      base_link_[ds_old] = edge_arrival_[k];
      base_link_[d_old] = edge_arrival_[k];
      touch_link_device(ds_old);
      touch_link_device(d_old);
      if constexpr (kProbe) {
        ++seen_link_[ds_old];
        ++seen_link_[d_old];
      }
    }
    if (xfer) {
      touch_link_device(ds);
      touch_link_device(d);
    }
    if constexpr (!kProbe) {
      const std::uint8_t new_xfer = xfer ? 1 : 0;
      if (new_xfer != edge_xfer_[k]) {
        // A flipped transfer flag moves this edge's link-use contribution.
        bump_link_use(p, ds, xfer);
        bump_link_use(p, d, xfer);
        edge_xfer_[k] = new_xfer;
      }
      edge_arrival_[k] = arrival;
      if (xfer) {
        ++seen_link_[ds];
        ++seen_link_[d];
      }
    }
  };
  if (!streamed_[p]) {
    pop_min_insert(base_slot_.data(), d_old, finish_[u]);
    touch_slot_device(d_old);
    if constexpr (kProbe) ++seen_slot_[d_old];
  }
  // Sources are read from the view, which holds a probe's recomputed
  // times and otherwise the committed ones; an apply writes both.
  const NodeTime nt =
      time_node(*t_, mapping_.device.data(), pn, cur_link_.data(),
                probe_start_.data(), probe_finish_.data(),
                SortedSlots{cur_slot_.data(), t_->slot_offset.data()}, on_edge);
  probe_start_[u] = nt.start;
  probe_finish_[u] = nt.finish;
  if constexpr (!kProbe) {
    const std::uint8_t st = nt.streamed ? 1 : 0;
    if (st != streamed_[p]) {
      bump_slot_use(p, d, st == 0);  // slot use appears when streaming stops
      streamed_[p] = st;
    }
    if (!nt.streamed) ++seen_slot_[d];
  }
  if (!nt.streamed) touch_slot_device(d);
  if (nt.start != start_[u] || nt.finish != finish_[u]) {
    if constexpr (!kProbe) {
      start_[u] = nt.start;
      finish_[u] = nt.finish;
    }
    if (timing_dirty_[u] == 0) {
      timing_dirty_[u] = 1;
      dirty_list_.push_back(u);
    }
    limit_ = std::max(limit_, static_cast<std::size_t>(last_consumer_pos_[u]));
  }

  refresh_touched_diffs();
  return true;
}

void IncrementalEvaluator::snapshot_checkpoint(std::size_t c) {
  double* ck = checkpoint(c);
  std::copy(cur_slot_.begin(), cur_slot_.end(), ck);
  std::copy(cur_link_.begin(), cur_link_.end(), ck + s_total_);
}

double IncrementalEvaluator::area_after(std::uint32_t device,
                                        double delta) const {
  return eval_->cost().area_in_use(mapping_, DeviceId(device),
                                   area_used_[device] + delta);
}

void IncrementalEvaluator::update_area(std::uint32_t device, double delta) {
  const double budget = budget_[device];
  const bool was_over = area_used_[device] > budget;
  area_used_[device] = area_after(device, delta);
  const bool now_over = area_used_[device] > budget;
  if (was_over != now_over) over_budget_count_ += now_over ? 1 : -1;
}

void IncrementalEvaluator::move_area(NodeId node, std::uint32_t from,
                                     std::uint32_t to) {
  if (!t_->is_fpga[from] && !t_->is_fpga[to]) return;
  const double area = eval_->cost().area(node);
  if (t_->is_fpga[from]) update_area(from, -area);
  if (t_->is_fpga[to]) update_area(to, area);
}

double IncrementalEvaluator::apply(TaskReassignment move) {
  SPMAP_ASSERT(move.node.v < n_);
  SPMAP_ASSERT(move.device.v < m_);
  ++apply_count_;
  const std::uint32_t old_dev = mapping_.device[move.node.v].v;
  if (move.device.v == old_dev) return makespan();

  mapping_.device[move.node.v] = move.device;
  shift_move_uses(move.node.v, old_dev, move.device.v);
  move_area(move.node, old_dev, move.device.v);

  moved_ = move.node.v;
  moved_old_dev_ = old_dev;
  const std::size_t p0 = pos_[moved_];
  reconstruct_state(p0, true);
  limit_ = last_consumer_pos_[moved_];
  double run_max = p0 == 0 ? 0.0 : prefix_max_[p0 - 1];

  const WalkPlan& plan = *plan_;
  std::size_t p = p0;
  // Stop once nothing ahead can read any remaining divergence: the rest of
  // the sweep reproduces its committed values verbatim.
  for (; p < n_ && !can_stop(p); ++p) {
    if (p % kStride == 0) snapshot_checkpoint(p / kStride);
    step<false>(p);
    run_max = std::max(run_max, finish_[plan[p].node]);
    prefix_max_[p] = run_max;
  }
  if (p < n_) patch_tail_checkpoints(p);
  // Early exit: the remaining times stand, but the running max still has to
  // be folded forward until it rejoins the committed prefix-max curve.
  for (; p < n_; ++p) {
    const double folded = std::max(run_max, finish_[plan[p].node]);
    if (folded == prefix_max_[p]) break;
    prefix_max_[p] = folded;
    run_max = folded;
  }
  makespan_value_ = n_ == 0 ? 0.0 : prefix_max_[n_ - 1];
  clear_marks();
  return makespan();
}

void IncrementalEvaluator::clear_marks() {
  for (const std::uint32_t v : dirty_list_) {
    timing_dirty_[v] = 0;
    probe_start_[v] = start_[v];
    probe_finish_[v] = finish_[v];
  }
  dirty_list_.clear();
  for (const std::uint32_t dev : diff_list_) {
    slot_differs_[dev] = 0;
    link_differs_[dev] = 0;
    diff_listed_[dev] = 0;
  }
  diff_list_.clear();
  diff_device_count_ = 0;
  moved_ = kNoDevice;
}

double IncrementalEvaluator::sweep_suffix(std::size_t p, double run_max) {
  const PlanNode* walk = plan_->data();
  run_max = sweep(*t_, mapping_.device.data(), walk + p, walk + n_,
                  probe_start_.data(), probe_finish_.data(), cur_slot_.data(),
                  cur_link_.data(), run_max);
  for (const PlanNode* it = walk + p; it != walk + n_; ++it) {
    probe_start_[it->node] = start_[it->node];
    probe_finish_[it->node] = finish_[it->node];
  }
  return run_max;
}

bool IncrementalEvaluator::route_to_sweep() {
  switch (probe_mode_) {
    case ProbeMode::kForceIncremental: return false;
    case ProbeMode::kForceFallback: return true;
    case ProbeMode::kAuto: break;
  }
  // Sweep while the incremental path revisits more than 3/4 of the suffix
  // it covers; every kDensityRefreshEvery-th such probe still runs
  // incrementally so the density keeps tracking the workload.
  if (density_samples_ < kDensityWarmup ||
      density_replayed_ * 4 <= density_suffix_ * 3) {
    return false;
  }
  return ++sweep_streak_ % kDensityRefreshEvery != 0;
}

double IncrementalEvaluator::probe(TaskReassignment move) {
  SPMAP_ASSERT(move.node.v < n_);
  SPMAP_ASSERT(move.device.v < m_);
  ++probe_count_;
  const std::uint32_t old_dev = mapping_.device[move.node.v].v;
  if (move.device.v == old_dev) return makespan();

  // Area verdict, trace-free: update_area's arithmetic on a local count.
  int over = over_budget_count_;
  mapping_.device[move.node.v] = move.device;
  const std::uint8_t* is_fpga = t_->is_fpga.data();
  if (is_fpga[old_dev] || is_fpga[move.device.v]) {
    const double area = eval_->cost().area(move.node);
    for (const auto& [dev, delta] :
         {std::pair<std::uint32_t, double>{old_dev, -area},
          std::pair<std::uint32_t, double>{move.device.v, area}}) {
      if (!is_fpga[dev]) continue;
      const bool was_over = area_used_[dev] > budget_[dev];
      const bool now_over = area_after(dev, delta) > budget_[dev];
      if (was_over != now_over) over += now_over ? 1 : -1;
    }
  }

  const std::size_t p0 = pos_[move.node.v];
  double run_max = p0 == 0 ? 0.0 : prefix_max_[p0 - 1];

  if (route_to_sweep()) {
    ++fb_probes_;
    fb_swept_total_ += n_ - p0;
    reconstruct_state(p0, false);
    run_max = sweep_suffix(p0, run_max);
    mapping_.device[move.node.v] = DeviceId(old_dev);
    return over == 0 ? run_max : kInfeasible;
  }

  ++inc_probes_;
  moved_ = move.node.v;
  moved_old_dev_ = old_dev;
  reconstruct_state(p0, true);
  limit_ = last_consumer_pos_[moved_];

  const WalkPlan& plan = *plan_;
  std::size_t replayed = 0;
  std::size_t recomputed = 0;
  std::size_t p = p0;
  for (; p < n_ && !can_stop(p); ++p) {
    // Dense cascade: nearly everything visited so far was recomputed, so
    // skip detection is pure overhead — finish with the plain sweep. The
    // 256-position horizon sits past where healing probes typically
    // converge; on small graphs (where a cascade reaches the end anyway)
    // the switch comes earlier.
    if ((replayed >= 256 || (n_ <= 512 && replayed >= 64)) &&
        recomputed + (replayed >> 3) >= replayed) {
      replayed += n_ - p;
      run_max = sweep_suffix(p, run_max);
      p = n_;
      break;
    }
    ++replayed;
    recomputed += step<true>(p) ? 1 : 0;
    run_max = std::max(run_max, probe_finish_[plan[p].node]);
  }
  // Read-only fold: past the stop point every time is committed, so the
  // probed makespan rejoins the committed prefix-max curve exactly as
  // apply()'s fold would — once it matches, the committed tail maximum
  // (prefix_max_[n-1]) finishes the job.
  for (; p < n_; ++p) {
    const double folded = std::max(run_max, finish_[plan[p].node]);
    if (folded == prefix_max_[p]) {
      run_max = prefix_max_[n_ - 1];
      break;
    }
    run_max = folded;
  }

  inc_replayed_total_ += replayed;
  density_replayed_ += replayed;
  density_suffix_ += n_ - p0;
  if (++density_samples_ % kDensityDecayEvery == 0) {
    density_replayed_ /= 2;
    density_suffix_ /= 2;
  }

  // Roll back the scratch marks and the view; the committed state was
  // never touched.
  clear_marks();
  mapping_.device[move.node.v] = DeviceId(old_dev);
  return over == 0 ? run_max : kInfeasible;
}

}  // namespace spmap
