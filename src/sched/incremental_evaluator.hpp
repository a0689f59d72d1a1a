#pragma once
/// \file incremental_evaluator.hpp
/// Incremental delta-evaluation of single-task reassignments.
///
/// Every search mapper probes candidates that differ from their parent by
/// one or two task reassignments, yet a full `Evaluator::evaluate_order`
/// sweep pays O(V + E) per probe. This engine keeps the complete timing
/// state of one schedule order resident — per-task start/finish times, the
/// per-device execution-slot and link occupation state at checkpointed
/// positions, and per-position replay records — so that
/// `apply(TaskReassignment)` re-propagates finish times only from the first
/// affected position of the walk order, skipping every node whose inputs
/// are untouched and terminating as soon as the perturbation has been
/// absorbed (typically at the next series join of the graph). `apply`
/// rewrites the committed records in place; a search prices candidates with
/// the read-only `probe` and applies only the moves it accepts. A probe
/// writes its recomputed times to a *probe view* — per-node times that
/// equal the committed ones whenever no probe is running — and restores
/// what it wrote before returning, so every source-time read of a replay
/// or suffix sweep is a plain array read.
///
/// ## Exactness
///
/// Results are *value-identical* to `Evaluator::evaluate_order` on the same
/// order (and hence to the naive ReferenceEvaluator): every recomputed
/// start/finish time is produced by the same floating-point operations in
/// the same order as the full sweep, and a node is only skipped when all of
/// its inputs compare equal (`==`) to the values the full sweep would read.
/// The one representational difference is internal: the full sweep keeps
/// per-device slot-ready times in slot-index order and picks the argmin,
/// while this engine keeps each device's slot multiset *sorted* (slots are
/// interchangeable — only the multiset of ready times affects any start
/// time, never the slot index), as a ring with one head index per device
/// (`SortedSlots`, sched/sweep_kernel.hpp). The canonical form is the
/// ring's *logical* order, read from its head: two rings are the same
/// state when their logical orders compare equal, whatever their heads
/// (checkpoints carry the heads). That is what makes "state has
/// re-converged to the baseline" detectable by an elementwise compare,
/// which is what bounds the affected suffix.
/// `tests/property_incremental_test.cpp` asserts the three-way agreement
/// after every apply and probe over randomized reassignment sequences.
///
/// ## Feasibility
///
/// FPGA area feasibility is tracked incrementally (O(1) per apply).
/// `makespan()` returns `kInfeasible` while any FPGA budget is exceeded —
/// matching `Evaluator::evaluate` — but the timing state stays consistent,
/// so a search may walk through infeasible intermediate states and
/// `order_makespan()` always reports the schedule-order makespan. On the
/// exact budget boundary the incrementally maintained area sum is resynced
/// against `CostModel::mapped_area`, so the verdict cannot drift.
///
/// ## The hybrid probe
///
/// Delta re-pricing only pays when the perturbation heals before the walk
/// ends: every visited position costs ~2-5x a plain sweep position (dual
/// base/cur state, skip tests, diff refreshes), so on *saturated* configs
/// where a reassignment cascades through most of the suffix it loses to a
/// plain sweep. Both paths take slots through the same rings, where a slot
/// costs O(1) when its new ready time is the latest. `probe()` therefore
/// routes each call through one of two exact paths:
///
///  * **incremental** — the skip-detecting suffix replay described above;
///    once nearly everything it has visited needed recomputing it finishes
///    the suffix with the plain sweep instead (the dense-cascade bail-out);
///  * **suffix sweep** — rebuild the (slot, link) state at the move's
///    position from the nearest committed checkpoint (at most kStride
///    committed-record replays) and re-simulate the suffix with the plain
///    sweep: ~(n - p0) sweep positions, *half* a full sweep for a
///    uniformly random move, with no delta bookkeeping to lose to.
///
/// In `ProbeMode::kAuto` (the default) the route is a pure function of the
/// probe stream: the incremental path's own *replay density* — positions
/// it visited over the suffix it covered, as decaying sums over its recent
/// probes — decides. The first kDensityWarmup probes run incrementally to
/// seed the sums; after that a probe takes the sweep while the density
/// exceeds 3/4, except that every kDensityRefreshEvery-th sweep-regime
/// probe runs incrementally so the density keeps tracking the workload;
/// the sums halve every kDensityDecayEvery samples. Both paths return
/// bit-identical values (tests/property_incremental_test.cpp forces each
/// and compares), so the route only affects speed, never results, and two
/// engines fed the same calls take the same routes. `apply()` always runs
/// incrementally — it must maintain the committed records. A probe stopped
/// at its cutoff (below) adds the positions it visited over n - p0.
///
/// ## Cutoffs
///
/// A probe may stop once its running maximum finish, or a recomputed task's
/// start plus its *tail* (`tail_of`, sched/sweep_kernel.hpp: HEFT's upward
/// rank on the committed mapping), exceeds the cutoff plus `tail_limit`'s
/// slack. The first probe with a finite cutoff after a reset or a
/// device-changing apply fills the tails in one reverse pass. They hold at
/// every position after the moved task, whose descendants lie past it and
/// keep their devices; the moved task takes its new device's tail for the
/// probe's duration. A clean position's start + tail is at most the
/// committed makespan, so the incremental route checks recomputed ones
/// only; the suffix sweep and the dense-cascade bail-out run `sweep` with
/// a `TailStop`. An area-infeasible candidate returns before any sweep.
///
/// ## Thread-safety
///
/// An IncrementalEvaluator is mutable state and strictly single-threaded:
/// one instance per thread (the local-search mappers create one per
/// worker). It holds a reference to the Evaluator, which must outlive it;
/// the shared Evaluator itself is immutable and safe to share.

#include <cstdint>
#include <vector>

#include "sched/evaluator.hpp"
#include "sched/sweep_kernel.hpp"

namespace spmap {

/// One local-search move: put `node` on `device`.
struct TaskReassignment {
  NodeId node;
  DeviceId device;
};

/// A uniformly random reassignment of a random task to a *different*
/// device — the canonical local-search move (requires >= 2 devices). The
/// local-search mappers and the reassignment benchmarks share this one
/// sampler so they measure the same primitive.
inline TaskReassignment random_reassignment(const Mapping& mapping,
                                            std::size_t device_count,
                                            Rng& rng) {
  const NodeId node(static_cast<std::uint32_t>(rng.below(mapping.size())));
  std::uint64_t pick = rng.below(device_count - 1);
  if (pick >= mapping.device[node.v].v) ++pick;
  return {node, DeviceId(static_cast<std::uint32_t>(pick))};
}

/// How probe() picks between its two exact evaluation paths.
enum class ProbeMode {
  kAuto,              ///< replay density decides (default)
  kForceIncremental,  ///< always skip-detecting suffix replay
  kForceFallback,     ///< always checkpoint-resume + plain suffix sweep
};

class IncrementalEvaluator {
 public:
  /// Binds to `eval`'s schedule order `order_index` (0 = breadth-first, the
  /// order every search mapper's inner loop uses). The evaluator must
  /// outlive this object. The initial mapping is the all-default mapping;
  /// call `reset` to load another one.
  explicit IncrementalEvaluator(const Evaluator& eval,
                                std::size_t order_index = 0);

  /// Loads `mapping` with one full recording sweep (O(V + E)). Returns
  /// `makespan()`.
  double reset(const Mapping& mapping);

  /// Reassigns one task and re-propagates times from the first affected
  /// position, rewriting the committed state in place. Returns `makespan()`.
  double apply(TaskReassignment move);

  /// The makespan the move *would* produce, leaving the state untouched:
  /// recomputed times go to the probe view only, nothing committed is
  /// written, and the view is restored before returning, so a rejected
  /// candidate costs only the replay itself. `cutoff` has
  /// `Evaluator::evaluate_moves`'s contract: a move whose makespan is below
  /// it gets exactly what apply() would return, bit for bit; any other
  /// may stop early ("Cutoffs" above) and return some value >= `cutoff`.
  double probe(TaskReassignment move, double cutoff = kInfeasible);

  /// Makespan of the current mapping under the bound schedule order;
  /// `kInfeasible` while any FPGA area budget is exceeded (matching
  /// `Evaluator::evaluate`).
  double makespan() const {
    return over_budget_count_ == 0 ? makespan_value_ : kInfeasible;
  }

  /// The schedule-order makespan regardless of area feasibility (matching
  /// `Evaluator::evaluate_order`, which does not check feasibility).
  double order_makespan() const { return makespan_value_; }

  bool feasible() const { return over_budget_count_ == 0; }

  const Mapping& mapping() const { return mapping_; }

  /// The schedule order this engine simulates.
  const std::vector<NodeId>& order() const;

  /// Per-task times of the current mapping (indexed by node id).
  const std::vector<double>& start_times() const { return start_; }
  const std::vector<double>& finish_times() const { return finish_; }

  /// apply() calls since the last reset(), no-ops included (profiling: one
  /// apply is the incremental counterpart of one single-order evaluation).
  std::size_t apply_count() const { return apply_count_; }
  /// probe() calls since the last reset().
  std::size_t probe_count() const { return probe_count_; }

  /// Selects the probe path (see "The hybrid probe" above). Results are
  /// bit-identical in every mode; forced modes exist for tests and
  /// measurement.
  void set_probe_mode(ProbeMode mode) { probe_mode_ = mode; }

  /// Non-no-op probes routed through the incremental path (lifetime total).
  std::size_t incremental_probe_count() const { return inc_probes_; }
  /// Non-no-op probes routed through the suffix-sweep path (lifetime total).
  std::size_t fallback_probe_count() const { return fb_probes_; }
  /// Positions visited by incremental-path probes (the replay-density
  /// numerator; suffix-sweep probes are excluded).
  std::size_t incremental_replayed_total() const { return inc_replayed_total_; }
  /// Positions re-simulated by suffix-sweep-path probes.
  std::size_t fallback_swept_total() const { return fb_swept_total_; }
  /// Probes stopped at their cutoff (lifetime total).
  std::size_t stopped_probe_count() const { return stopped_probes_; }

 private:
  /// Sentinel: un-dirtied limit (no pending influence).
  static constexpr std::uint32_t kNoDevice = ~0u;
  /// Positions between consecutive (slot, link) state checkpoints. The
  /// state at an arbitrary position is the nearest checkpoint plus a replay
  /// of at most kStride position records.
  static constexpr std::size_t kStride = 64;
  /// Auto-mode routing (see "The hybrid probe" above). Per-probe density is
  /// bimodal (a move heals at once or cascades to the end), so the warmup
  /// must be long enough that its mean does not cross 3/4 by chance: on a
  /// 256-task wide graph the first 16 probes average 0.80 against a
  /// long-run 0.54.
  static constexpr std::size_t kDensityWarmup = 32;
  static constexpr std::size_t kDensityDecayEvery = 64;
  static constexpr std::size_t kDensityRefreshEvery = 64;

  void full_recording_sweep();
  /// Replays committed records from the nearest checkpoint to rebuild the
  /// (slot, link) state at position `p0` into cur_*. For the incremental
  /// path (`with_base`) the state is built into base_* and copied to cur_*,
  /// and the seen-use counters are seeded for the prefix.
  void reconstruct_state(std::size_t p0, bool with_base);
  /// Processes position `p` of an apply (`kProbe` false: recomputed times
  /// and records are committed, and written to the view too) or of a probe
  /// (`kProbe` true: recomputed times land in the probe view only, nothing
  /// committed is touched): skip if clean, else recompute. Returns true
  /// when the position was recomputed.
  template <bool kProbe>
  bool step(std::size_t p);
  /// Prices the probe of `u`, already on its new device with its new tail,
  /// on the routed path: the exact makespan, or the bound above `limit`.
  double price_probe(std::uint32_t u, std::uint32_t old_dev, double limit);
  /// Re-simulates the positions from `p` on against the cur state with the
  /// flat `sweep` (sched/sweep_kernel.hpp) — no skip detection, no base
  /// state — on the probe view, until a tail bound exceeds `limit`;
  /// restores the view over the positions it swept, adds their count to
  /// `swept`, and returns the folded makespan or the stopping bound.
  double sweep_suffix(std::size_t p, double run_max, double limit,
                      std::size_t& swept);
  /// Auto-mode routing of one probe: true to take the suffix-sweep path.
  bool route_to_sweep();
  /// Clears the per-replay dirty/diff marks of apply() and probe().
  void clear_marks();
  double* checkpoint(std::size_t c) {
    return checkpoints_.data() + c * (s_total_ + m_);
  }
  std::uint32_t* checkpoint_heads(std::size_t c) {
    return checkpoint_heads_.data() + c * m_;
  }
  /// The replayed (new) and committed (old) slot rings: the canonical form
  /// of the full sweep's "earliest-ready slot" pick + overwrite
  /// (value-identical; see header).
  SortedSlots cur_slots() {
    return {cur_slot_.data(), cur_head_.data(), t_->slot_offset.data()};
  }
  SortedSlots base_slots() {
    return {base_slot_.data(), base_head_.data(), t_->slot_offset.data()};
  }
  /// Copies the cur (slot, link) state into checkpoint `c`.
  void snapshot_checkpoint(std::size_t c);
  /// True once no unvisited position can read any remaining divergent
  /// state: past `limit_`, and every device with a lingering slot/link diff
  /// has zero remaining uses of that state.
  bool can_stop(std::size_t p) const;
  /// Freezes the lingering divergent device spans into all checkpoints at
  /// positions >= p (their state cannot change again — the devices are
  /// unused from p on).
  void patch_tail_checkpoints(std::size_t p);
  void move_area(NodeId node, std::uint32_t from, std::uint32_t to);
  /// `device`'s area in use after adding `delta` (the current mapping
  /// already moved), resynced exactly on the budget boundary
  /// (CostModel::area_in_use).
  double area_after(std::uint32_t device, double delta) const;
  void update_area(std::uint32_t device, double delta);
  /// Adjusts the committed use counts (see block_*_uses_) by +/-1.
  void bump_slot_use(std::size_t p, std::uint32_t device, bool add);
  void bump_link_use(std::size_t p, std::uint32_t device, bool add);
  /// Use-count bookkeeping for remapping `node` from `from` to `to`.
  void shift_move_uses(std::uint32_t node, std::uint32_t from,
                       std::uint32_t to);
  void touch_slot_device(std::uint32_t device);
  void touch_link_device(std::uint32_t device);
  void refresh_touched_diffs();

  // ---- immutable topology/tables (shared with the Evaluator) ----
  const Evaluator* eval_;
  std::size_t order_index_;
  const SweepTables* t_;
  const WalkPlan* plan_;
  std::size_t n_ = 0;        // node count
  std::size_t m_ = 0;        // device count
  std::size_t s_total_ = 0;  // total execution slots
  std::vector<std::uint32_t> pos_;                // node -> walk position
  std::vector<std::uint32_t> last_consumer_pos_;  // node -> max consumer pos
  std::vector<std::uint32_t> out_in_slot_;  // out-CSR index -> in-edge slot
  std::vector<double> budget_;                    // per device (FPGAs)
  std::size_t blocks_ = 0;  // checkpoint block count

  // ---- committed state (the current mapping's sweep) ----
  Mapping mapping_;
  std::vector<double> start_, finish_;      // per node
  std::vector<std::uint8_t> streamed_;      // per position
  std::vector<std::uint8_t> edge_xfer_;     // per in-edge slot
  std::vector<double> edge_arrival_;        // per in-edge slot
  std::vector<double> prefix_max_;          // per position
  std::vector<double> checkpoints_;         // [blocks_][s_total + m]
  std::vector<std::uint32_t> checkpoint_heads_;  // [blocks_][m]: ring heads
  /// Committed-record use counts per (checkpoint block, device): how many
  /// positions in the block occupy an execution slot of the device, and how
  /// many transfer-edge endpoints touch the device's link. They answer
  /// "does any position >= p still read this device's state?" in O(1)
  /// against the seen_* counters — the early-exit test for diffs lingering
  /// on devices the rest of the walk never touches.
  std::vector<std::uint32_t> block_slot_uses_;  // [block * m + device]
  std::vector<std::uint32_t> block_link_uses_;
  std::vector<std::uint32_t> total_slot_uses_, total_link_uses_;  // per dev
  std::vector<double> area_used_;           // per device
  int over_budget_count_ = 0;
  double makespan_value_ = 0.0;
  std::size_t apply_count_ = 0;
  std::size_t probe_count_ = 0;

  // ---- hybrid probe state ----
  ProbeMode probe_mode_ = ProbeMode::kAuto;
  /// Decaying replay-density sums of incremental-path probes: positions
  /// visited and suffix positions covered.
  std::size_t density_replayed_ = 0;
  std::size_t density_suffix_ = 0;
  std::size_t density_samples_ = 0;
  std::size_t sweep_streak_ = 0;  // sweep-regime probes routed so far
  std::size_t inc_probes_ = 0;
  std::size_t fb_probes_ = 0;
  std::size_t inc_replayed_total_ = 0;
  std::size_t fb_swept_total_ = 0;
  std::size_t stopped_probes_ = 0;
  /// Per-node tails on the committed mapping (see "Cutoffs" above).
  std::vector<double> tail_;
  bool tails_valid_ = false;

  // ---- per-apply scratch ----
  std::vector<double> cur_slot_, cur_link_;    // replayed (new) state
  std::vector<double> base_slot_, base_link_;  // committed (old) state
  std::vector<std::uint32_t> cur_head_, base_head_;  // per device
  std::vector<std::uint8_t> slot_differs_, link_differs_;  // per device
  std::size_t diff_device_count_ = 0;
  std::vector<std::uint32_t> diff_list_;     // devices that had a flag set
  std::vector<std::uint8_t> diff_listed_;    // dedup marker for diff_list_
  std::vector<std::uint8_t> timing_dirty_;   // per node
  std::vector<std::uint32_t> dirty_list_;
  std::vector<std::uint32_t> touched_slot_devs_, touched_link_devs_;
  std::vector<std::uint32_t> seen_slot_, seen_link_;  // per device
  /// Probe view: per-node times every step and suffix sweep reads. It
  /// equals the committed start_/finish_ whenever no probe() is running:
  /// reset() copies them in and apply() writes both. A probe writes only
  /// the view and restores what it wrote before returning — its changed
  /// nodes (dirty_list_, in clear_marks) and every position a suffix sweep
  /// covered; a recomputed node that did not change wrote its committed
  /// value back. The restore costs O(what the probe wrote), and no read
  /// needs a tag.
  std::vector<double> probe_start_, probe_finish_;
  std::uint32_t moved_ = kNoDevice;
  std::uint32_t moved_old_dev_ = kNoDevice;
  std::size_t limit_ = 0;
};

}  // namespace spmap
