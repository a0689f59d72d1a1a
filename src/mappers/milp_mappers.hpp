#pragma once
/// \file milp_mappers.hpp
/// The three mixed-integer linear programming mappers of the paper's
/// evaluation (Section IV-A), built on the spmap MILP solver (the Gurobi
/// substitution, see DESIGN.md):
///
///  * WGDP Device (Wilhelm et al. [5], device-based): assignment binaries
///    only; minimizes the maximum per-device load, ignoring dependencies.
///    Very fast, but blind to transfers and the critical path.
///  * WGDP Time (Wilhelm et al. [5], time-based): assignment binaries plus
///    continuous start times; big-M linearized precedence constraints carry
///    device-pair transfer costs, FPGA-FPGA edges get the dataflow-streaming
///    discount (the only MILP that models streaming). Device contention is
///    approximated by per-device load bounds instead of full disjunctive
///    ordering.
///  * ZhouLiu (Zhou and Liu [2]): the most detailed model — WGDP Time's
///    precedence structure (without streaming awareness) plus explicit
///    pairwise disjunctive ordering binaries that serialize tasks sharing a
///    device, i.e. a total order per processing unit. Near-optimal results,
///    but the model explodes combinatorially and times out beyond small
///    graphs, exactly as reported in the paper. NOTE: the original
///    formulation assigns execution "slots"; the disjunctive-order model
///    used here is the standard equivalent encoding of the same total-order
///    semantics and shows the same qualitative behaviour.
///
/// All three warm-start the solver with the all-CPU schedule, so a valid
/// mapping is returned at any time limit.

#include "mappers/mapper.hpp"
#include "milp/branch_and_bound.hpp"

namespace spmap {

struct MilpMapperParams {
  double time_limit_s = 10.0;
  std::size_t max_nodes = 200000;
};

/// Base class handling assignment-variable bookkeeping shared by the three
/// formulations.
class MilpMapperBase : public Mapper {
 public:
  explicit MilpMapperBase(MilpMapperParams params) : params_(params) {}

  /// Solver outcome of the last map() call.
  MipStatus last_status() const { return last_status_; }
  bool last_timed_out() const { return last_timed_out_; }

 protected:
  MilpMapperParams params_;
  MipStatus last_status_ = MipStatus::NoSolution;
  bool last_timed_out_ = false;
};

class WgdpDeviceMapper final : public MilpMapperBase {
 public:
  using Mapper::map;
  explicit WgdpDeviceMapper(MilpMapperParams params = {})
      : MilpMapperBase(params) {}
  std::string name() const override { return "WGDP-Dev"; }
  MapReport map(const Evaluator& eval, const MapRequest& request) override;
};

class WgdpTimeMapper final : public MilpMapperBase {
 public:
  using Mapper::map;
  explicit WgdpTimeMapper(MilpMapperParams params = {})
      : MilpMapperBase(params) {}
  std::string name() const override { return "WGDP-Time"; }
  MapReport map(const Evaluator& eval, const MapRequest& request) override;
};

class ZhouLiuMapper final : public MilpMapperBase {
 public:
  using Mapper::map;
  explicit ZhouLiuMapper(MilpMapperParams params = {})
      : MilpMapperBase(params) {}
  std::string name() const override { return "ZhouLiu"; }
  MapReport map(const Evaluator& eval, const MapRequest& request) override;
};

}  // namespace spmap
