#pragma once
/// \file model.hpp
/// Mixed-integer linear program model builder.
///
/// This is the spmap substitution for the Gurobi models of the paper (see
/// DESIGN.md): a small, self-contained MILP representation consumed by the
/// simplex + branch-and-bound solver in this module. All problems are
/// minimization problems.

#include <vector>

#include "util/error.hpp"

namespace spmap {

enum class VarKind { Continuous, Binary, Integer };
enum class RowSense { Le, Ge, Eq };

/// A linear term: coefficient * variable.
struct LinTerm {
  int var;
  double coeff;
};

class MilpModel {
 public:
  /// Adds a variable; returns its index. Binary variables get bounds [0, 1]
  /// regardless of the arguments.
  int add_var(VarKind kind, double lb, double ub, double obj_coeff);

  int add_continuous(double lb, double ub, double obj) {
    return add_var(VarKind::Continuous, lb, ub, obj);
  }
  int add_binary(double obj) { return add_var(VarKind::Binary, 0.0, 1.0, obj); }

  /// Adds the constraint `sum(terms) sense rhs`. Terms may repeat a
  /// variable; coefficients are accumulated.
  void add_constraint(std::vector<LinTerm> terms, RowSense sense, double rhs);

  std::size_t var_count() const { return kinds_.size(); }

  double lower_bound(int v) const { return lb_[check_var(v)]; }
  double upper_bound(int v) const { return ub_[check_var(v)]; }
  double objective_coeff(int v) const { return obj_[check_var(v)]; }
  bool is_integral_kind(int v) const {
    return kinds_[check_var(v)] != VarKind::Continuous;
  }

  struct Row {
    std::vector<LinTerm> terms;
    RowSense sense;
    double rhs;
  };
  const std::vector<Row>& rows() const { return rows_; }

  /// Objective value of an assignment (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// True if `x` satisfies all rows, bounds and integrality within `tol`.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::size_t check_var(int v) const {
    require(v >= 0 && static_cast<std::size_t>(v) < kinds_.size(),
            "MilpModel: variable index out of range");
    return static_cast<std::size_t>(v);
  }

  std::vector<VarKind> kinds_;
  std::vector<double> lb_, ub_, obj_;
  std::vector<Row> rows_;
};

}  // namespace spmap
