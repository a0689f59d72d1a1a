#include "milp/model.hpp"

#include <cmath>

namespace spmap {

int MilpModel::add_var(VarKind kind, double lb, double ub, double obj_coeff) {
  if (kind == VarKind::Binary) {
    lb = 0.0;
    ub = 1.0;
  }
  require(lb <= ub, "MilpModel: lb > ub");
  kinds_.push_back(kind);
  lb_.push_back(lb);
  ub_.push_back(ub);
  obj_.push_back(obj_coeff);
  return static_cast<int>(kinds_.size() - 1);
}

void MilpModel::add_constraint(std::vector<LinTerm> terms, RowSense sense,
                               double rhs) {
  for (const LinTerm& t : terms) check_var(t.var);
  rows_.push_back(Row{std::move(terms), sense, rhs});
}

double MilpModel::objective_value(const std::vector<double>& x) const {
  require(x.size() == var_count(), "objective_value: size mismatch");
  double sum = 0.0;
  for (std::size_t v = 0; v < x.size(); ++v) sum += obj_[v] * x[v];
  return sum;
}

bool MilpModel::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != var_count()) return false;
  for (std::size_t v = 0; v < x.size(); ++v) {
    if (x[v] < lb_[v] - tol || x[v] > ub_[v] + tol) return false;
    if (kinds_[v] != VarKind::Continuous &&
        std::abs(x[v] - std::nearbyint(x[v])) > tol) {
      return false;
    }
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const LinTerm& t : row.terms) lhs += t.coeff * x[t.var];
    switch (row.sense) {
      case RowSense::Le:
        if (lhs > row.rhs + tol) return false;
        break;
      case RowSense::Ge:
        if (lhs < row.rhs - tol) return false;
        break;
      case RowSense::Eq:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace spmap
