#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace spmap {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  require(!header_.empty(), "Table requires a non-empty header");
}

void Table::add_row(std::vector<std::string> row) {
  require(row.size() == header_.size(), "Table row width mismatch");
  rows_.push_back(std::move(row));
}

void Table::write_tsv(std::ostream& os) const {
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) os << '\t';
    os << header_[c];
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << '\t';
      os << row[c];
    }
    os << '\n';
  }
}

void Table::write_aligned(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "  " : "") << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

std::string Table::to_string() const {
  std::ostringstream oss;
  write_aligned(oss);
  return oss.str();
}

std::string format_double(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

std::string format_duration(double seconds) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(2);
  if (seconds < 1e-3) {
    oss << seconds * 1e6 << " us";
  } else if (seconds < 1.0) {
    oss << seconds * 1e3 << " ms";
  } else {
    oss << seconds << " s";
  }
  return oss.str();
}

}  // namespace spmap
