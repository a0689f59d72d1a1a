#pragma once
/// \file table.hpp
/// Output helpers for the sweep tables and the CLI: TSV series (machine
/// readable, one row per x-value) and aligned console tables (human
/// readable).

#include <iosfwd>
#include <string>
#include <vector>

namespace spmap {

/// Collects rows of a fixed-width table and renders them either as TSV or as
/// an aligned, human-readable table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  std::size_t columns() const { return header_.size(); }
  std::size_t rows() const { return rows_.size(); }

  /// Appends a row; must match the header width.
  void add_row(std::vector<std::string> row);

  void write_tsv(std::ostream& os) const;
  void write_aligned(std::ostream& os) const;

  /// Renders the aligned form into a string.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (no trailing-zero trimming).
std::string format_double(double v, int precision);

/// Formats seconds adaptively (us / ms / s) for human-readable summaries.
std::string format_duration(double seconds);

}  // namespace spmap
