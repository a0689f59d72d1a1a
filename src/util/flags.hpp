#pragma once
/// \file flags.hpp
/// Minimal command-line flag parser for the tools, the report binaries and
/// the examples.
///
/// Supported syntax: `--name=value`, `--name value`, and bare boolean
/// `--name`. Unknown flags raise UsageError so typos fail loudly instead
/// of silently running the default configuration.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace spmap {

/// A wrong invocation: an unknown flag, a positional argument, a malformed
/// flag value or a missing required flag. Tools exit 2 on it
/// (tools/exit_codes.hpp); any other spmap::Error is a runtime failure.
class UsageError : public Error {
 public:
  using Error::Error;
};

/// Parsed command-line flags with typed accessors and defaults.
class Flags {
 public:
  /// Parses argv; `known` lists the accepted flag names (without `--`).
  Flags(int argc, const char* const* argv,
        const std::vector<std::string>& known);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The value of a flag the invocation must give; UsageError when it is
  /// absent or empty.
  std::string get_required(const std::string& name) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace spmap
