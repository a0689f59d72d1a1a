#include "util/flags.hpp"

#include <algorithm>
#include <cstdlib>

namespace spmap {

namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& known) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag(arg)) {
      throw UsageError("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--name value` if the next token is not itself a flag; bare bool
      // otherwise.
      if (i + 1 < argc && !is_flag(argv[i + 1])) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw UsageError("unknown flag: --" + name);
    }
    values_[name] = value;
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::string Flags::get_required(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) {
    throw UsageError("missing required flag --" + name);
  }
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw UsageError("flag --" + name +
                     " expects an integer, got: " + it->second);
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw UsageError("flag --" + name +
                     " expects a number, got: " + it->second);
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw UsageError("flag --" + name + " expects a boolean, got: " + v);
}

}  // namespace spmap
