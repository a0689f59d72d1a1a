#include "mappers/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "mappers/builtin_registrations.hpp"
#include "util/error.hpp"

namespace spmap {

namespace {

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

/// Levenshtein distance, used for the unknown-name suggestion.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

/// The closest registered name, or "" when nothing is plausibly meant
/// (distance must stay within half the typed name, minimum 2).
std::string nearest_name(const std::string& name,
                         const std::vector<std::string>& names) {
  std::string best;
  std::size_t best_distance = ~std::size_t{0};
  for (const std::string& candidate : names) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best_distance <= std::max<std::size_t>(2, name.size() / 2)
             ? best
             : std::string();
}

}  // namespace

// ---- MapperOptions ----

MapperOptions MapperOptions::parse(const std::string& spec) {
  MapperOptions options;
  if (spec.empty()) return options;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    require(eq != std::string::npos,
            "mapper options: expected key=value, got '" + item + "' in '" +
                spec + "'");
    const std::string key = item.substr(0, eq);
    require(!key.empty(),
            "mapper options: empty key in '" + spec + "'");
    const bool inserted =
        options.values_.emplace(key, item.substr(eq + 1)).second;
    require(inserted, "mapper options: duplicate key '" + key + "' in '" +
                          spec + "'");
  }
  return options;
}

bool MapperOptions::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string MapperOptions::get(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t MapperOptions::get_int(const std::string& key,
                                    std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  require(end != text && *end == '\0',
          "mapper option '" + key + "': expected an integer, got '" +
              it->second + "'");
  return static_cast<std::int64_t>(value);
}

double MapperOptions::get_double(const std::string& key,
                                 double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  require(end != text && *end == '\0',
          "mapper option '" + key + "': expected a number, got '" +
              it->second + "'");
  return value;
}

bool MapperOptions::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw Error("mapper option '" + key + "': expected a boolean, got '" + v +
              "'");
}

std::string MapperOptions::to_string() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    if (!out.empty()) out += ',';
    out += key + '=' + value;
  }
  return out;
}

std::string format_option_value(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

std::size_t threads_option(const MapperOptions& options) {
  const std::int64_t value = options.get_int("threads", 1);
  require(value >= 1, "mapper option 'threads': must be >= 1");
  return static_cast<std::size_t>(value);
}

std::uint64_t seed_option(const MapperOptions& options,
                          Rng& construction_rng) {
  if (!options.has("seed")) return construction_rng();
  const std::int64_t value = options.get_int("seed", 0);
  require(value >= 0, "mapper option 'seed': must be >= 0, got '" +
                          options.get("seed", "") + "'");
  return static_cast<std::uint64_t>(value);
}

bool is_shared_run_option(const std::string& key) {
  return key == "deadline_ms" || key == "max_evals" || key == "max_iters";
}

MapRequest run_request_from_options(const MapperOptions& options) {
  MapRequest request;
  request.deadline_ms = options.get_double("deadline_ms", 0.0);
  require(request.deadline_ms >= 0.0,
          "mapper option 'deadline_ms': must be >= 0 (0 = no deadline)");
  const std::int64_t max_evals = options.get_int("max_evals", 0);
  require(max_evals >= 0,
          "mapper option 'max_evals': must be >= 0 (0 = unlimited)");
  request.max_evaluations = static_cast<std::size_t>(max_evals);
  const std::int64_t max_iters = options.get_int("max_iters", 0);
  require(max_iters >= 0,
          "mapper option 'max_iters': must be >= 0 (0 = unlimited)");
  request.max_iterations = static_cast<std::size_t>(max_iters);
  return request;
}

// ---- MapperEntry ----

bool MapperEntry::supports_option(const std::string& key) const {
  for (const MapperOptionInfo& info : options) {
    if (info.key == key) return true;
  }
  return false;
}

void MapperEntry::validate_options(const MapperOptions& opts) const {
  for (const auto& [key, value] : opts.values()) {
    (void)value;
    if (is_shared_run_option(key) || supports_option(key)) continue;
    std::vector<std::string> accepted;
    for (const MapperOptionInfo& info : options) accepted.push_back(info.key);
    throw Error("mapper '" + name + "' does not accept option '" + key +
                "'" +
                (accepted.empty()
                     ? " (it takes no mapper-specific options; the shared "
                       "run options deadline_ms=, max_evals=, max_iters= "
                       "always apply)"
                     : " (accepted: " + join(accepted, ", ") +
                           ", plus the shared run options deadline_ms=, "
                           "max_evals=, max_iters=)"));
  }
  run_request_from_options(opts);  // validates the shared run options
  if (validate_values) validate_values(opts);
}

std::string MapperEntry::default_spec() const {
  std::string out;
  for (const MapperOptionInfo& info : options) {
    if (info.default_value.empty()) continue;
    if (!out.empty()) out += ',';
    out += info.key + '=' + info.default_value;
  }
  return out.empty() ? "-" : out;
}

// ---- MapperRegistry ----

MapperRegistry& MapperRegistry::instance() {
  static MapperRegistry* registry = [] {
    auto* r = new MapperRegistry();
    detail::register_cpu_only_mapper(*r);
    detail::register_heft_mapper(*r);
    detail::register_lookahead_heft_mapper(*r);
    detail::register_peft_mapper(*r);
    detail::register_decomposition_mappers(*r);
    detail::register_nsga2_mapper(*r);
    detail::register_milp_mappers(*r);
    detail::register_local_search_mappers(*r);
    return r;
  }();
  return *registry;
}

void MapperRegistry::add(MapperEntry entry) {
  require(!entry.name.empty(), "MapperRegistry: empty mapper name");
  require(static_cast<bool>(entry.factory),
          "MapperRegistry: mapper '" + entry.name + "' has no factory");
  require(index_.count(entry.name) == 0,
          "MapperRegistry: duplicate mapper name '" + entry.name + "'");
  index_.emplace(entry.name, entries_.size());
  entries_.push_back(std::move(entry));
}

bool MapperRegistry::contains(const std::string& name) const {
  return index_.count(name) != 0;
}

const MapperEntry& MapperRegistry::at(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    const std::string suggestion = nearest_name(name, names());
    throw Error("unknown mapper: '" + name + "'" +
                (suggestion.empty()
                     ? ""
                     : " — did you mean '" + suggestion + "'?") +
                " (known mappers: " + join(names(), ", ") + ")");
  }
  return entries_[it->second];
}

std::vector<std::string> MapperRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const MapperEntry& entry : entries_) out.push_back(entry.name);
  return out;
}

std::pair<std::string, std::string> MapperRegistry::split_spec(
    const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return {spec, ""};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

std::string MapperRegistry::canonical_spec(const std::string& spec) const {
  const auto [name, option_spec] = split_spec(spec);
  const MapperEntry& entry = at(name);
  const MapperOptions options = MapperOptions::parse(option_spec);
  entry.validate_options(options);
  if (options.empty()) return entry.name;
  return entry.name + ":" + options.to_string();
}

std::unique_ptr<Mapper> MapperRegistry::create(const std::string& spec,
                                               const Dag& dag,
                                               Rng& rng) const {
  const auto [name, option_spec] = split_spec(spec);
  const MapperEntry& entry = at(name);
  const MapperOptions options = MapperOptions::parse(option_spec);
  entry.validate_options(options);
  const MapperContext context{dag, rng, options};
  std::unique_ptr<Mapper> mapper = entry.factory(context);
  require(mapper != nullptr,
          "MapperRegistry: factory of '" + name + "' returned null");
  // Bake the shared run options into the default request, so request-free
  // drivers (the scenario runner, examples) honor `heft:deadline_ms=50` too.
  mapper->set_default_request(run_request_from_options(options));
  return mapper;
}

}  // namespace spmap
