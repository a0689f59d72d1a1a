#pragma once
/// \file registry.hpp
/// Uniform, name-based construction of every mapping algorithm in spmap.
///
/// The paper's central claim is that many mapping algorithms become
/// directly comparable once they all consume the same model-based
/// evaluator. The registry is the construction-side counterpart of that
/// principle: every mapper registers itself under a canonical name with a
/// factory taking typed `MapperOptions` (parsed from "key=value,key=value"
/// strings, e.g. "nsga:generations=50,pop=100") plus metadata — a
/// description, whether it needs a series-parallel decomposition of the
/// input graph, and the paper's default parameters. Drivers (CLI, scenario
/// files, examples) pick algorithms by name instead of hard-coding
/// constructor calls, so adding a mapper is a one-file change.
///
/// Registration lives next to each mapper implementation (see the
/// `register_*` functions declared in builtin_registrations.hpp, defined in
/// the respective mapper .cpp); the registry singleton invokes them on
/// first use, which keeps registration robust under static linking.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "mappers/mapper.hpp"
#include "util/rng.hpp"

namespace spmap {

/// Typed key=value options for mapper construction.
///
/// Parsed from a comma-separated "key=value" list. Accessors convert on
/// demand and throw spmap::Error with the offending key and value on
/// malformed input, so typos in experiment sweeps fail loudly.
class MapperOptions {
 public:
  MapperOptions() = default;

  /// Parses "key=value,key=value". An empty string yields no options.
  /// Throws spmap::Error on missing '=', empty keys, or duplicate keys.
  static MapperOptions parse(const std::string& spec);

  bool has(const std::string& key) const;
  bool empty() const { return values_.empty(); }

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& values() const { return values_; }

  /// Canonical spec: keys sorted, "k=v,k=v". parse(to_string()) round-trips.
  std::string to_string() const;

 private:
  std::map<std::string, std::string> values_;
};

/// One option a mapper accepts — used for validation and `list-mappers`.
struct MapperOptionInfo {
  std::string key;
  std::string default_value;  ///< the paper's default, as a spec literal
  std::string description;
};

/// Everything a factory may consult while building a mapper. The dag and
/// rng matter only to mappers that precompute a decomposition of the graph
/// (`MapperEntry::needs_sp_decomposition`).
struct MapperContext {
  const Dag& dag;
  Rng& rng;
  const MapperOptions& options;
};

/// One registered algorithm: canonical name, metadata, and factory.
struct MapperEntry {
  /// Canonical CLI name, e.g. "spff". Lower-case, stable across releases.
  std::string name;
  /// Display name used in experiment tables, e.g. "SPFirstFit". Matches
  /// Mapper::name() of the constructed object with default options.
  std::string display_name;
  std::string description;
  /// True if construction consumes an SP decomposition of the input graph
  /// (and hence the dag and rng of the MapperContext).
  bool needs_sp_decomposition = false;
  /// Accepted options with the paper's defaults. Keys not listed here are
  /// rejected at construction time.
  std::vector<MapperOptionInfo> options;
  std::function<std::unique_ptr<Mapper>(const MapperContext&)> factory;
  /// Optional option-*value* validator (ranges, cross-references such as a
  /// nested mapper spec). Runs in create() before the factory and at
  /// scenario parse time, so a bad value in a committed experiment file
  /// fails eagerly with a diagnostic naming the accepted values instead of
  /// mid-sweep. Must not construct the mapper.
  std::function<void(const MapperOptions&)> validate_values;

  bool supports_option(const std::string& key) const;
  /// Throws spmap::Error if `options` contains a key this mapper does not
  /// accept (listing what is accepted), or — when the entry installs a
  /// `validate_values` hook — if an accepted key carries a bad value. The
  /// shared run options (is_shared_run_option) are accepted by every
  /// mapper and validated here too.
  void validate_options(const MapperOptions& options) const;
  /// "k=v,k=v" over all options with non-empty defaults ("-" if none).
  std::string default_spec() const;
};

/// Shortest round-trippable spec literal for a numeric default ("10",
/// "0.9"). Registration code uses it to derive MapperOptionInfo defaults
/// from the parameter structs, so metadata cannot drift from behavior.
std::string format_option_value(double value);

/// Parses the shared `threads=` option (worker threads for batch/frontier
/// evaluation; results must be thread-count invariant). Throws
/// spmap::Error unless >= 1. Default: 1 (serial).
std::size_t threads_option(const MapperOptions& options);

/// Parses the shared `seed=` option of the stochastic mappers: the given
/// value when present (negative values throw spmap::Error with a
/// diagnostic), else a draw from the construction rng — so unseeded runs
/// vary per construction while `seed=` pins them exactly.
std::uint64_t seed_option(const MapperOptions& options, Rng& construction_rng);

/// True for the run options every mapper accepts (`deadline_ms=`,
/// `max_evals=`, `max_iters=`); they are baked into the constructed
/// mapper's default MapRequest instead of reaching the factory.
bool is_shared_run_option(const std::string& key);

/// Parses the shared run options into a MapRequest (fields not mentioned
/// keep their defaults). Throws spmap::Error on negative values.
MapRequest run_request_from_options(const MapperOptions& options);

/// Global name -> factory table of every mapping algorithm.
class MapperRegistry {
 public:
  /// The process-wide registry, with all built-in mappers registered.
  static MapperRegistry& instance();

  /// Registers an algorithm. Throws spmap::Error on empty/duplicate names
  /// or a missing factory.
  void add(MapperEntry entry);

  bool contains(const std::string& name) const;
  /// Entry lookup; unknown names throw spmap::Error listing what exists,
  /// with a nearest-name "did you mean 'heft'?" suggestion when a
  /// registered name is close by edit distance.
  const MapperEntry& at(const std::string& name) const;
  /// Canonical names in registration order.
  std::vector<std::string> names() const;
  std::size_t size() const { return entries_.size(); }

  /// Builds a mapper from "name" or "name:key=value,key=value".
  /// Unknown names and option keys throw spmap::Error with diagnostics.
  std::unique_ptr<Mapper> create(const std::string& spec, const Dag& dag,
                                 Rng& rng) const;

  /// Splits "name[:options]" into (name, options-string).
  static std::pair<std::string, std::string> split_spec(
      const std::string& spec);

  /// Canonical form of a spec: the resolved name plus its options
  /// re-serialized in sorted key order ("anneal:iters=500,seed=7").
  /// Validates exactly like create() (unknown names/keys/values throw)
  /// without constructing the mapper. Two specs with equal canonical form
  /// construct behaviorally identical mappers given equal construction
  /// rng state — the identity the result cache keys on.
  std::string canonical_spec(const std::string& spec) const;

 private:
  MapperRegistry() = default;

  std::vector<MapperEntry> entries_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace spmap
