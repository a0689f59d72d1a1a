#pragma once
/// \file platform_io.hpp
/// Platform (de)serialization: the `spmap-platform/1` JSON format.
///
/// The paper's evaluation platform is compiled into `reference_platform()`,
/// but the scenario subsystem (src/bench/scenario.hpp) treats platforms as
/// *data*: a JSON file listing devices (compute and FPGA parameters) and
/// pairwise links, so experiments can swap hardware without touching C++. The paper's CPU+GPU+FPGA machine ships as
/// `scenarios/platforms/paper_cpu_gpu_fpga.json`; see docs/FORMATS.md for
/// the authoritative schema reference.
///
/// Schema sketch (`"schema": "spmap-platform/1"`):
///   {
///     "schema": "spmap-platform/1",
///     "name": "paper-cpu-gpu-fpga",
///     "devices": [{"name", "kind": "cpu"|"gpu"|"fpga", "lanes",
///                  "lane_gops", "slots", "area_budget",
///                  "stream_gops_per_streamability", "stream_fill_fraction"},
///                 ...],
///     "links":   [{"a": NAME, "b": NAME, "bandwidth_gbps", "latency_s"},
///                 ...]   // undirected; every distinct pair exactly once
///   }
/// Links reference devices by *name*, so device names must be unique.
/// Device fields irrelevant to the kind may be omitted (a CPU needs no
/// `area_budget`); unknown keys, duplicate names, missing links and
/// out-of-range values throw spmap::Error with a diagnostic naming what is
/// accepted, mirroring the MapperRegistry option errors. A device accepts
/// only the keys its kind prices with, so a file that still carries the
/// power keys of earlier versions is refused (docs/FORMATS.md).
///
/// ## Thread-safety
///
/// Free functions over value types; safe to call concurrently on distinct
/// arguments. The returned Platform is immutable-after-build like any other.

#include <string>

#include "model/platform.hpp"
#include "util/json.hpp"

namespace spmap {

/// A platform bundled with its file-level name ("" if the document carries
/// none). The name labels results files and experiment tables.
struct NamedPlatform {
  std::string name;
  Platform platform;
};

/// Serializes a platform into a `spmap-platform/1` document. Every
/// undirected device pair is emitted once (links are symmetric by
/// construction — Platform::set_link sets both directions).
Json platform_to_json(const Platform& platform, const std::string& name);

/// Parses a `spmap-platform/1` document. The result is validated
/// (Platform::validate); parse errors and schema violations throw
/// spmap::Error. platform_from_json(platform_to_json(p)) reproduces p.
NamedPlatform platform_from_json(const Json& doc);

/// Convenience: parse from JSON text.
NamedPlatform platform_from_json_text(const std::string& text);

/// Reads and parses a platform file. Throws spmap::Error if the file
/// cannot be opened, naming the path.
NamedPlatform load_platform_file(const std::string& path);

}  // namespace spmap
