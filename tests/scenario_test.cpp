/// Scenario subsystem coverage: workload and scenario JSON round-trips,
/// registry-style diagnostics on unknown keys / types / sweep parameters /
/// mapper specs, committed scenario files staying loadable, and a sweep
/// smoke run asserting results are deterministic for a fixed seed and
/// bit-identical across thread counts.

#include <gtest/gtest.h>

#include <filesystem>

#include "bench/scenario.hpp"
#include "bench/scenario_runner.hpp"
#include "util/error.hpp"

namespace spmap {
namespace {

std::string scenario_dir() { return SPMAP_SCENARIO_DIR; }

// ---- workload specs --------------------------------------------------------

TEST(WorkloadSpec, RoundTripsAllKinds) {
  const char* docs[] = {
      R"({"type": "sp", "tasks": 40, "parallel_probability": 0.5,
          "edge_data_mb": 50})",
      R"({"type": "almost-sp", "tasks": 100, "extra_edges": 20,
          "parallel_probability": 0.6666666666666666, "edge_data_mb": 100})",
      R"({"type": "workflow", "family": "epigenomics", "width": 16})",
      R"({"type": "graph", "path": "g.json"})",
      R"({"type": "wfcommons", "path": "wf.json", "seed": 9})",
  };
  for (const char* text : docs) {
    const WorkloadSpec spec = workload_from_json(Json::parse(text));
    const Json once = workload_to_json(spec);
    const WorkloadSpec again = workload_from_json(once);
    EXPECT_EQ(once.dump(), workload_to_json(again).dump()) << text;
  }
}

TEST(WorkloadSpec, UnknownKeyThrowsListingAccepted) {
  try {
    workload_from_json(Json::parse(R"({"type": "sp", "taks": 40})"));
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("taks"), std::string::npos);
    EXPECT_NE(what.find("tasks"), std::string::npos)
        << "error should list accepted keys: " << what;
  }
}

TEST(WorkloadSpec, UnknownTypeAndFamilyThrowListingAccepted) {
  try {
    workload_from_json(Json::parse(R"({"type": "random"})"));
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("almost-sp"), std::string::npos);
  }
  try {
    workload_from_json(
        Json::parse(R"({"type": "workflow", "family": "montaage"})"));
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("montage"), std::string::npos);
  }
}

TEST(WorkloadSpec, BadValuesThrow) {
  EXPECT_THROW(workload_from_json(Json::parse(R"({"type": "sp",
      "tasks": 1})")),
               Error);
  EXPECT_THROW(workload_from_json(Json::parse(R"({"type": "sp",
      "parallel_probability": 1.5})")),
               Error);
  EXPECT_THROW(workload_from_json(Json::parse(R"({"type": "graph"})")),
               Error);  // file kinds need a path
}

TEST(WorkloadSpec, SweepParameterValidation) {
  WorkloadSpec sp = workload_from_json(Json::parse(R"({"type": "sp"})"));
  apply_sweep_value(sp, "tasks", 64);
  EXPECT_EQ(sp.tasks, 64u);
  try {
    apply_sweep_value(sp, "width", 4);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("width"), std::string::npos);
    EXPECT_NE(what.find("tasks"), std::string::npos)
        << "error should list sweepable parameters: " << what;
  }

  // "family" is the one string parameter: names only, on workflows only.
  WorkloadSpec wf =
      workload_from_json(Json::parse(R"({"type": "workflow"})"));
  apply_sweep_value(wf, "family", std::string("blast"));
  EXPECT_EQ(wf.family, "blast");
  try {
    apply_sweep_value(wf, "family", std::string("blasst"));
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("epigenomics"), std::string::npos)
        << "error should list the families: " << e.what();
  }
  EXPECT_THROW(apply_sweep_value(wf, "family", 3), Error);
  EXPECT_THROW(apply_sweep_value(sp, "tasks", std::string("64")), Error);
  EXPECT_THROW(apply_sweep_value(sp, "family", std::string("blast")), Error);
}

TEST(WorkloadSpec, PinnedSeedIsRepetitionStableButInstanceDistinct) {
  const WorkloadSpec spec = workload_from_json(
      Json::parse(R"({"type": "sp", "tasks": 12, "seed": 123})"));
  Rng a(1), b(999);  // scenario rng must not matter when the seed is pinned
  const TaskGraph g0a = materialize_workload(spec, a, 0);
  const TaskGraph g0b = materialize_workload(spec, b, 0);
  const TaskGraph g1 = materialize_workload(spec, a, 1);
  EXPECT_EQ(to_json(g0a.dag, g0a.attrs), to_json(g0b.dag, g0b.attrs));
  EXPECT_NE(to_json(g0a.dag, g0a.attrs), to_json(g1.dag, g1.attrs));
}

// ---- scenarios -------------------------------------------------------------

Json small_scenario_doc() {
  Json doc = Json::parse(R"({
    "schema": "spmap-scenario/1",
    "name": "unit_smoke",
    "description": "tiny 2-mapper sweep for the unit tests",
    "workload": {"type": "sp", "tasks": 8},
    "sweep": {"parameter": "tasks", "values": [6, 9]},
    "mappers": ["heft", "spff"],
    "repetitions": 2,
    "reporting_orders": 10,
    "seed": 21
  })");
  doc.set("platform", platform_to_json(reference_platform(), "ref"));
  return doc;
}

TEST(Scenario, RoundTrips) {
  const Scenario s = scenario_from_json(small_scenario_doc());
  const Json once = scenario_to_json(s);
  const Scenario again = scenario_from_json(once);
  EXPECT_EQ(once.dump(2), scenario_to_json(again).dump(2));
  EXPECT_EQ(s.mappers.size(), 2u);
  EXPECT_EQ(s.mappers[0].display, "HEFT");  // registry display name
  EXPECT_EQ(s.sweep.values, (std::vector<std::int64_t>{6, 9}));
}

TEST(Scenario, UnknownKeyAndMissingPiecesThrow) {
  Json doc = small_scenario_doc();
  doc.set("mapers", Json::array());
  EXPECT_THROW(scenario_from_json(doc), Error);

  Json no_mappers = small_scenario_doc();
  no_mappers.set("mappers", Json::array());
  EXPECT_THROW(scenario_from_json(no_mappers), Error);
}

TEST(Scenario, MapperTypoFailsAtParseTime) {
  Json doc = small_scenario_doc();
  Json mappers = Json::array();
  mappers.push_back("spfff");
  doc.set("mappers", std::move(mappers));
  try {
    scenario_from_json(doc);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("spff"), std::string::npos)
        << "error should list known mappers: " << e.what();
  }
  // Same for a bad option key on a known mapper.
  Json doc2 = small_scenario_doc();
  Json mappers2 = Json::array();
  mappers2.push_back("heft:generations=5");
  doc2.set("mappers", std::move(mappers2));
  EXPECT_THROW(scenario_from_json(doc2), Error);
}

TEST(Scenario, MalformedMapperOptionValuesFailAtParseTime) {
  // Option *values* are validated eagerly too (MapperEntry::validate_values):
  // a committed scenario with a nonsense local-search budget fails at load
  // time with a diagnostic naming the accepted values.
  Json doc = small_scenario_doc();
  Json mappers = Json::array();
  mappers.push_back("anneal:iters=-1");
  doc.set("mappers", std::move(mappers));
  try {
    scenario_from_json(doc);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("iters"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 0"), std::string::npos)
        << "error should name the accepted values: " << what;
  }

  // An unknown init= mapper fails eagerly, listing the known mappers.
  Json doc2 = small_scenario_doc();
  Json mappers2 = Json::array();
  mappers2.push_back("hillclimb:init=hefty");
  doc2.set("mappers", std::move(mappers2));
  try {
    scenario_from_json(doc2);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hefty"), std::string::npos) << what;
    EXPECT_NE(what.find("heft"), std::string::npos)
        << "error should list known mappers: " << what;
  }

  // An unknown option key inside the nested init spec is caught eagerly as
  // well, listing what the nested mapper accepts.
  Json doc3 = small_scenario_doc();
  Json mappers3 = Json::array();
  mappers3.push_back("tabu:init=nsga:gens=5");
  doc3.set("mappers", std::move(mappers3));
  try {
    scenario_from_json(doc3);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gens"), std::string::npos) << what;
    EXPECT_NE(what.find("generations"), std::string::npos)
        << "error should list the nested mapper's options: " << what;
  }
}

TEST(Scenario, UnknownSweepKeysFailListingAccepted) {
  // Unknown keys inside the sweep object name what is accepted.
  Json doc = small_scenario_doc();
  Json sweep = Json::object();
  sweep.set("parameter", "tasks");
  Json values = Json::array();
  values.push_back(6);
  sweep.set("values", std::move(values));
  sweep.set("step", 5);
  doc.set("sweep", std::move(sweep));
  try {
    scenario_from_json(doc);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("step"), std::string::npos) << what;
    EXPECT_NE(what.find("parameter"), std::string::npos)
        << "error should list accepted sweep keys: " << what;
    EXPECT_NE(what.find("values"), std::string::npos) << what;
  }

  // An unknown sweep *parameter* names the sweepable parameters.
  Json doc2 = small_scenario_doc();
  Json sweep2 = Json::object();
  sweep2.set("parameter", "taskss");
  Json values2 = Json::array();
  values2.push_back(6);
  sweep2.set("values", std::move(values2));
  doc2.set("sweep", std::move(sweep2));
  try {
    scenario_from_json(doc2);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tasks"), std::string::npos)
        << "error should list sweepable parameters: " << e.what();
  }
}

TEST(Scenario, SweepParameterMismatchFailsAtParseTime) {
  const auto with_sweep = [](const char* workload, const char* sweep) {
    Json doc = small_scenario_doc();
    doc.set("workload", Json::parse(workload));
    doc.set("sweep", Json::parse(sweep));
    return doc;
  };
  const char* sp = R"({"type": "sp"})";
  const char* workflow = R"({"type": "workflow", "width": 4})";
  for (const Json& doc : {
           with_sweep(sp, R"({"parameter": "width", "values": [4]})"),
           with_sweep(workflow,
                      R"({"parameter": "family", "values": ["blasst"]})"),
           with_sweep(sp, R"({"parameter": "tasks", "values": ["10"]})"),
           with_sweep(workflow, R"({"parameter": "family", "values": [3]})"),
           with_sweep(workflow,
                      R"({"parameter": "family", "values": ["blast", 3]})"),
       }) {
    EXPECT_THROW(scenario_from_json(doc), Error) << doc.dump();
  }
}

TEST(Scenario, CommittedScenarioFilesLoadAndRoundTrip) {
  // Every committed scenario file, wherever it sits; platforms/ holds the
  // platform files they reference.
  std::size_t checked = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(scenario_dir())) {
    const std::string file = entry.path().string();
    if (!entry.is_regular_file() || entry.path().extension() != ".json" ||
        file.find("/platforms/") != std::string::npos) {
      continue;
    }
    const Scenario s = load_scenario_file(file);
    EXPECT_FALSE(s.name.empty()) << file;
    EXPECT_FALSE(s.mappers.empty()) << file;
    EXPECT_FALSE(s.platform_path.empty()) << file;  // references, not inline
    const Json once = scenario_to_json(s);
    const Scenario again = scenario_from_json(once, s.base_dir);
    EXPECT_EQ(once.dump(2), scenario_to_json(again).dump(2)) << file;
    ++checked;
  }
  EXPECT_GE(checked, 11u);  // the paper figures plus the examples
}

// ---- the runner ------------------------------------------------------------

/// Quality fields of a results document, with the wall-clock timing fields
/// (the only run-to-run nondeterminism) stripped.
std::string quality_fingerprint(const Json& results) {
  std::string out;
  for (const Json& point : results.at("results").as_array()) {
    if (point.contains("sweep_value")) {
      out += point.at("sweep_value").dump() + ":";
    }
    for (const Json& m : point.at("mappers").as_array()) {
      out += m.at("name").as_string() + "=";
      out += std::to_string(m.at("improvement_mean").as_double()) + ",";
      out += std::to_string(m.at("makespan_mean").as_double()) + ",";
      out += std::to_string(m.at("baseline_mean").as_double()) + ";";
    }
    out += "\n";
  }
  return out;
}

TEST(ScenarioRunner, SweepSmokeIsDeterministicAcrossRunsAndThreads) {
  const Scenario s = scenario_from_json(small_scenario_doc());
  const Json serial_a = run_scenario(s, {.threads = 1, .progress = false});
  const Json serial_b = run_scenario(s, {.threads = 1, .progress = false});
  const Json threaded = run_scenario(s, {.threads = 3, .progress = false});

  EXPECT_EQ(serial_a.at("schema").as_string(), "spmap-sweep-results/1");
  EXPECT_EQ(serial_a.at("results").as_array().size(), 2u);  // sweep points
  const std::string fingerprint = quality_fingerprint(serial_a);
  EXPECT_EQ(fingerprint, quality_fingerprint(serial_b));
  EXPECT_EQ(fingerprint, quality_fingerprint(threaded));

  // Improvements are in [0, 1] and SPFirstFit finds one on these graphs.
  for (const Json& point : serial_a.at("results").as_array()) {
    for (const Json& m : point.at("mappers").as_array()) {
      const double imp = m.at("improvement_mean").as_double();
      EXPECT_GE(imp, 0.0);
      EXPECT_LE(imp, 1.0);
    }
    EXPECT_GT(point.at("mappers").as_array()[1].at("improvement_mean")
                  .as_double(),
              0.0);
  }

  // A family sweep: string points, run and reported in file order.
  Json family_doc = small_scenario_doc();
  family_doc.set("workload", Json::parse(R"({"type": "workflow",
                                             "width": 3})"));
  family_doc.set("sweep", Json::parse(R"({"parameter": "family",
      "values": ["montage", "blast", "epigenomics"]})"));
  const Scenario families = scenario_from_json(family_doc);
  const Json family_serial =
      run_scenario(families, {.threads = 1, .progress = false});
  const Json family_threaded =
      run_scenario(families, {.threads = 3, .progress = false});
  EXPECT_EQ(quality_fingerprint(family_serial),
            quality_fingerprint(family_threaded));
  std::vector<std::string> order;
  for (const Json& point : family_serial.at("results").as_array()) {
    order.push_back(point.at("sweep_value").as_string());
  }
  EXPECT_EQ(order, (std::vector<std::string>{"montage", "blast",
                                             "epigenomics"}));
}

TEST(ScenarioRunner, SeedChangesResults) {
  Scenario s = scenario_from_json(small_scenario_doc());
  const Json a = run_scenario(s, {.threads = 1, .progress = false});
  s.seed = 22;
  const Json b = run_scenario(s, {.threads = 1, .progress = false});
  EXPECT_NE(quality_fingerprint(a), quality_fingerprint(b));
}

TEST(ScenarioRunner, CommittedSmokeScenarioRuns) {
  Scenario s = load_scenario_file(scenario_dir() + "/examples/fig4_small.json");
  s.repetitions = 1;  // keep the unit-test budget small
  const Json results = run_scenario(s, {.threads = 2, .progress = false});
  EXPECT_EQ(results.at("platform").as_string(), "paper-cpu-gpu-fpga");
  EXPECT_EQ(results.at("sweep_parameter").as_string(), "tasks");
  EXPECT_EQ(results.at("results").as_array().size(), 3u);
}

}  // namespace
}  // namespace spmap
