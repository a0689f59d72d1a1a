/// MapperRegistry coverage: every paper mapper resolvable by its CLI name,
/// clear errors on unknown names/options, key=value parsing round-trips,
/// and registry-built mappers matching directly constructed ones.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "mappers/heft.hpp"
#include "mappers/nsga2.hpp"
#include "mappers/peft.hpp"
#include "mappers/registry.hpp"
#include "model/cost_model.hpp"
#include "sched/evaluator.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace spmap {
namespace {

// Names the paper's evaluation (and the CLI) exposes.
const char* const kPaperMappers[] = {"cpu",  "heft",     "laheft",
                                     "peft", "sn",       "snff",
                                     "sp",   "spff",     "nsga",
                                     "wgdp-dev", "wgdp-time", "zhouliu"};

TEST(MapperRegistry, AllPaperMappersResolvable) {
  const MapperRegistry& registry = MapperRegistry::instance();
  Rng rng(1);
  const Dag dag = generate_sp_dag(12, rng);
  for (const char* name : kPaperMappers) {
    ASSERT_TRUE(registry.contains(name)) << name;
    const MapperEntry& entry = registry.at(name);
    EXPECT_FALSE(entry.description.empty()) << name;
    EXPECT_FALSE(entry.display_name.empty()) << name;
    const auto mapper = registry.create(name, dag, rng);
    ASSERT_NE(mapper, nullptr) << name;
    EXPECT_EQ(mapper->name(), entry.display_name) << name;
  }
  EXPECT_GE(registry.size(), 10u);
}

TEST(MapperRegistry, NeedsSpDecompositionMetadata) {
  const MapperRegistry& registry = MapperRegistry::instance();
  EXPECT_TRUE(registry.at("sp").needs_sp_decomposition);
  EXPECT_TRUE(registry.at("spff").needs_sp_decomposition);
  EXPECT_FALSE(registry.at("sn").needs_sp_decomposition);
  EXPECT_FALSE(registry.at("heft").needs_sp_decomposition);
}

TEST(MapperRegistry, UnknownNameThrowsWithKnownNames) {
  Rng rng(1);
  const Dag dag = testing::chain_dag(3);
  try {
    MapperRegistry::instance().create("definitely-not-a-mapper", dag, rng);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("definitely-not-a-mapper"), std::string::npos);
    EXPECT_NE(what.find("spff"), std::string::npos)
        << "error should list known mappers: " << what;
  }
}

TEST(MapperRegistry, UnknownNameSuggestsNearest) {
  Rng rng(1);
  const Dag dag = testing::chain_dag(3);
  const auto expect_suggestion = [&](const char* typo, const char* meant) {
    try {
      MapperRegistry::instance().create(typo, dag, rng);
      FAIL() << "expected spmap::Error for '" << typo << "'";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("did you mean '") + meant + "'?"),
                std::string::npos)
          << typo << " -> " << what;
    }
  };
  expect_suggestion("hft", "heft");
  expect_suggestion("nsga2", "nsga");
  expect_suggestion("anealing", "anneal");
  expect_suggestion("spf", "sp");
  // Nothing plausibly close: no suggestion, just the known-names list.
  try {
    MapperRegistry::instance().create("quicksort", dag, rng);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos)
        << e.what();
  }
}

TEST(MapperRegistry, SeedOptionSharedHelper) {
  // seed= pins the value; unset draws from the construction rng; negative
  // values are rejected with a diagnostic naming the option.
  MapperOptions pinned = MapperOptions::parse("seed=42");
  Rng rng(7);
  EXPECT_EQ(seed_option(pinned, rng), 42u);

  Rng a(7);
  Rng b(7);
  const MapperOptions empty;
  EXPECT_EQ(seed_option(empty, a), seed_option(empty, b));

  MapperOptions negative = MapperOptions::parse("seed=-3");
  try {
    seed_option(negative, rng);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("seed"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 0"), std::string::npos) << what;
  }
}

TEST(MapperRegistry, NegativeSeedRejectedByStochasticMappers) {
  Rng rng(1);
  const Dag dag = testing::chain_dag(3);
  for (const char* spec :
       {"nsga:seed=-1", "hillclimb:seed=-1", "anneal:seed=-1",
        "tabu:seed=-1"}) {
    EXPECT_THROW(MapperRegistry::instance().create(spec, dag, rng), Error)
        << spec;
  }
  // ... and accepted when non-negative.
  EXPECT_NO_THROW(
      MapperRegistry::instance().create("anneal:seed=0,iters=1", dag, rng));
}

TEST(MapperRegistry, UnknownOptionKeyThrows) {
  Rng rng(1);
  const Dag dag = testing::chain_dag(3);
  EXPECT_THROW(
      MapperRegistry::instance().create("heft:generations=5", dag, rng),
      Error);
  try {
    MapperRegistry::instance().create("nsga:wrong-key=1", dag, rng);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wrong-key"), std::string::npos);
    EXPECT_NE(what.find("generations"), std::string::npos)
        << "error should list accepted keys: " << what;
  }
}

TEST(MapperOptions, ParseAndTypedAccess) {
  const auto options =
      MapperOptions::parse("generations=50,pop=100,crossover=0.75,elitist=yes");
  EXPECT_EQ(options.get_int("generations", 0), 50);
  EXPECT_EQ(options.get_int("pop", 0), 100);
  EXPECT_DOUBLE_EQ(options.get_double("crossover", 0.0), 0.75);
  EXPECT_TRUE(options.get_bool("elitist", false));
  EXPECT_FALSE(options.has("missing"));
  EXPECT_EQ(options.get_int("missing", 7), 7);
}

TEST(MapperOptions, RoundTripsThroughToString) {
  const auto options = MapperOptions::parse("b=2,a=1,c=x");
  const std::string canonical = options.to_string();
  EXPECT_EQ(canonical, "a=1,b=2,c=x");
  EXPECT_EQ(MapperOptions::parse(canonical).values(), options.values());
  EXPECT_EQ(MapperOptions::parse("").to_string(), "");
}

TEST(MapperOptions, BadValueDiagnostics) {
  const auto options = MapperOptions::parse("generations=abc,rate=1.2.3,f=2");
  try {
    options.get_int("generations", 0);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("generations"), std::string::npos);
    EXPECT_NE(what.find("abc"), std::string::npos);
  }
  EXPECT_THROW(options.get_double("rate", 0.0), Error);
  EXPECT_THROW(options.get_bool("f", false), Error);
}

TEST(MapperOptions, MalformedSpecsThrow) {
  EXPECT_THROW(MapperOptions::parse("novalue"), Error);
  EXPECT_THROW(MapperOptions::parse("=5"), Error);
  EXPECT_THROW(MapperOptions::parse("a=1,a=2"), Error);
}

TEST(MapperRegistry, SplitSpec) {
  EXPECT_EQ(MapperRegistry::split_spec("spff").first, "spff");
  EXPECT_EQ(MapperRegistry::split_spec("spff").second, "");
  const auto [name, opts] =
      MapperRegistry::split_spec("nsga:generations=50,pop=100");
  EXPECT_EQ(name, "nsga");
  EXPECT_EQ(opts, "generations=50,pop=100");
}

TEST(MapperRegistry, OptionsReachTheMapper) {
  Rng rng(3);
  const Dag dag = generate_sp_dag(10, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = testing::cpu_fpga_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);

  // A 2-generation GA must consume far fewer evaluations than a
  // 20-generation one — proof the option string reaches Nsga2Params.
  Rng ra(7), rb(7);
  auto short_ga = MapperRegistry::instance().create(
      "nsga:generations=2,seed=11", dag, ra);
  auto long_ga = MapperRegistry::instance().create(
      "nsga:generations=20,seed=11", dag, rb);
  const MapperResult short_result = short_ga->map(eval);
  const MapperResult long_result = long_ga->map(eval);
  EXPECT_EQ(short_result.iterations, 2u);
  EXPECT_EQ(long_result.iterations, 20u);
  EXPECT_LT(short_result.evaluations, long_result.evaluations);
}

/// Registry-built mappers must behave exactly like directly constructed
/// ones on a small SP graph: same mapping, same predicted makespan.
TEST(MapperRegistry, MatchesDirectConstruction) {
  Rng rng(5);
  const Dag dag = generate_sp_dag(14, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  const Platform platform = testing::cpu_fpga_platform();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);

  const auto expect_same = [&](const char* spec, Mapper& direct) {
    Rng registry_rng(9);
    auto from_registry =
        MapperRegistry::instance().create(spec, dag, registry_rng);
    const MapperResult a = direct.map(eval);
    const MapperResult b = from_registry->map(eval);
    EXPECT_EQ(a.mapping.device, b.mapping.device) << spec;
    EXPECT_DOUBLE_EQ(a.predicted_makespan, b.predicted_makespan) << spec;
    EXPECT_EQ(direct.name(), from_registry->name()) << spec;
  };

  HeftMapper heft;
  expect_same("heft", heft);

  PeftMapper peft;
  expect_same("peft", peft);

  Nsga2Params ga;
  ga.generations = 5;
  ga.seed = 77;
  Nsga2Mapper nsga(ga);
  expect_same("nsga:generations=5,seed=77", nsga);
}

/// The contract for "no feasible mapping exists": every registered mapper
/// returns a mapping of the graph's size that prices at kInfeasible. Here
/// the only device is an FPGA too small for any task, so repair and
/// fallbacks that move tasks to the default device have nowhere to go.
TEST(MapperRegistry, EveryMapperReturnsOnInfeasibleFpgaOnlyPlatform) {
  Rng rng(4);
  const Dag dag = generate_sp_dag(4, rng);
  const TaskAttrs attrs = random_task_attrs(dag, rng);
  Platform platform;
  Device fpga;
  fpga.name = "fpga";
  fpga.kind = DeviceKind::Fpga;
  fpga.area_budget = 0.001;
  fpga.stream_gops_per_streamability = 1.0;
  platform.add_device(fpga);
  platform.validate();
  const CostModel cost(dag, attrs, platform);
  const Evaluator eval(cost);

  const MapperRegistry& registry = MapperRegistry::instance();
  for (const std::string& name : registry.names()) {
    std::string spec = name;
    if (name == "nsga") spec += ":generations=5,pop=10";
    if (registry.at(name).supports_option("max-nodes")) {
      spec += ":time-limit=2,max-nodes=100";
    }
    Rng mapper_rng(1);
    const MapperResult r = registry.create(spec, dag, mapper_rng)->map(eval);
    EXPECT_EQ(r.mapping.size(), dag.node_count()) << spec;
    EXPECT_EQ(r.predicted_makespan, kInfeasible) << spec;
  }
}

TEST(MapperRegistry, DuplicateRegistrationThrows) {
  MapperEntry entry;
  entry.name = "spff";  // collides with the builtin
  entry.display_name = "Dup";
  entry.factory = [](const MapperContext&) -> std::unique_ptr<Mapper> {
    return nullptr;
  };
  EXPECT_THROW(MapperRegistry::instance().add(std::move(entry)), Error);
}

}  // namespace
}  // namespace spmap
