/// Property battery for the canonical content hashes under the result
/// cache (util/content_hash.hpp + sched/problem_hash.hpp).
///
/// The hashes carry the cache's entire correctness argument: equal keys
/// must mean equal computations (else the memo silently serves wrong
/// results), and cosmetic respellings — JSON key order, float
/// round-trips, save/load — must not change the digest (else the cache
/// never hits). Both directions are fuzzed over hundreds of randomized
/// graphs/platforms.

#include "util/content_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "model/platform.hpp"
#include "sched/problem_hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace spmap {
namespace {

// ---- ContentHasher primitives ----

TEST(ContentHasher, DeterministicAndOrderSensitive) {
  const Digest a = ContentHasher().u64(1).u64(2).digest();
  const Digest b = ContentHasher().u64(1).u64(2).digest();
  const Digest c = ContentHasher().u64(2).u64(1).digest();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ContentHasher, DomainSeparationByType) {
  // u64(1),u64(2) must not collide with any single-string spelling.
  const Digest ints = ContentHasher().u64(1).u64(2).digest();
  const Digest str = ContentHasher().str("\x01\x02").digest();
  EXPECT_NE(ints, str);
  // Length-prefixed strings: "ab","c" vs "a","bc".
  EXPECT_NE(ContentHasher().str("ab").str("c").digest(),
            ContentHasher().str("a").str("bc").digest());
  // Signed vs unsigned vs double spellings of the same number.
  EXPECT_NE(ContentHasher().u64(1).digest(), ContentHasher().i64(1).digest());
  EXPECT_NE(ContentHasher().u64(1).digest(), ContentHasher().f64(1.0).digest());
  EXPECT_NE(ContentHasher().boolean(true).digest(),
            ContentHasher().u64(1).digest());
}

TEST(ContentHasher, DomainStringsSeparateHashers) {
  const Digest a = ContentHasher("graph").u64(7).digest();
  const Digest b = ContentHasher("platform").u64(7).digest();
  EXPECT_NE(a, b);
}

TEST(ContentHasher, DoublesHashByBitPattern) {
  // -0.0 == 0.0 numerically but is a different bit pattern — and a
  // different JSON serialization, so it must be a different identity.
  EXPECT_NE(ContentHasher().f64(0.0).digest(),
            ContentHasher().f64(-0.0).digest());
  // Round-tripping a double through its bits is the identity the JSON
  // layer guarantees (%.17g): same value, same digest.
  const double value = 0.1 + 0.2;
  EXPECT_EQ(ContentHasher().f64(value).digest(),
            ContentHasher().f64(value).digest());
}

TEST(ContentHasher, DigestChainingMatters) {
  const Digest inner = ContentHasher().str("inner").digest();
  const Digest other = ContentHasher().str("other").digest();
  EXPECT_NE(ContentHasher().digest(inner).digest(),
            ContentHasher().digest(other).digest());
}

TEST(ContentHasher, HexIs32LowercaseChars) {
  const std::string hex = ContentHasher().u64(42).digest().hex();
  EXPECT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

// ---- hash_json canonicalization ----

TEST(HashJson, KeyOrderIsCosmetic) {
  Json a = Json::object();
  a.set("alpha", Json(1.0));
  a.set("beta", Json("x"));
  a.set("gamma", Json(true));
  Json b = Json::object();
  b.set("gamma", Json(true));
  b.set("alpha", Json(1.0));
  b.set("beta", Json("x"));
  EXPECT_EQ(hash_json(a), hash_json(b));
}

TEST(HashJson, ArrayOrderIsData) {
  Json a = Json::array();
  a.push_back(Json(1.0));
  a.push_back(Json(2.0));
  Json b = Json::array();
  b.push_back(Json(2.0));
  b.push_back(Json(1.0));
  EXPECT_NE(hash_json(a), hash_json(b));
}

TEST(HashJson, ValueChangesChangeTheDigest) {
  Json a = Json::object();
  a.set("k", Json(1.0));
  Json b = Json::object();
  b.set("k", Json(2.0));
  Json c = Json::object();
  c.set("K", Json(1.0));
  EXPECT_NE(hash_json(a), hash_json(b));
  EXPECT_NE(hash_json(a), hash_json(c));
}

TEST(HashJson, SerializationRoundTripIsStable) {
  // A reparse of the serialized document (fresh key order, reparsed
  // doubles) must hash identically — the property that makes JSON-borne
  // graphs cacheable at all.
  Json doc = Json::object();
  doc.set("threshold", Json(0.1 + 0.2));
  doc.set("negzero", Json(-0.0));
  Json nested = Json::object();
  nested.set("b", Json(2.5));
  nested.set("a", Json("v"));
  doc.set("nested", std::move(nested));
  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(hash_json(doc), hash_json(reparsed));
}

// ---- task graph hashes ----

TaskGraph random_graph(std::uint64_t seed, std::size_t tasks = 16) {
  Rng rng(seed);
  TaskGraph tg;
  tg.dag = generate_sp_dag(tasks, rng);
  tg.attrs = random_task_attrs(tg.dag, rng);
  return tg;
}

/// Rebuilds `graph` with node ids permuted by `perm` (new id of old node
/// v is perm[v]); edges keep their payloads, attrs follow their nodes.
TaskGraph relabel(const TaskGraph& graph,
                  const std::vector<std::uint32_t>& perm) {
  const std::size_t n = graph.dag.node_count();
  TaskGraph out;
  out.dag = Dag(n);
  // Insert edges sorted by (new src, new dst) so adjacency lists are in a
  // genuinely different order than the original's.
  struct E {
    std::uint32_t src, dst;
    double mb;
  };
  std::vector<E> edges;
  for (std::size_t e = 0; e < graph.dag.edge_count(); ++e) {
    const EdgeId id(e);
    edges.push_back({perm[graph.dag.src(id).v], perm[graph.dag.dst(id).v],
                     graph.dag.data_mb(id)});
  }
  std::sort(edges.begin(), edges.end(), [](const E& a, const E& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  for (const E& e : edges) out.dag.add_edge(NodeId(e.src), NodeId(e.dst), e.mb);
  out.attrs.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    out.attrs.complexity[perm[v]] = graph.attrs.complexity[v];
    out.attrs.parallelizability[perm[v]] = graph.attrs.parallelizability[v];
    out.attrs.streamability[perm[v]] = graph.attrs.streamability[v];
    out.attrs.area[perm[v]] = graph.attrs.area[v];
  }
  return out;
}

TEST(TaskGraphHash, SaveLoadRoundTripIsStable) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const TaskGraph graph = random_graph(seed);
    const TaskGraph loaded =
        task_graph_from_json(to_json(graph.dag, graph.attrs));
    EXPECT_EQ(task_graph_hash(graph), task_graph_hash(loaded)) << seed;
  }
}

TEST(TaskGraphHash, ExactHashIsLabelingSensitive) {
  Rng rng(99);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const TaskGraph graph = random_graph(seed);
    const std::size_t n = graph.dag.node_count();
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    const TaskGraph shuffled = relabel(graph, perm);

    // The computation identity follows the labeling whenever the
    // permutation actually moved a node.
    bool moved = false;
    for (std::size_t v = 0; v < n; ++v) moved = moved || perm[v] != v;
    if (moved) {
      EXPECT_NE(task_graph_hash(graph), task_graph_hash(shuffled)) << seed;
    }
  }
}

TEST(TaskGraphHash, FuzzSingleFieldMutationsChangeTheHash) {
  // 500+ mutation probes: any single model-field change is a different
  // computation, so the identity must move.
  int probes = 0;
  for (std::uint64_t seed = 1; probes < 500; ++seed) {
    const TaskGraph graph = random_graph(seed, 12);
    const Digest exact = task_graph_hash(graph);
    Rng rng(seed * 7919 + 1);
    for (int m = 0; m < 8; ++m, ++probes) {
      TaskGraph mutated = graph;
      const std::size_t v = rng.below(graph.dag.node_count());
      switch (rng.below(5)) {
        case 0:
          mutated.attrs.complexity[v] += 0.5;
          break;
        case 1:
          mutated.attrs.parallelizability[v] =
              mutated.attrs.parallelizability[v] > 0.5 ? 0.25 : 0.75;
          break;
        case 2:
          mutated.attrs.streamability[v] += 0.5;
          break;
        case 3:
          mutated.attrs.area[v] += 1.0;
          break;
        default: {
          const EdgeId e(static_cast<std::uint32_t>(
              rng.below(graph.dag.edge_count())));
          mutated.dag.set_data_mb(e, mutated.dag.data_mb(e) + 1.0);
          break;
        }
      }
      EXPECT_NE(task_graph_hash(mutated), exact) << seed << " probe " << m;
    }
  }
}

// ---- platform hash ----

/// Parameterized CPU+FPGA platform so mutation fuzzing can rebuild any
/// single-field variant (Platform devices are immutable once added).
struct PlatformParams {
  std::string cpu_name = "cpu";
  double lanes = 4.0;
  double lane_gops = 1.5;
  std::size_t slots = 2;
  double area_budget = 1000.0;
  double stream_gops = 1.0;
  double fill_fraction = 0.1;
  double bandwidth_gbps = 1.0;
  double latency_s = 0.0;
};

Platform build_platform(const PlatformParams& p) {
  Platform platform;
  Device cpu;
  cpu.name = p.cpu_name;
  cpu.kind = DeviceKind::Cpu;
  cpu.lanes = p.lanes;
  cpu.lane_gops = p.lane_gops;
  cpu.slots = p.slots;
  const DeviceId c = platform.add_device(cpu);
  Device fpga;
  fpga.name = "fpga";
  fpga.kind = DeviceKind::Fpga;
  fpga.area_budget = p.area_budget;
  fpga.stream_gops_per_streamability = p.stream_gops;
  fpga.stream_fill_fraction = p.fill_fraction;
  const DeviceId f = platform.add_device(fpga);
  platform.set_link(c, f, p.bandwidth_gbps, p.latency_s);
  return platform;
}

TEST(PlatformHash, MutationsChangeTheDigestNamesDoNot) {
  int probes = 0;
  for (std::uint64_t seed = 1; probes < 100; ++seed) {
    Rng rng(seed);
    PlatformParams params;
    // A random base point so the fuzz covers more than one platform.
    params.lanes = 1.0 + rng.below(8);
    params.lane_gops = 0.5 + rng.uniform();
    params.bandwidth_gbps = 0.5 + rng.uniform();
    const Digest base = platform_hash(build_platform(params));
    EXPECT_EQ(platform_hash(build_platform(params)), base) << seed;

    // Device names are presentation, not model content.
    PlatformParams renamed = params;
    renamed.cpu_name = "whatever";
    EXPECT_EQ(platform_hash(build_platform(renamed)), base) << seed;

    for (int m = 0; m < 4; ++m, ++probes) {
      PlatformParams mutated = params;
      switch (rng.below(7)) {
        case 0: mutated.lanes += 1.0; break;
        case 1: mutated.lane_gops += 1.0; break;
        case 2: mutated.slots += 1; break;
        case 3: mutated.area_budget += 16.0; break;
        case 4: mutated.fill_fraction = mutated.fill_fraction * 0.5 + 0.01; break;
        case 5: mutated.bandwidth_gbps += 0.25; break;
        default: mutated.latency_s += 0.125; break;
      }
      EXPECT_NE(platform_hash(build_platform(mutated)), base)
          << seed << " probe " << m;
    }
  }
}

TEST(PlatformHash, ReferencePlatformIsStable) {
  EXPECT_EQ(platform_hash(reference_platform()),
            platform_hash(reference_platform()));
}

}  // namespace
}  // namespace spmap
