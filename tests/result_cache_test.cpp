/// Differential + property battery for the result cache
/// (serve/result_cache.hpp) and its MappingService integration.
///
/// The load-bearing claims, each proven here:
///  * a cache hit is bit-identical to recomputation (repeated submits
///    hit and return the original report, trajectory included);
///  * the LRU honors both the entry bound and the byte bound, evicting
///    in recency order, and never admits oversized entries;
///  * uncacheable jobs (deadlines, unpinned rng) report kNone and never
///    enter the memo;
///  * the sharded cache survives concurrent hammering (run under
///    ASan+UBSan in CI's sanitize job).

#include "serve/result_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "serve/mapping_service.hpp"

namespace spmap {
namespace {

std::shared_ptr<const TaskGraph> make_graph(std::uint64_t seed,
                                            std::size_t tasks = 24) {
  Rng rng(seed);
  auto tg = std::make_shared<TaskGraph>();
  tg->dag = generate_sp_dag(tasks, rng);
  tg->attrs = random_task_attrs(tg->dag, rng);
  return tg;
}

std::shared_ptr<const Platform> make_platform() {
  return std::make_shared<const Platform>(reference_platform());
}

/// A cacheable job: pinned construction rng, no deadline anywhere.
MapJob make_job(const std::shared_ptr<const TaskGraph>& graph,
                const std::shared_ptr<const Platform>& platform,
                const std::string& spec, std::uint64_t rng_seed = 123) {
  MapJob job;
  job.mapper_spec = spec;
  job.graph = graph;
  job.platform = platform;
  job.construction_rng = Rng(rng_seed);
  return job;
}

Digest key_of(std::uint64_t i) {
  return ContentHasher().u64(i).digest();
}

MapJobResult result_of(double makespan, std::size_t payload_tasks = 8) {
  MapJobResult result;
  result.report.mapping = Mapping(payload_tasks, DeviceId{0});
  result.report.predicted_makespan = makespan;
  result.reported_makespan = makespan;
  return result;
}

// ---- ResultCache unit properties (shards=1: bounds are exact) ----

TEST(ResultCache, LruEvictsInRecencyOrderUnderTheEntryBound) {
  ResultCache cache({.shards = 1, .max_entries = 3, .max_bytes = 0});
  for (std::uint64_t i = 0; i < 3; ++i) {
    cache.insert(key_of(i), result_of(1.0 + i));
  }
  // Touch 0 so 1 becomes the LRU entry, then overflow.
  EXPECT_TRUE(cache.lookup(key_of(0)).has_value());
  cache.insert(key_of(3), result_of(4.0));
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_of(0)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.inserts, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 4u);
}

TEST(ResultCache, ByteBoundEvictsAndOversizedEntriesAreNotAdmitted) {
  const std::size_t one = ResultCache::approx_bytes(result_of(1.0));
  ResultCache cache({.shards = 1, .max_entries = 0, .max_bytes = 3 * one});
  for (std::uint64_t i = 0; i < 3; ++i) {
    cache.insert(key_of(i), result_of(1.0 + i));
  }
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_LE(cache.stats().bytes, 3 * one);

  // A fourth same-sized entry forces an LRU eviction to fit the budget.
  cache.insert(key_of(3), result_of(4.0));
  EXPECT_FALSE(cache.lookup(key_of(0)).has_value());
  EXPECT_LE(cache.stats().bytes, 3 * one);

  // An entry bigger than the whole shard budget is simply dropped.
  MapJobResult huge = result_of(9.0);
  huge.report.mapping = Mapping(100000, DeviceId{0});
  ASSERT_GT(ResultCache::approx_bytes(huge), 3 * one);
  cache.insert(key_of(99), huge);
  EXPECT_FALSE(cache.lookup(key_of(99)).has_value());
  EXPECT_LE(cache.stats().bytes, 3 * one);
}

TEST(ResultCache, InsertRefreshesInsteadOfDuplicating) {
  ResultCache cache({.shards = 1, .max_entries = 4, .max_bytes = 0});
  cache.insert(key_of(1), result_of(1.0));
  cache.insert(key_of(1), result_of(2.0));
  EXPECT_EQ(cache.stats().entries, 1u);
  const auto entry = cache.lookup(key_of(1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->report.predicted_makespan, 2.0);
}

// ---- MappingService integration ----

TEST(ResultCacheService, RepeatedSubmitsHitWithBitIdenticalReports) {
  const auto graph = make_graph(11);
  const auto platform = make_platform();
  const auto cache = std::make_shared<ResultCache>();
  MappingService service({.workers = 2, .cache = cache});

  MapJob first = make_job(graph, platform, "anneal:iters=400,seed=5");
  first.reporting_orders = 8;
  const auto cold_handle = service.submit(std::move(first));
  const MapJobResult& cold = cold_handle.wait();
  ASSERT_TRUE(cold.error.empty()) << cold.error;
  EXPECT_EQ(cold.report.cache, CacheOutcome::kMiss);

  for (int repeat = 0; repeat < 3; ++repeat) {
    MapJob again = make_job(graph, platform, "anneal:iters=400,seed=5");
    again.reporting_orders = 8;
    const auto hit_handle = service.submit(std::move(again));
    const MapJobResult& hit = hit_handle.wait();
    ASSERT_TRUE(hit.error.empty()) << hit.error;
    EXPECT_EQ(hit.report.cache, CacheOutcome::kHit);
    // Bit-identical to the original run, trajectory included.
    EXPECT_EQ(hit.report.mapping, cold.report.mapping);
    EXPECT_EQ(hit.report.predicted_makespan, cold.report.predicted_makespan);
    EXPECT_EQ(hit.reported_makespan, cold.reported_makespan);
    EXPECT_EQ(hit.baseline_makespan, cold.baseline_makespan);
    EXPECT_EQ(hit.report.iterations, cold.report.iterations);
    EXPECT_EQ(hit.report.evaluations, cold.report.evaluations);
    ASSERT_EQ(hit.report.trajectory.size(), cold.report.trajectory.size());
    for (std::size_t i = 0; i < hit.report.trajectory.size(); ++i) {
      EXPECT_EQ(hit.report.trajectory[i].makespan,
                cold.report.trajectory[i].makespan);
      EXPECT_EQ(hit.report.trajectory[i].iteration,
                cold.report.trajectory[i].iteration);
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.done, 4u);
  // A different rng pin is a different computation: no false hit.
  MapJob other = make_job(graph, platform, "anneal:iters=400,seed=5", 999);
  other.reporting_orders = 8;
  const auto other_handle = service.submit(std::move(other));
  EXPECT_EQ(other_handle.wait().report.cache, CacheOutcome::kMiss);
}

TEST(ResultCacheService, HitsBypassTheQueueAndFireTerminalSynchronously) {
  const auto graph = make_graph(12, 15);
  const auto platform = make_platform();
  const auto cache = std::make_shared<ResultCache>();
  MappingService service({.workers = 1, .max_queued = 1, .cache = cache});
  const auto primer = service.submit(make_job(graph, platform, "heft"));
  primer.wait();

  // Saturate the worker and the one queue slot.
  MapRequest slow;
  slow.deadline_ms = 60000.0;
  auto running = service.submit(
      make_job(graph, platform, "anneal:iters=500000000"), slow);
  while (running.status() == JobStatus::kQueued) std::this_thread::yield();
  auto queued = service.submit(make_job(graph, platform, "spff"));

  // A full queue still admits a hit: it is answered inline, on this
  // thread, before submit returns.
  std::atomic<bool> fired{false};
  const auto submitter = std::this_thread::get_id();
  MapJob repeat = make_job(graph, platform, "heft");
  repeat.on_terminal = [&](std::uint64_t, JobStatus status,
                           const MapJobResult& result) {
    EXPECT_EQ(status, JobStatus::kDone);
    EXPECT_EQ(result.report.cache, CacheOutcome::kHit);
    EXPECT_EQ(std::this_thread::get_id(), submitter);
    fired = true;
  };
  auto handle = service.submit(std::move(repeat));
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.status(), JobStatus::kDone);

  running.cancel();
  service.wait_all();
  EXPECT_TRUE(queued.done());
}

TEST(ResultCacheService, UncacheableJobsReportNoneAndNeverInsert) {
  const auto graph = make_graph(15, 15);
  const auto platform = make_platform();
  const auto cache = std::make_shared<ResultCache>();
  MappingService service({.workers = 1, .cache = cache});

  // Unpinned rng: the derived stream is unique per submission.
  MapJob unpinned;
  unpinned.mapper_spec = "heft";
  unpinned.graph = graph;
  unpinned.platform = platform;
  const auto unpinned_handle = service.submit(std::move(unpinned));
  EXPECT_EQ(unpinned_handle.wait().report.cache, CacheOutcome::kNone);

  // Request-level wall-clock deadline.
  MapRequest deadline;
  deadline.deadline_ms = 60000.0;
  const auto deadline_handle =
      service.submit(make_job(graph, platform, "heft"), deadline);
  EXPECT_EQ(deadline_handle.wait().report.cache, CacheOutcome::kNone);

  // Spec-level deadline (including nested init= specs).
  const auto spec_handle =
      service.submit(make_job(graph, platform, "heft:deadline_ms=60000"));
  EXPECT_EQ(spec_handle.wait().report.cache, CacheOutcome::kNone);

  EXPECT_EQ(cache->stats().inserts, 0u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
  EXPECT_EQ(service.stats().cache_misses, 0u);
}

// ---- concurrency stress (meant for the ASan+UBSan CI job) ----

TEST(ResultCacheStress, ConcurrentHammeringOfATinyShardedCache) {
  ResultCache cache({.shards = 4, .max_entries = 16, .max_bytes = 1 << 16});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(1000 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const Digest key = key_of(rng.below(64));
        if (rng.below(2) == 0) {
          cache.insert(key, result_of(rng.uniform()));
        } else if (const auto entry = cache.lookup(key)) {
          // Entries must always come back whole.
          ASSERT_EQ(entry->report.mapping.size(), 8u);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const ResultCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 16u);
  EXPECT_LE(stats.bytes, std::size_t{1} << 16);
}

TEST(ResultCacheStress, ServiceWithTinyCacheUnderRepeatedSubmits) {
  const auto platform = make_platform();
  std::vector<std::shared_ptr<const TaskGraph>> graphs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    graphs.push_back(make_graph(80 + s, 12));
  }
  const auto cache = std::make_shared<ResultCache>(
      ResultCacheOptions{.shards = 2, .max_entries = 4, .max_bytes = 0});
  MappingService service({.workers = 4, .cache = cache});

  std::vector<std::thread> submitters;
  std::atomic<std::size_t> errors{0};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 24; ++i) {
        MapJob job = make_job(graphs[(t + i) % graphs.size()], platform,
                              i % 2 == 0 ? "heft" : "spff");
        const auto handle = service.submit(std::move(job));
        if (!handle.wait().error.empty()) ++errors;
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  service.wait_all();

  EXPECT_EQ(errors.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            stats.done + stats.failed + stats.cancelled);
  EXPECT_EQ(stats.failed, 0u);
  // 96 submits over at most 8 distinct computations: mostly hits.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_LE(cache->stats().entries, 4u);
}

}  // namespace
}  // namespace spmap
