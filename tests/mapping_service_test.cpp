/// The async MappingService job layer (serve/mapping_service.hpp): FIFO
/// jobs with status/poll/cancel/wait, results bit-identical for every
/// worker count, deterministic per-job seeds, and failure/cancellation
/// lifecycles.

#include <gtest/gtest.h>

#include <thread>

#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "serve/mapping_service.hpp"
#include "sched/evaluator.hpp"

namespace spmap {
namespace {

std::shared_ptr<const TaskGraph> make_graph(std::uint64_t seed,
                                            std::size_t tasks = 30) {
  Rng rng(seed);
  auto tg = std::make_shared<TaskGraph>();
  tg->dag = generate_sp_dag(tasks, rng);
  tg->attrs = random_task_attrs(tg->dag, rng);
  return tg;
}

std::shared_ptr<const Platform> make_platform() {
  return std::make_shared<const Platform>(reference_platform());
}

MapJob make_job(const std::shared_ptr<const TaskGraph>& graph,
                const std::shared_ptr<const Platform>& platform,
                const std::string& spec) {
  MapJob job;
  job.mapper_spec = spec;
  job.graph = graph;
  job.platform = platform;
  return job;
}

TEST(MappingService, RunsJobsAndReportsResults) {
  const auto graph = make_graph(41);
  const auto platform = make_platform();
  MappingService service({.workers = 2});
  auto heft = service.submit(make_job(graph, platform, "heft"));
  auto spff = service.submit(make_job(graph, platform, "spff"));
  const MapJobResult& rh = heft.wait();
  const MapJobResult& rs = spff.wait();
  EXPECT_TRUE(rh.error.empty()) << rh.error;
  EXPECT_TRUE(rs.error.empty()) << rs.error;
  EXPECT_EQ(heft.status(), JobStatus::kDone);
  EXPECT_TRUE(heft.done());
  EXPECT_EQ(rh.report.termination, TerminationReason::kConverged);
  EXPECT_LT(rh.report.predicted_makespan, kInfeasible);
  EXPECT_EQ(rh.report.mapping.size(), graph->dag.node_count());
  // reporting skipped by default: reported == predicted, no baseline
  EXPECT_EQ(rh.reported_makespan, rh.report.predicted_makespan);
  EXPECT_EQ(rh.baseline_makespan, 0.0);
}

TEST(MappingService, ReportingProtocolMatchesDirectEvaluation) {
  const auto graph = make_graph(42);
  const auto platform = make_platform();
  MappingService service({.workers = 1});
  MapJob job = make_job(graph, platform, "heft");
  job.reporting_orders = 16;
  const auto handle = service.submit(std::move(job));
  const MapJobResult& r = handle.wait();
  ASSERT_TRUE(r.error.empty()) << r.error;

  const CostModel cost(graph->dag, graph->attrs, *platform);
  const Evaluator reporting(cost, {.random_orders = 16});
  EXPECT_EQ(r.baseline_makespan, reporting.default_mapping_makespan());
  EXPECT_EQ(r.reported_makespan, reporting.evaluate(r.report.mapping));
}

TEST(MappingService, ResultsBitIdenticalAcrossWorkerCounts) {
  const auto platform = make_platform();
  std::vector<std::shared_ptr<const TaskGraph>> graphs;
  for (std::uint64_t s = 0; s < 4; ++s) graphs.push_back(make_graph(50 + s));
  const std::vector<std::string> specs{"heft", "spff",
                                       "anneal:iters=500,seed=3", "sn"};

  auto run_all = [&](std::size_t workers) {
    MappingService service({.workers = workers});
    std::vector<MappingService::JobHandle> handles;
    for (const auto& graph : graphs) {
      for (const auto& spec : specs) {
        MapJob job = make_job(graph, platform, spec);
        job.reporting_orders = 8;
        handles.push_back(service.submit(std::move(job)));
      }
    }
    std::vector<MapJobResult> results;
    for (auto& h : handles) results.push_back(h.wait());
    return results;
  };

  const auto serial = run_all(1);
  const auto parallel = run_all(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].error.empty()) << serial[i].error;
    EXPECT_EQ(serial[i].report.mapping, parallel[i].report.mapping) << i;
    EXPECT_EQ(serial[i].report.predicted_makespan,
              parallel[i].report.predicted_makespan)
        << i;
    EXPECT_EQ(serial[i].reported_makespan, parallel[i].reported_makespan)
        << i;
    EXPECT_EQ(serial[i].baseline_makespan, parallel[i].baseline_makespan)
        << i;
  }
}

TEST(MappingService, DerivedJobSeedsAreDeterministic) {
  const auto graph = make_graph(60);
  const auto platform = make_platform();
  // "sp" consumes the construction rng (random cut policy): two services
  // with the same seed must derive the same per-job streams; a different
  // service seed may not. Unseeded stochastic mappers draw from the same
  // stream too.
  auto run_one = [&](std::uint64_t seed) {
    MappingService service({.workers = 1, .seed = seed});
    const auto handle =
        service.submit(make_job(graph, platform, "anneal:iters=300"));
    const MapJobResult& r = handle.wait();
    EXPECT_TRUE(r.error.empty()) << r.error;
    return r.report.mapping;
  };
  const Mapping a = run_one(7);
  const Mapping b = run_one(7);
  EXPECT_EQ(a, b);
}

TEST(MappingService, ExplicitConstructionRngPinsTheRun) {
  const auto graph = make_graph(61);
  const auto platform = make_platform();
  auto run_one = [&](std::uint64_t service_seed) {
    MappingService service({.workers = 1, .seed = service_seed});
    MapJob job = make_job(graph, platform, "anneal:iters=300");
    job.construction_rng = Rng(123);
    const auto handle = service.submit(std::move(job));
    const MapJobResult& r = handle.wait();
    EXPECT_TRUE(r.error.empty()) << r.error;
    return r.report.mapping;
  };
  // Different service seeds, same pinned rng: identical runs.
  EXPECT_EQ(run_one(1), run_one(2));
}

TEST(MappingService, FailedJobExplains) {
  const auto graph = make_graph(62);
  const auto platform = make_platform();
  MappingService service({.workers = 1});
  auto handle = service.submit(make_job(graph, platform, "hft"));
  const MapJobResult& r = handle.wait();
  EXPECT_EQ(handle.status(), JobStatus::kFailed);
  EXPECT_NE(r.error.find("unknown mapper"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("did you mean 'heft'?"), std::string::npos)
      << r.error;
}

TEST(MappingService, CancelQueuedJobSkipsExecution) {
  const auto graph = make_graph(63);
  const auto platform = make_platform();
  MappingService service({.workers = 1});
  // Occupy the single worker, then cancel a queued job before it runs.
  MapRequest slow;
  slow.deadline_ms = 200.0;
  auto running = service.submit(
      make_job(graph, platform, "anneal:iters=500000000"), slow);
  auto queued = service.submit(make_job(graph, platform, "heft"));
  queued.cancel();
  EXPECT_EQ(queued.wait().error, "cancelled before execution");
  EXPECT_EQ(queued.status(), JobStatus::kCancelled);
  const MapJobResult& r = running.wait();
  EXPECT_TRUE(r.error.empty()) << r.error;
}

TEST(MappingService, CancelRunningJobReturnsIncumbent) {
  const auto graph = make_graph(64);
  const auto platform = make_platform();
  MappingService service({.workers = 1});
  auto handle = service.submit(
      make_job(graph, platform, "anneal:iters=500000000,restarts=4"));
  // Poll until the worker picked it up, then cancel cooperatively.
  while (handle.status() == JobStatus::kQueued) {
    std::this_thread::yield();
  }
  handle.cancel();
  const MapJobResult& r = handle.wait();
  EXPECT_EQ(handle.status(), JobStatus::kDone);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.report.termination, TerminationReason::kCancelled);
  EXPECT_LT(r.report.predicted_makespan, kInfeasible);
}

TEST(MappingService, WaitAllDrainsTheQueue) {
  const auto graph = make_graph(65, 15);
  const auto platform = make_platform();
  MappingService service({.workers = 3});
  std::vector<MappingService::JobHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(service.submit(make_job(graph, platform, "heft")));
  }
  service.wait_all();
  for (auto& h : handles) {
    EXPECT_TRUE(h.done());
    EXPECT_EQ(h.status(), JobStatus::kDone);
  }
}

TEST(MappingService, JobIdsFollowSubmissionOrder) {
  const auto graph = make_graph(66, 10);
  const auto platform = make_platform();
  MappingService service({.workers = 2});
  auto a = service.submit(make_job(graph, platform, "cpu"));
  auto b = service.submit(make_job(graph, platform, "cpu"));
  EXPECT_EQ(a.id() + 1, b.id());
  service.wait_all();
}

TEST(MappingService, RequestBoundsApplyPerJob) {
  const auto graph = make_graph(67);
  const auto platform = make_platform();
  MappingService service({.workers = 2});
  MapRequest budget;
  budget.max_iterations = 50;
  auto handle = service.submit(
      make_job(graph, platform, "hillclimb:iters=5000,seed=2"), budget);
  const MapJobResult& r = handle.wait();
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.report.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(r.report.iterations, 50u);
}

TEST(MappingService, BakedSpecBoundsApplyWithoutExplicitRequest) {
  const auto graph = make_graph(68);
  const auto platform = make_platform();
  MappingService service({.workers = 1});
  // No submit-time request: the bounds baked into the spec must bind.
  auto handle = service.submit(
      make_job(graph, platform, "hillclimb:iters=5000,seed=2,max_iters=50"));
  const MapJobResult& r = handle.wait();
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.report.termination, TerminationReason::kBudgetExhausted);
  EXPECT_EQ(r.report.iterations, 50u);

  // ... and tighten, not shadow, an explicit submit-time request.
  MapRequest loose;
  loose.max_iterations = 10000;
  auto tightened = service.submit(
      make_job(graph, platform, "hillclimb:iters=5000,seed=2,max_iters=50"),
      loose);
  EXPECT_EQ(tightened.wait().report.iterations, 50u);
}

TEST(MappingService, SharedReportingContextMatchesPerJobReporting) {
  const auto graph = make_graph(69);
  const auto platform = make_platform();
  const auto shared =
      std::make_shared<const ReportingContext>(graph, platform, 16);
  MappingService service({.workers = 2});

  MapJob with_context = make_job(graph, platform, "heft");
  with_context.reporting = shared;
  MapJob per_job = make_job(graph, platform, "heft");
  per_job.reporting_orders = 16;

  auto a = service.submit(std::move(with_context));
  auto b = service.submit(std::move(per_job));
  const MapJobResult& ra = a.wait();
  const MapJobResult& rb = b.wait();
  ASSERT_TRUE(ra.error.empty()) << ra.error;
  ASSERT_TRUE(rb.error.empty()) << rb.error;
  EXPECT_EQ(ra.reported_makespan, rb.reported_makespan);
  EXPECT_EQ(ra.baseline_makespan, rb.baseline_makespan);
}

TEST(MappingService, CancelIsPerJobEvenWithASharedRequest) {
  const auto graph = make_graph(70, 15);
  const auto platform = make_platform();
  MappingService service({.workers = 2});
  MapRequest shared;  // one request object for the whole batch
  auto a = service.submit(make_job(graph, platform, "heft"), shared);
  auto b = service.submit(make_job(graph, platform, "heft"), shared);
  auto c = service.submit(make_job(graph, platform, "heft"), shared);
  b.cancel();
  const MapJobResult& ra = a.wait();
  const MapJobResult& rc = c.wait();
  EXPECT_TRUE(ra.error.empty()) << ra.error;
  EXPECT_TRUE(rc.error.empty()) << rc.error;
  // Cancelling b never leaks into its siblings...
  EXPECT_EQ(ra.report.termination, TerminationReason::kConverged);
  EXPECT_EQ(rc.report.termination, TerminationReason::kConverged);
  // ...while the caller's own token still cancels the whole batch.
  shared.cancel.request_cancel();
  auto d = service.submit(make_job(graph, platform, "heft"), shared);
  EXPECT_EQ(d.wait().report.termination, TerminationReason::kCancelled);
}

TEST(MappingService, TrySubmitBoundsEachClassAndSubmitAlwaysAdmits) {
  const auto graph = make_graph(71, 15);
  const auto platform = make_platform();
  MappingService service({.workers = 1, .max_queued = 4});
  MapRequest slow;
  slow.deadline_ms = 60000.0;
  auto running = service.submit(
      make_job(graph, platform, "anneal:iters=500000000"), slow);
  while (running.status() == JobStatus::kQueued) std::this_thread::yield();

  // Graduated class bounds of max_queued=4: priority 0 may find up to 2
  // waiting jobs, priority 1 up to 3, priority 2 up to 4.
  std::vector<MappingService::JobHandle> queued;
  for (const int priority : {0, 0, 0, 1, 1, 2, 2}) {
    MapJob job = make_job(graph, platform, "heft");
    job.priority = priority;
    auto handle = service.try_submit(std::move(job));
    if (handle.has_value()) queued.push_back(*std::move(handle));
  }
  EXPECT_EQ(queued.size(), 4u);
  // submit is not bounded.
  queued.push_back(service.submit(make_job(graph, platform, "heft")));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.queued, 5u);
  EXPECT_EQ(stats.running, 1u);

  running.cancel();
  service.wait_all();
  for (const auto& handle : queued) EXPECT_TRUE(handle.done());
}

TEST(MappingService, WorkersServeHigherPrioritiesFirst) {
  const auto graph = make_graph(73, 15);
  const auto platform = make_platform();
  MappingService service({.workers = 1});
  std::mutex order_mutex;
  std::vector<std::uint64_t> order;
  const auto record = [&](std::uint64_t id, JobStatus,
                          const MapJobResult&) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(id);
  };

  MapRequest slow;
  slow.deadline_ms = 60000.0;
  auto running = service.submit(
      make_job(graph, platform, "anneal:iters=500000000"), slow);
  while (running.status() == JobStatus::kQueued) std::this_thread::yield();

  // Queued while the worker is busy, in submission order low, high,
  // normal, high — must execute high, high (FIFO within the class),
  // normal, low.
  std::vector<MappingService::JobHandle> handles;
  for (const int priority : {0, 2, 1, 2}) {
    MapJob job = make_job(graph, platform, "heft");
    job.priority = priority;
    job.on_terminal = record;
    handles.push_back(service.submit(std::move(job)));
  }
  running.cancel();
  service.wait_all();

  std::lock_guard<std::mutex> lock(order_mutex);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], handles[1].id());  // high, submitted first
  EXPECT_EQ(order[1], handles[3].id());  // high, submitted second
  EXPECT_EQ(order[2], handles[2].id());  // normal
  EXPECT_EQ(order[3], handles[0].id());  // low
}

TEST(MappingService, OnTerminalFiresExactlyOnce) {
  const auto graph = make_graph(74, 15);
  const auto platform = make_platform();
  std::atomic<int> completed_fires{0};
  std::atomic<int> cancelled_fires{0};
  {
    MappingService service({.workers = 1});
    MapRequest slow;
    slow.deadline_ms = 60000.0;
    auto running = service.submit(
        make_job(graph, platform, "anneal:iters=500000000"), slow);
    while (running.status() == JobStatus::kQueued) {
      std::this_thread::yield();
    }

    MapJob completing = make_job(graph, platform, "heft");
    completing.on_terminal = [&](std::uint64_t, JobStatus status,
                                 const MapJobResult&) {
      EXPECT_EQ(status, JobStatus::kDone);
      ++completed_fires;
    };
    auto done_handle = service.submit(std::move(completing));

    MapJob doomed = make_job(graph, platform, "heft");
    doomed.on_terminal = [&](std::uint64_t, JobStatus status,
                             const MapJobResult& result) {
      EXPECT_EQ(status, JobStatus::kCancelled);
      EXPECT_FALSE(result.error.empty());
      ++cancelled_fires;
    };
    auto doomed_handle = service.submit(std::move(doomed));
    doomed_handle.cancel();  // fires from this thread, queued-cancel
    doomed_handle.cancel();  // idempotent: must not fire again

    running.cancel();
    service.wait_all();
    // The worker later discards the cancelled job: no second fire.
  }
  EXPECT_EQ(completed_fires.load(), 1);
  EXPECT_EQ(cancelled_fires.load(), 1);
}

TEST(MappingService, WaitForTimesOutAndCompletes) {
  const auto graph = make_graph(75, 15);
  const auto platform = make_platform();
  MappingService service({.workers = 1});
  EXPECT_TRUE(MappingService::JobHandle().wait_for(1.0));  // empty handle

  MapRequest slow;
  slow.deadline_ms = 60000.0;
  auto running = service.submit(
      make_job(graph, platform, "anneal:iters=500000000"), slow);
  EXPECT_FALSE(running.wait_for(20.0));
  running.cancel();
  EXPECT_TRUE(running.wait_for(30000.0));
  EXPECT_TRUE(running.done());
}

TEST(MappingService, StatsAccountTheWholeLifecycle) {
  const auto graph = make_graph(76, 15);
  const auto platform = make_platform();
  MappingService service({.workers = 2});
  auto ok = service.submit(make_job(graph, platform, "heft"));
  auto bad = service.submit(make_job(graph, platform, "hft"));
  service.wait_all();
  ok.wait();
  bad.wait();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.done, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

TEST(MappingService, StatsSnapshotsAreConsistentUnderLoad) {
  // Regression: lifecycle transitions used to mutate their two counters
  // in separate critical sections, so a concurrent stats() reader could
  // observe a job in neither column (queued already decremented, running
  // not yet incremented) and the invariant below would fail.
  const auto graph = make_graph(77, 10);
  const auto platform = make_platform();
  MappingService service({.workers = 4});

  std::atomic<bool> done{false};
  std::atomic<std::size_t> violations{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const ServiceStats s = service.stats();
      if (s.submitted !=
          s.queued + s.running + s.done + s.failed + s.cancelled) {
        ++violations;
      }
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      std::vector<MappingService::JobHandle> handles;
      for (int i = 0; i < 40; ++i) {
        handles.push_back(service.submit(make_job(graph, platform, "heft")));
      }
      for (const auto& h : handles) h.wait();
    });
  }
  for (auto& thread : submitters) thread.join();
  service.wait_all();
  done.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(violations.load(), 0u);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, 120u);
  EXPECT_EQ(s.done, 120u);
}

TEST(MappingService, StatusLabels) {
  EXPECT_STREQ(to_string(JobStatus::kQueued), "queued");
  EXPECT_STREQ(to_string(JobStatus::kRunning), "running");
  EXPECT_STREQ(to_string(JobStatus::kDone), "done");
  EXPECT_STREQ(to_string(JobStatus::kFailed), "failed");
  EXPECT_STREQ(to_string(JobStatus::kCancelled), "cancelled");
}

}  // namespace
}  // namespace spmap
