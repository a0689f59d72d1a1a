/// Integration tests of the serving daemon (serve/daemon.hpp): a real
/// Daemon on a unix socket (plus one TCP ephemeral-port case), driven by
/// WireClient over the actual protocol — submit/subscribe/done round
/// trips, overload rejection shape, cancel idempotence, graceful drain.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "util/error.hpp"

namespace spmap {
namespace {

/// A bound daemon with run() on its own thread; drains on destruction.
class DaemonFixture {
 public:
  explicit DaemonFixture(DaemonOptions options) {
    if (options.endpoint.path.empty() && options.endpoint.host.empty()) {
      options.endpoint = Endpoint::parse(unique_socket_path());
    }
    daemon = std::make_unique<Daemon>(std::move(options));
    daemon->bind();
    io = std::thread([this] { exit_code = daemon->run(); });
  }

  ~DaemonFixture() {
    if (io.joinable()) {
      daemon->request_drain(0.0);
      io.join();
    }
  }

  int join() {
    io.join();
    return exit_code;
  }

  static std::string unique_socket_path() {
    static int counter = 0;
    return "unix:/tmp/spmap_daemon_test_" + std::to_string(::getpid()) +
           "_" + std::to_string(++counter) + ".sock";
  }

  std::unique_ptr<Daemon> daemon;
  std::thread io;
  int exit_code = -1;
};

Json submit_frame(std::size_t tasks = 12, std::uint64_t seed = 1) {
  Json generate = Json::object();
  generate.set("type", Json("sp"));
  generate.set("tasks", Json(tasks));
  generate.set("seed", Json(seed));
  Json frame = Json::object();
  frame.set("op", Json("submit"));
  frame.set("mapper", Json("spff"));
  frame.set("generate", std::move(generate));
  return frame;
}

TEST(ServeDaemon, SubmitSubscribeDoneRoundTrip) {
  DaemonFixture fixture({.endpoint = {}, .workers = 2, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  EXPECT_EQ(client.hello_info().at("proto").as_string(), kWireProtocol);

  Json frame = submit_frame();
  frame.set("subscribe", Json(true));
  frame.set("return_mapping", Json(true));
  frame.set("tag", Json(std::size_t{7}));
  client.send(frame);

  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value());
  ASSERT_TRUE(accepted->at("ok").as_bool()) << accepted->dump();
  EXPECT_EQ(accepted->at("tag").as_int(), 7);
  const auto job = static_cast<std::uint64_t>(accepted->at("job").as_int());

  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>(done->at("job").as_int()), job);
  EXPECT_EQ(done->at("state").as_string(), "done");
  EXPECT_GT(done->at("makespan").as_double(), 0.0);
  EXPECT_TRUE(done->at("mapping").is_array());

  // status after the terminal event reports the same result.
  client.send(Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}}));
  const auto status = client.recv(10000.0);
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->at("ok").as_bool());
  EXPECT_EQ(status->at("state").as_string(), "done");
  EXPECT_DOUBLE_EQ(status->at("makespan").as_double(),
                   done->at("makespan").as_double());
}

TEST(ServeDaemon, SubscribeAfterTerminalReplaysDone) {
  DaemonFixture fixture({.endpoint = {}, .workers = 1, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  client.send(submit_frame());
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
  const auto job = static_cast<std::uint64_t>(accepted->at("job").as_int());

  // Poll status until terminal, then subscribe: the done event must be
  // replayed instead of never arriving.
  for (int i = 0; i < 600; ++i) {
    client.send(
        Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}}));
    const auto status = client.recv(10000.0);
    ASSERT_TRUE(status.has_value() && status->at("ok").as_bool());
    if (status->at("state").as_string() == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  client.send(
      Json(Json::Object{{"op", Json("subscribe")}, {"job", Json(job)}}));
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value() && ok->at("ok").as_bool());
  const auto done = client.recv_event("done", 10000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>(done->at("job").as_int()), job);
}

/// Fills a workers=1, max_queued=1 daemon: an effectively endless anneal
/// occupies the only worker and a second one the only queue slot. Appends
/// both job ids to `jobs`.
void saturate(WireClient& client, std::vector<std::uint64_t>& jobs) {
  Json slow = submit_frame(24);
  slow.set("mapper", Json("anneal:iters=500000000"));
  slow.set("deadline_ms", Json(60000.0));
  for (int i = 0; i < 2; ++i) {
    client.send(slow);
    const auto ok = client.recv(10000.0);
    ASSERT_TRUE(ok.has_value() && ok->at("ok").as_bool()) << ok->dump();
    jobs.push_back(static_cast<std::uint64_t>(ok->at("job").as_int()));
    if (i == 0) {
      // Wait for the worker to claim the first job before submitting the
      // second: until then it still occupies the queue slot and the
      // second submit would be shed as overload (seen under TSan, where
      // the worker is slow to dequeue).
      for (int poll = 0; poll < 1000; ++poll) {
        client.send(Json(
            Json::Object{{"op", Json("status")}, {"job", Json(jobs[0])}}));
        const auto status = client.recv(10000.0);
        ASSERT_TRUE(status.has_value() && status->at("ok").as_bool());
        if (status->at("state").as_string() == "running") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
}

/// The daemon's `stats` verb body.
Json wire_stats(WireClient& client) {
  client.send(Json(Json::Object{{"op", Json("stats")}}));
  const auto stats = client.recv(10000.0);
  EXPECT_TRUE(stats.has_value() && stats->at("ok").as_bool());
  return stats.has_value() ? *stats : Json::object();
}

TEST(ServeDaemon, OverloadRejectionIsStructuredAndSurvivable) {
  // workers=1 + max_queued=1: one running, one queued, the rest refused.
  DaemonFixture fixture(
      {.endpoint = {}, .workers = 1, .max_queued = 1, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  std::vector<std::uint64_t> jobs;
  ASSERT_NO_FATAL_FAILURE(saturate(client, jobs));

  // Low-priority traffic is shed first (graduated thresholds): rejected
  // with the structured overloaded error, connection intact.
  Json low = submit_frame();
  low.set("class", Json("low"));
  low.set("tag", Json("shed-me"));
  client.send(low);
  const auto rejected = client.recv(10000.0);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->at("ok").as_bool());
  EXPECT_EQ(rejected->at("error").at("code").as_string(), "overloaded");
  EXPECT_FALSE(rejected->at("error").at("message").as_string().empty());
  EXPECT_EQ(rejected->at("tag").as_string(), "shed-me");

  // The service made the refusal, so it counts it: only the two accepted
  // jobs were submitted, and the shed one reads as rejected.
  EXPECT_EQ(fixture.daemon->service_stats().submitted, 2u);
  const Json stats = wire_stats(client);
  EXPECT_EQ(stats.at("submitted").as_int(), 2);
  EXPECT_EQ(stats.at("rejected").as_int(), 1);

  // The connection survived: cancel both heavy jobs, twice (idempotent).
  for (const std::uint64_t job : jobs) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      client.send(
          Json(Json::Object{{"op", Json("cancel")}, {"job", Json(job)}}));
      const auto ok = client.recv(10000.0);
      ASSERT_TRUE(ok.has_value());
      EXPECT_TRUE(ok->at("ok").as_bool()) << ok->dump();
    }
  }
}

TEST(ServeDaemon, CacheHitIsAdmittedWhenTheClassQueueIsFull) {
  DaemonFixture fixture(
      {.endpoint = {}, .workers = 1, .max_queued = 1, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());

  // A pinned construction seed makes the job cacheable; its first run
  // fills the cache.
  Json pinned = submit_frame();
  pinned.set("construction_seed", Json(std::size_t{5}));
  pinned.set("subscribe", Json(true));
  client.send(pinned);
  const auto first = client.recv(10000.0);
  ASSERT_TRUE(first.has_value() && first->at("ok").as_bool())
      << first->dump();
  ASSERT_TRUE(client.recv_event("done", 30000.0).has_value());

  std::vector<std::uint64_t> jobs;
  ASSERT_NO_FATAL_FAILURE(saturate(client, jobs));

  // The normal-class queue is full, yet the resubmit is answered from the
  // cache without taking a queue slot.
  client.send(pinned);
  const auto again = client.recv(10000.0);
  ASSERT_TRUE(again.has_value());
  ASSERT_TRUE(again->at("ok").as_bool()) << again->dump();
  const auto done = client.recv_event("done", 10000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->at("state").as_string(), "done");
  const Json stats = wire_stats(client);
  EXPECT_EQ(stats.at("cache_hits").as_int(), 1);
  EXPECT_EQ(stats.at("rejected").as_int(), 0);
}

TEST(ServeDaemon, UnknownMapperIsRejectedEagerly) {
  DaemonFixture fixture({.endpoint = {}, .workers = 1, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  Json frame = submit_frame();
  frame.set("mapper", Json("definitely-not-a-mapper"));
  client.send(frame);
  const auto response = client.recv(10000.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->at("ok").as_bool());
  EXPECT_EQ(response->at("error").at("code").as_string(), "bad_request");
}

TEST(ServeDaemon, GenerateSpecIntegersMustBeExact) {
  // generate.seed and the counts share the wire's integer reader: below
  // 2^53 they are taken as sent, above it they are refused.
  Json spec = Json::object();
  spec.set("tasks", Json(std::size_t{8}));
  spec.set("seed", Json(9007199254740991.0));
  EXPECT_EQ(graph_from_generate_spec(spec).dag.node_count(), 8u);
  spec.set("seed", Json(1e19));
  EXPECT_THROW(graph_from_generate_spec(spec), Error);
  spec.set("seed", Json(std::size_t{1}));
  spec.set("tasks", Json(-1.0));
  EXPECT_THROW(graph_from_generate_spec(spec), Error);
}

TEST(ServeDaemon, DestructionWithJobsInFlightIsRaceFree) {
  // Regression for a TSan-caught write-after-close: a worker's
  // on_terminal callback pokes the wake pipe (push_event -> wake ->
  // write), and ~Daemon used to close that pipe before the service
  // joined its workers. The window is the gap between a job turning
  // terminal (which lets run() finish draining) and the callback's
  // write; several rounds of teardown with jobs mid-flight keep
  // hitting it.
  for (int round = 0; round < 5; ++round) {
    DaemonFixture fixture(
        {.endpoint = {}, .workers = 2, .max_queued = 8, .journal_path = {}});
    WireClient client(fixture.daemon->endpoint());
    Json slow = submit_frame(24);
    slow.set("mapper", Json("anneal:iters=200000"));
    for (int i = 0; i < 4; ++i) {
      client.send(slow);
      const auto ok = client.recv(10000.0);
      ASSERT_TRUE(ok.has_value() && ok->at("ok").as_bool()) << ok->dump();
    }
    // Fixture teardown drains with zero grace: the jobs get cancelled
    // while running and their terminal callbacks race the destructor.
  }
}

TEST(ServeDaemon, MalformedJsonClosesTheConnection) {
  DaemonFixture fixture({.endpoint = {}, .workers = 1, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  client.send_raw("{this is not json}\n");
  const auto error = client.recv(10000.0);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->at("error").at("code").as_string(), "bad_json");
  // The daemon closes after flushing: the next read hits EOF.
  EXPECT_THROW(
      {
        while (true) {
          if (!client.recv(10000.0).has_value()) break;
        }
      },
      Error);

  // A fresh connection still works.
  WireClient again(fixture.daemon->endpoint());
  again.send(submit_frame());
  const auto ok = again.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool());
}

TEST(ServeDaemon, DrainVerbFinishesInFlightAndExitsZero) {
  DaemonFixture fixture({.endpoint = {}, .workers = 2, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  Json frame = submit_frame();
  frame.set("subscribe", Json(true));
  client.send(frame);
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());

  client.send(Json(
      Json::Object{{"op", Json("drain")}, {"grace_ms", Json(30000.0)}}));
  // In some order: the drain ok, a draining event, the job's done event,
  // and a final closing event.
  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->at("state").as_string(), "done");
  const auto closing = client.recv_event("closing", 10000.0);
  EXPECT_TRUE(closing.has_value());

  EXPECT_EQ(fixture.join(), 0);
}

TEST(ServeDaemon, DrainCancelsPastGraceStillExitsZero) {
  DaemonFixture fixture(
      {.endpoint = {}, .workers = 1, .grace_ms = 100.0, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  Json slow = submit_frame(24);
  slow.set("mapper", Json("anneal:iters=500000000"));
  slow.set("deadline_ms", Json(60000.0));
  slow.set("subscribe", Json(true));
  client.send(slow);
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());

  fixture.daemon->request_drain();  // 100ms grace, then cancellation
  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  // Cooperative cancellation of a running job: it returns its incumbent
  // (state "done") with the cancelled termination reason.
  EXPECT_EQ(done->at("state").as_string(), "done");
  EXPECT_EQ(done->at("termination").as_string(), "cancelled");
  // Cooperative cancellation within the hard deadline: a clean exit.
  EXPECT_EQ(fixture.join(), 0);
}

TEST(ServeDaemon, TcpEphemeralPortServes) {
  DaemonFixture fixture({.endpoint = Endpoint::parse("tcp:127.0.0.1:0"),
                         .workers = 1,
                         .journal_path = {}});
  EXPECT_NE(fixture.daemon->endpoint().port, 0);
  WireClient client(fixture.daemon->endpoint());
  client.send(submit_frame());
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool());
}

TEST(ServeDaemon, BindRefusesATakenUnixEndpoint) {
  DaemonFixture fixture({.endpoint = {}, .workers = 1, .journal_path = {}});
  Daemon second({.endpoint = fixture.daemon->endpoint(), .journal_path = {}});
  EXPECT_THROW(second.bind(), Error);
}

TEST(ServeDaemon, BindReclaimsAStaleUnixSocket) {
  // A crashed daemon leaves its socket file behind with nobody listening.
  // Startup must probe, find it dead, unlink and bind — not refuse.
  const Endpoint endpoint =
      Endpoint::parse(DaemonFixture::unique_socket_path());
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  endpoint.path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    ::close(fd);  // no unlink: the stale file stays
  }
  DaemonFixture fixture(
      {.endpoint = endpoint, .workers = 1, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  client.send(submit_frame());
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool());
}

/// The one way back after a lost connection: a fresh connection asks for
/// the job by id. `status` answers the terminal result and `subscribe`
/// replays its `done` exactly once.
TEST(ServeDaemon, LostConnectionRecoversByJobId) {
  DaemonFixture fixture({.endpoint = {}, .workers = 1, .journal_path = {}});
  WireClient client(fixture.daemon->endpoint());
  // An endless anneal stopped by a 300 ms deadline: still running when
  // the connection drops, done soon after.
  Json frame = submit_frame(24);
  frame.set("mapper", Json("anneal:iters=500000000"));
  frame.set("deadline_ms", Json(300.0));
  frame.set("subscribe", Json(true));
  client.send(frame);
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
  const auto job = static_cast<std::uint64_t>(accepted->at("job").as_int());

  // Vanish before the job finishes; its done event goes nowhere.
  client.drop_connection();
  client.reconnect();
  Json status;
  for (int i = 0; i < 600; ++i) {
    client.send(
        Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}}));
    const auto answer = client.recv(10000.0);
    ASSERT_TRUE(answer.has_value() && answer->at("ok").as_bool());
    status = *answer;
    if (status.at("state").as_string() == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_GT(status.at("makespan").as_double(), 0.0);

  client.send(
      Json(Json::Object{{"op", Json("subscribe")}, {"job", Json(job)}}));
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value() && ok->at("ok").as_bool());
  const auto done = client.recv_event("done", 10000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>(done->at("job").as_int()), job);
  EXPECT_DOUBLE_EQ(done->at("makespan").as_double(),
                   status.at("makespan").as_double());
  EXPECT_FALSE(done->contains("event_seq"));
  // Exactly once: no second done follows.
  EXPECT_FALSE(client.recv_event("done", 300.0).has_value());
}

/// A hand-crafted journal: job 1 finished before the "crash", job 2 was
/// still running. Both carry the `started`/`incumbent` progress markers
/// older daemons wrote, which recovery skips. The restarted daemon must
/// answer status for job 1 verbatim and re-enqueue job 2 to completion.
TEST(ServeDaemon, JournalRecoveryAnswersTerminalAndRequeuesUnfinished) {
  const std::string journal_path =
      "/tmp/spmap_daemon_test_journal_" + std::to_string(::getpid()) +
      "_recovery.journal";
  std::remove(journal_path.c_str());
  {
    Json submit1 = Json::object();
    submit1.set("mapper", Json("spff"));
    submit1.set("class", Json("normal"));
    Json status1 = Json::object();
    status1.set("job", Json(std::uint64_t{1}));
    status1.set("class", Json("normal"));
    status1.set("state", Json("done"));
    status1.set("makespan", Json(42.5));

    Json generate = Json::object();
    generate.set("type", Json("sp"));
    generate.set("tasks", Json(std::size_t{12}));
    generate.set("seed", Json(std::uint64_t{7}));
    Json submit2 = Json::object();
    submit2.set("mapper", Json("spff"));
    submit2.set("class", Json("high"));
    submit2.set("generate", generate);
    submit2.set("seed", Json(std::uint64_t{3}));
    submit2.set("construction_seed", Json(std::uint64_t{4}));

    // A body an older daemon accepted that no longer parses.
    Json submit3 = Json::object();
    submit3.set("mapper", Json("spff"));
    submit3.set("generate", std::move(generate));
    submit3.set("warm", Json(true));

    const auto progress = [](std::uint64_t job) {
      return std::vector<Json>{
          Json(Json::Object{{"type", Json("started")}, {"job", Json(job)}}),
          Json(Json::Object{{"type", Json("incumbent")},
                            {"job", Json(job)},
                            {"makespan", Json(50.0)},
                            {"iteration", Json(std::uint64_t{3})},
                            {"seconds", Json(0.01)}})};
    };

    Journal journal(journal_path);
    journal.append(Json(Json::Object{{"type", Json("submitted")},
                                     {"job", Json(std::uint64_t{1})},
                                     {"submit", std::move(submit1)}}));
    for (const Json& record : progress(1)) journal.append(record);
    journal.append(Json(Json::Object{{"type", Json("terminal")},
                                     {"job", Json(std::uint64_t{1})},
                                     {"status", std::move(status1)}}));
    journal.append(Json(Json::Object{{"type", Json("submitted")},
                                     {"job", Json(std::uint64_t{2})},
                                     {"submit", std::move(submit2)}}));
    for (const Json& record : progress(2)) journal.append(record);
    journal.append(Json(Json::Object{{"type", Json("submitted")},
                                     {"job", Json(std::uint64_t{3})},
                                     {"submit", std::move(submit3)}}));
  }

  DaemonFixture fixture(
      {.endpoint = {}, .workers = 1, .journal_path = journal_path});
  WireClient client(fixture.daemon->endpoint());

  // Job 1: the recorded terminal status, verbatim, under its old id.
  client.send(Json(Json::Object{{"op", Json("status")},
                                {"job", Json(std::uint64_t{1})}}));
  const auto status = client.recv(10000.0);
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->at("ok").as_bool()) << status->dump();
  EXPECT_EQ(status->at("state").as_string(), "done");
  EXPECT_DOUBLE_EQ(status->at("makespan").as_double(), 42.5);

  // Job 2: re-enqueued under its old id; subscribe and watch it finish.
  client.send(Json(Json::Object{{"op", Json("subscribe")},
                                {"job", Json(std::uint64_t{2})}}));
  const auto ok = client.recv(10000.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->at("ok").as_bool()) << ok->dump();
  const auto done = client.recv_event("done", 30000.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->at("job").as_int(), 2);
  EXPECT_EQ(done->at("state").as_string(), "done");

  // Job 3: its body no longer parses, so it answers as a failed job
  // instead of running.
  client.send(Json(Json::Object{{"op", Json("status")},
                                {"job", Json(std::uint64_t{3})}}));
  const auto drifted = client.recv(10000.0);
  ASSERT_TRUE(drifted.has_value());
  ASSERT_TRUE(drifted->at("ok").as_bool()) << drifted->dump();
  EXPECT_EQ(drifted->at("state").as_string(), "failed");
  const std::string error = drifted->at("error").as_string();
  EXPECT_EQ(error.rfind("journal recovery: ", 0), 0u) << error;
  EXPECT_NE(error.find("warm"), std::string::npos) << error;

  // New submissions never collide with recovered ids.
  client.send(submit_frame());
  const auto accepted = client.recv(10000.0);
  ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
  EXPECT_GE(accepted->at("job").as_int(), 4);

  std::remove(journal_path.c_str());
}

/// The journal holds only what recovery reads: one `submitted` and one
/// `terminal` record per job, even for subscribed jobs that report
/// incumbents while they run.
TEST(ServeDaemon, JournalHoldsOnlySubmittedAndTerminalRecords) {
  const std::string journal_path =
      "/tmp/spmap_daemon_test_journal_" + std::to_string(::getpid()) +
      "_records.journal";
  std::remove(journal_path.c_str());
  constexpr std::uint64_t kJobs = 4;
  {
    DaemonFixture fixture(
        {.endpoint = {}, .workers = 2, .journal_path = journal_path});
    WireClient client(fixture.daemon->endpoint());
    for (std::uint64_t seed = 1; seed <= kJobs; ++seed) {
      Json frame = submit_frame(12, seed);
      frame.set("mapper", Json("anneal:iters=300"));
      frame.set("subscribe", Json(true));
      client.send(frame);
    }
    std::size_t incumbents = 0;
    for (std::uint64_t done = 0; done < kJobs;) {
      const auto frame = client.recv(30000.0);
      ASSERT_TRUE(frame.has_value());
      if (!frame->contains("event")) {
        ASSERT_TRUE(frame->at("ok").as_bool()) << frame->dump();
      } else if (frame->at("event").as_string() == "incumbent") {
        ++incumbents;
      } else if (frame->at("event").as_string() == "done") {
        EXPECT_EQ(frame->at("state").as_string(), "done");
        ++done;
      }
    }
    EXPECT_GT(incumbents, 0u);
  }

  std::map<std::string, std::size_t> types;
  for (const Json& record : replay_journal(journal_path).records) {
    ++types[record.at("type").as_string()];
  }
  EXPECT_EQ(types, (std::map<std::string, std::size_t>{
                       {"submitted", kJobs}, {"terminal", kJobs}}));
  std::remove(journal_path.c_str());
}

/// End to end: run a pinned job against a journaled daemon, kill the
/// daemon (hard drain), start a second daemon on the same journal — the
/// result must still be answerable and bit-identical.
TEST(ServeDaemon, RestartOnTheSameJournalKeepsTerminalResults) {
  const std::string journal_path =
      "/tmp/spmap_daemon_test_journal_" + std::to_string(::getpid()) +
      "_restart.journal";
  std::remove(journal_path.c_str());

  std::uint64_t job = 0;
  double makespan = 0.0;
  Endpoint endpoint;
  {
    DaemonFixture fixture(
        {.endpoint = {}, .workers = 1, .journal_path = journal_path});
    endpoint = fixture.daemon->endpoint();
    WireClient client(endpoint);
    Json frame = submit_frame(12, /*seed=*/99);
    frame.set("seed", Json(std::uint64_t{5}));
    frame.set("construction_seed", Json(std::uint64_t{6}));
    frame.set("subscribe", Json(true));
    client.send(frame);
    const auto accepted = client.recv(10000.0);
    ASSERT_TRUE(accepted.has_value() && accepted->at("ok").as_bool());
    job = static_cast<std::uint64_t>(accepted->at("job").as_int());
    const auto done = client.recv_event("done", 30000.0);
    ASSERT_TRUE(done.has_value());
    ASSERT_EQ(done->at("state").as_string(), "done");
    makespan = done->at("makespan").as_double();
  }  // fixture destructor: drain + exit — the "restart"

  DaemonFixture second(
      {.endpoint = endpoint, .workers = 1, .journal_path = journal_path});
  WireClient client(second.daemon->endpoint());
  client.send(
      Json(Json::Object{{"op", Json("status")}, {"job", Json(job)}}));
  const auto status = client.recv(10000.0);
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->at("ok").as_bool()) << status->dump();
  EXPECT_EQ(status->at("state").as_string(), "done");
  EXPECT_DOUBLE_EQ(status->at("makespan").as_double(), makespan);

  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace spmap
