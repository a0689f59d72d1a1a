/// serve_open — the serving daemon under a fixed open-loop load.
///
/// Set-up spawns a fresh `spmap_cli daemon --workers 2` on a unix socket,
/// waits for the `hello` answer and warms K request identities into its
/// result cache (submit, wait for `done`); it is repeated nine times and
/// the last daemon serves the run. The timed window then sends 400 req/s
/// in total over two connections, each request due at a fixed time
/// regardless of completions. A request is `spff` on a generated 64-task
/// SP graph with max_evals=2000 and pinned seeds, so its result is a pure
/// function of the request; classes high/normal/low come in the ratio
/// 1:2:1. Exactly one request in four repeats a warmed identity (a cache
/// hit, answered on the daemon's IO thread); the rest are fresh (a mapper
/// job on a worker). Latency is timed from each request's due time.
///
/// Checks: every request completes; the done bodies report exactly the
/// planned number of hits and misses, as does the `stats` verb, with no
/// evictions; and every hit identity plus every 10th miss re-runs through
/// a local MappingService with bit-identical makespans.
///
/// Every generated seed stays below 2^53, the range a JSON number carries
/// exactly, so no two planned identities can collide on the wire.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common.hpp"
#include "model/platform.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/mapping_service.hpp"
#include "trace.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

using namespace spmap;

constexpr double kRateHz = 400.0;
constexpr std::size_t kWarmIdentities = 64;
constexpr std::size_t kTasks = 64;
constexpr std::size_t kMaxEvals = 2000;
constexpr double kLatencyLimitMs = 25.0;
constexpr std::size_t kVerifyEveryMiss = 10;
/// A window's requests are cut into this many slices of consecutive
/// requests (3 s each at 30 s); the end-to-end latency figures come from
/// the calmest slice, which a burst of outside load moves least.
constexpr std::size_t kSlices = 10;
constexpr const char* kMapper = "spff";

struct Identity {
  std::uint64_t generate_seed = 0;
  std::uint64_t construction_seed = 0;
  std::uint64_t run_seed = 0;

  auto key() const {
    return std::make_tuple(generate_seed, construction_seed, run_seed);
  }
};

struct Request {
  Identity identity;
  std::string cls;
  bool repeat = false;  // a warmed identity: planned cache hit
  double due = 0.0;     // offset from the window start, seconds
};

/// What one request saw on the wire.
struct Outcome {
  // Absolute arrival times; `first_event` is the first incumbent event,
  // which a worker emits once the job has started and priced its seed.
  double sent = -1.0, acked = -1.0, first_event = -1.0, done = -1.0;
  std::size_t frames = 0;
  std::size_t bytes = 0;
  bool failed = false;
  std::string cache;
  double makespan = 0.0, reported = 0.0, baseline = 0.0, wall_ms = 0.0;
};

/// Draws identities from one splitmix64 stream, 53 bits each, never
/// handing out the same identity twice.
class IdentityStream {
 public:
  explicit IdentityStream(std::uint64_t seed) : state_(seed ^ 0x5e27e0be9c4ULL) {}

  Identity next() {
    for (;;) {
      Identity id{splitmix64(state_) >> 11, splitmix64(state_) >> 11,
                  splitmix64(state_) >> 11};
      if (seen_.insert(id.key()).second) return id;
    }
  }

 private:
  std::uint64_t state_;
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> seen_;
};

/// The open-loop schedule of one window: `count` requests (a multiple of
/// 4), one planned repeat per block of four.
std::vector<Request> plan_window(std::size_t count,
                                 const std::vector<Identity>& warm,
                                 IdentityStream& fresh, Rng& rng) {
  std::vector<Request> plan(count);
  for (std::size_t block = 0; block < count / 4; ++block) {
    const std::size_t repeat_at = rng.below(4);
    for (std::size_t k = 0; k < 4; ++k) {
      Request& r = plan[4 * block + k];
      r.repeat = k == repeat_at;
      r.identity = r.repeat ? warm[rng.below(warm.size())] : fresh.next();
      const std::uint64_t pick = rng.below(4);
      r.cls = pick == 0 ? "high" : (pick == 3 ? "low" : "normal");
      r.due = static_cast<double>(4 * block + k) / kRateHz;
    }
  }
  return plan;
}

Json generate_spec(const Identity& id) {
  Json generate = Json::object();
  generate.set("type", "sp");
  generate.set("tasks", kTasks);
  generate.set("seed", static_cast<std::size_t>(id.generate_seed));
  return generate;
}

Json submit_frame(const Request& r, std::size_t tag) {
  Json frame = Json::object();
  frame.set("op", "submit");
  frame.set("tag", tag);
  frame.set("mapper", kMapper);
  frame.set("class", r.cls);
  frame.set("generate", generate_spec(r.identity));
  frame.set("max_evals", kMaxEvals);
  frame.set("seed", static_cast<std::size_t>(r.identity.run_seed));
  frame.set("construction_seed",
            static_cast<std::size_t>(r.identity.construction_seed));
  frame.set("reporting_orders", static_cast<std::size_t>(0));
  frame.set("subscribe", true);
  return frame;
}

/// A spawned `spmap_cli daemon`, stopped (SIGTERM, then SIGKILL) and
/// reaped by the destructor.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& cli, const std::string& socket,
                std::size_t cache_entries, const std::string& log_path)
      : socket_(socket) {
    ::unlink(socket.c_str());
    const std::vector<std::string> args = {
        cli,         "daemon",          "--listen",
        "unix:" + socket,               "--workers",
        "2",         "--max-queued",    "4096",
        "--cache-entries",              std::to_string(cache_entries),
        "--retention",                  "64",
        "--quiet"};
    pid_ = ::fork();
    require(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                             0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      std::vector<char*> argv;
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(cli.c_str(), argv.data());
      ::_exit(127);
    }
  }

  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int pid() const { return pid_; }
  Endpoint endpoint() const { return Endpoint::parse("unix:" + socket_); }

  /// Graceful drain; killed if it has not exited within 10 s.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        ::unlink(socket_.c_str());
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  int pid_ = -1;
};

WireClient connect(const Endpoint& endpoint) {
  WireClientOptions options;
  options.connect_timeout_ms = 10000.0;
  return WireClient(endpoint, options);
}

/// Submits every warm identity and waits for all `done` events.
void warm_cache(WireClient& client, const std::vector<Identity>& warm) {
  for (std::size_t i = 0; i < warm.size(); ++i) {
    Request r;
    r.identity = warm[i];
    r.cls = "normal";
    client.send(submit_frame(r, i));
  }
  std::size_t done = 0;
  while (done < warm.size()) {
    const std::optional<Json> frame = client.recv(30e3);
    require(frame.has_value(), "cache warm-up timed out");
    if (frame->contains("ok")) {
      require(frame->at("ok").as_bool(), "warm-up submit refused: " + frame->dump());
    } else if (frame->contains("event") &&
               frame->at("event").as_string() == "done") {
      require(frame->at("state").as_string() == "done",
              "warm-up job failed: " + frame->dump());
      ++done;
    }
  }
}

/// One connection's share of the window: requests c, c + C, c + 2C, ...
/// sent at their due times; frames are read while waiting.
void run_connection(WireClient& client, const std::vector<Request>& plan,
                    std::size_t first, std::size_t stride, double t0,
                    std::vector<Outcome>& outcomes) {
  std::deque<std::size_t> awaiting_ack;
  std::map<std::int64_t, std::size_t> running;  // job id -> request
  std::size_t open = 0;

  const auto pump = [&](double wait_ms) {
    const std::optional<Json> frame = client.recv(std::max(wait_ms, 0.05));
    if (!frame.has_value()) return;
    const double arrived = now_seconds();
    const std::size_t bytes = frame->dump().size() + 1;
    if (frame->contains("ok")) {
      require(!awaiting_ack.empty(), "response without a request");
      const std::size_t idx = awaiting_ack.front();
      awaiting_ack.pop_front();
      Outcome& o = outcomes[idx];
      o.acked = arrived;
      ++o.frames;
      o.bytes += bytes;
      if (!frame->at("ok").as_bool()) {
        o.failed = true;
        --open;
        return;
      }
      running.emplace(frame->at("job").as_int(), idx);
      return;
    }
    if (!frame->contains("job")) return;
    const auto it = running.find(frame->at("job").as_int());
    if (it == running.end()) return;
    Outcome& o = outcomes[it->second];
    ++o.frames;
    o.bytes += bytes;
    if (frame->at("event").as_string() != "done") {  // incumbent
      if (o.first_event < 0.0) o.first_event = arrived;
      return;
    }
    o.done = arrived;
    if (frame->at("state").as_string() != "done") {
      o.failed = true;
    } else {
      o.cache = frame->at("cache").as_string();
      o.makespan = frame->at("makespan").as_double();
      o.reported = frame->at("reported_makespan").as_double();
      o.baseline = frame->at("baseline_makespan").as_double();
      o.wall_ms = frame->at("wall_ms").as_double();
    }
    running.erase(it);
    --open;
  };

  for (std::size_t i = first; i < plan.size(); i += stride) {
    const double due = t0 + plan[i].due;
    for (double now = now_seconds(); now < due; now = now_seconds()) {
      pump(1e3 * (due - now));
    }
    Outcome& o = outcomes[i];
    const Json frame = submit_frame(plan[i], i);
    o.sent = now_seconds();
    o.bytes += frame.dump().size() + 1;
    client.send(frame);
    awaiting_ack.push_back(i);
    ++open;
  }
  const double drain_until = now_seconds() + 60.0;
  while (open > 0 && now_seconds() < drain_until) pump(50.0);
}

struct Window {
  std::vector<Request> plan;
  std::vector<Outcome> outcomes;
  double t0 = 0.0;
  double daemon_cpu_s = 0.0;
};

void run_window(const DaemonProcess& daemon, std::size_t connections,
                Window& window) {
  window.outcomes.assign(window.plan.size(), Outcome{});
  std::vector<WireClient> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(connect(daemon.endpoint()));
  }
  const double cpu0 = pid_cpu_seconds(daemon.pid());
  window.t0 = now_seconds() + 0.05;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        run_connection(clients[c], window.plan, c, connections, window.t0,
                       window.outcomes);
      } catch (const std::exception& ex) {
        errors[c] = ex.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  window.daemon_cpu_s = pid_cpu_seconds(daemon.pid()) - cpu0;
  for (const std::string& e : errors) {
    require(e.empty(), "connection failed: " + e);
  }
}

/// Re-runs every repeat identity and every `kVerifyEveryMiss`-th fresh
/// request locally; returns the number of mismatches.
std::size_t verify(const Window& window, std::size_t& verified) {
  const auto platform = std::make_shared<const Platform>(reference_platform());
  MappingService service({.workers = 1});
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           std::pair<double, double>>
      memo;
  std::size_t mismatches = 0, misses = 0;
  for (std::size_t i = 0; i < window.plan.size(); ++i) {
    const Request& r = window.plan[i];
    const Outcome& o = window.outcomes[i];
    if (o.failed || o.done < 0.0) continue;
    if (!r.repeat && misses++ % kVerifyEveryMiss != 0) continue;
    auto it = memo.find(r.identity.key());
    if (it == memo.end()) {
      MapJob job;
      job.mapper_spec = kMapper;
      job.graph = std::make_shared<const TaskGraph>(
          graph_from_generate_spec(generate_spec(r.identity)));
      job.platform = platform;
      job.reporting_orders = 0;
      job.construction_rng = Rng(r.identity.construction_seed);
      MapRequest request;
      request.max_evaluations = kMaxEvals;
      request.seed = r.identity.run_seed;
      const MappingService::JobHandle handle =
          service.submit(std::move(job), std::move(request));
      const MapJobResult& local = handle.wait();
      it = memo.emplace(r.identity.key(),
                        std::make_pair(local.report.predicted_makespan,
                                       local.reported_makespan))
               .first;
    }
    ++verified;
    if (it->second.first != o.makespan || it->second.second != o.reported) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Accounting and checks of one window.
struct WindowStats {
  std::size_t attempted = 0, failed = 0, hits = 0, misses = 0, planned = 0;
  std::vector<double> latency_ms, hit_ms;
  /// Per slice of consecutive requests: the latency p50 and the summed
  /// latency (seconds requests spent between their due time and `done`).
  std::vector<double> slice_p50_ms, slice_latency_s;
  double improvement_sum = 0.0;
  std::size_t completed = 0, on_time = 0;
};

WindowStats tally(const Window& w) {
  WindowStats s;
  const std::size_t n = w.plan.size();
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    std::vector<double> slice_ms;
    double slice_s = 0.0;
    for (std::size_t i = slice * n / kSlices; i < (slice + 1) * n / kSlices;
         ++i) {
      const Outcome& o = w.outcomes[i];
      ++s.attempted;
      s.planned += w.plan[i].repeat ? 1 : 0;
      if (o.failed || o.done < 0.0) {
        ++s.failed;
        continue;
      }
      const double latency = 1e3 * (o.done - (w.t0 + w.plan[i].due));
      s.latency_ms.push_back(latency);
      slice_ms.push_back(latency);
      slice_s += 1e-3 * latency;
      ++s.completed;
      s.on_time += latency <= kLatencyLimitMs ? 1 : 0;
      if (o.cache == "hit") {
        ++s.hits;
        s.hit_ms.push_back(latency);
      } else if (o.cache == "miss") {
        ++s.misses;
      }
      s.improvement_sum += improvement_of(o.reported, o.baseline);
    }
    s.slice_p50_ms.push_back(median(slice_ms));
    s.slice_latency_s.push_back(slice_s);
  }
  return s;
}

/// The traced window as spans: one root per completed request, from its
/// due time to its `done`, with a child per phase its frames delimit —
/// generator lateness, submit to `ok` (IO thread), then for a miss `ok` to
/// the first incumbent (queue wait and job start) and on to `done`, for a
/// hit `ok` to `done`. The daemon is a black box with no clock of its own
/// on the wire, so these phases tile each request: a gap is left only
/// where a frame that marks a phase never arrived.
Tracer request_spans(const Window& w) {
  Tracer tracer;
  for (std::size_t i = 0; i < w.plan.size(); ++i) {
    const Outcome& o = w.outcomes[i];
    if (o.failed || o.done < 0.0) continue;
    const double due = w.t0 + w.plan[i].due;
    const auto root = static_cast<std::int64_t>(
        tracer.record("bench.request", due, o.done));
    tracer.record("bench.lateness", due, o.sent, root);
    tracer.record("serve.ack", o.sent, o.acked, root);
    if (o.cache == "hit") {
      tracer.record("serve.hit_reply", o.acked, o.done, root);
    } else if (o.first_event >= 0.0) {
      tracer.record("serve.queue_wait", o.acked, o.first_event, root);
      tracer.record("serve.job_run", o.first_event, o.done, root);
    }
  }
  return tracer;
}

void check_window(const Window& w, const WindowStats& s, const char* what,
                  WorkloadResult& result) {
  if (s.failed > 0) {
    result.fail(std::string(what) + ": " + std::to_string(s.failed) +
                " requests failed or were rejected");
  }
  if (s.hits != s.planned || s.misses != s.attempted - s.planned) {
    result.fail(std::string(what) + ": cache hits " + std::to_string(s.hits) +
                " / misses " + std::to_string(s.misses) + ", planned " +
                std::to_string(s.planned) + " / " +
                std::to_string(s.attempted - s.planned));
  }
  std::size_t verified = 0;
  const std::size_t mismatches = verify(w, verified);
  if (mismatches > 0) {
    result.fail(std::string(what) + ": " + std::to_string(mismatches) + " of " +
                std::to_string(verified) +
                " re-run requests differ from the daemon's answer");
  }
}

Json stats_of(WireClient& client) {
  client.send(Json(Json::Object{{"op", Json("stats")}}));
  for (;;) {
    const std::optional<Json> frame = client.recv(10e3);
    require(frame.has_value(), "stats timed out");
    if (frame->contains("op") && frame->at("op").as_string() == "stats") {
      return *frame;
    }
  }
}

}  // namespace

void run_serve_open(const RunOptions& options, WorkloadResult& result) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  // The runner's own threads (main + one per connection) stay within nproc.
  const std::size_t connections =
      std::max<std::size_t>(1, std::min<std::size_t>(2, hw - 1));
  const std::size_t windows = options.trace ? 2 : 1;
  const double window_s = options.seconds / static_cast<double>(windows);
  const std::size_t per_window =
      4 * std::max<std::size_t>(1, static_cast<std::size_t>(
                                       std::llround(kRateHz * window_s / 4)));

  Rng rng(options.seed);
  IdentityStream identities(options.seed);
  std::vector<Identity> warm;
  for (std::size_t i = 0; i < kWarmIdentities; ++i) {
    warm.push_back(identities.next());
  }
  std::vector<Window> plan(windows);
  for (Window& w : plan) w.plan = plan_window(per_window, warm, identities, rng);
  // Room for every identity of the run: no warmed entry is ever evicted.
  const std::size_t cache_entries = 2 * (kWarmIdentities + windows * per_window);

  const std::string socket = options.work_dir + "/d" + std::to_string(::getpid()) + ".sock";
  const std::string log = options.work_dir + "/daemon.log";
  constexpr int kSetups = 9;
  std::vector<double> setup_times;
  std::unique_ptr<DaemonProcess> daemon;
  std::optional<WireClient> control;
  for (int i = 0; i < kSetups; ++i) {
    control.reset();
    daemon.reset();
    const double t0 = now_seconds();
    daemon = std::make_unique<DaemonProcess>(options.cli_path, socket,
                                             cache_entries, log);
    control.emplace(connect(daemon->endpoint()));
    warm_cache(*control, warm);
    setup_times.push_back(now_seconds() - t0);
  }

  for (Window& w : plan) run_window(*daemon, connections, w);
  const Json stats = stats_of(*control);
  const double rss = peak_rss_mb(daemon->pid());
  control.reset();
  daemon->stop();

  std::vector<WindowStats> tallies;
  for (std::size_t i = 0; i < windows; ++i) {
    tallies.push_back(tally(plan[i]));
    result.attempted += tallies.back().attempted;
    result.failed += tallies.back().failed;
    check_window(plan[i], tallies.back(), i == 0 ? "window" : "traced window",
                 result);
  }
  std::size_t planned_hits = 0;
  for (const WindowStats& s : tallies) planned_hits += s.planned;
  if (stats.at("cache_hits").as_int() != static_cast<std::int64_t>(planned_hits)) {
    result.fail("stats verb: cache_hits " + stats.at("cache_hits").dump() +
                ", planned " + std::to_string(planned_hits));
  }
  if (stats.at("cache_evictions").as_int() != 0) {
    result.fail("stats verb: warmed entries were evicted");
  }
  Json setups = Json::array();
  for (const double t : setup_times) setups.push_back(t);
  result.detail.set("setup_times_s", std::move(setups));
  result.detail.set("connections", connections);
  result.detail.set("p90_ms", quantile(tallies[0].latency_ms, 0.9));
  result.detail.set("p99_ms", quantile(tallies[0].latency_ms, 0.99));
  result.detail.set("requests_per_window", per_window);
  result.detail.set("daemon_stats", stats);

  const WindowStats& s0 = tallies[0];
  if (!options.trace) {
    const auto calmest = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    };
    result.metrics["setup_s"] = median(setup_times);
    result.metrics["wall_s"] =
        static_cast<double>(kSlices) * calmest(s0.slice_latency_s);
    result.metrics["cpu_s"] = plan[0].daemon_cpu_s;
    result.metrics["improvement_mean"] =
        s0.improvement_sum / static_cast<double>(s0.completed);
    result.metrics["job_p50_ms"] = calmest(s0.slice_p50_ms);
    result.metrics["peak_rss_mb"] = rss;
    Json slices = Json::array();
    for (std::size_t k = 0; k < kSlices; ++k) {
      Json slice = Json::object();
      slice.set("p50_ms", s0.slice_p50_ms[k]);
      slice.set("latency_s", s0.slice_latency_s[k]);
      slices.push_back(std::move(slice));
    }
    result.detail.set("slices", std::move(slices));
    result.detail.set("p50_ms", quantile(s0.latency_ms, 0.5));
    return;
  }

  const Window& w = plan[1];
  const WindowStats& s = tallies[1];
  std::vector<double> ack, mapper, overhead, lateness;
  double frames = 0.0, bytes = 0.0;
  for (std::size_t i = 0; i < w.plan.size(); ++i) {
    const Outcome& o = w.outcomes[i];
    lateness.push_back(1e3 * (o.sent - (w.t0 + w.plan[i].due)));
    frames += static_cast<double>(o.frames);
    bytes += static_cast<double>(o.bytes);
    if (o.failed || o.done < 0.0) continue;
    ack.push_back(1e3 * (o.acked - o.sent));
    if (o.cache != "miss") continue;
    const double latency = 1e3 * (o.done - (w.t0 + w.plan[i].due));
    mapper.push_back(o.wall_ms);
    overhead.push_back(latency - o.wall_ms);
  }
  const Tracer tracer = request_spans(w);
  // Per-request phase durations, from the spans.
  std::map<std::string, std::vector<double>> phase_ms;
  for (const Tracer::Span& span : tracer.spans()) {
    phase_ms[span.name].push_back(1e3 * (span.end - span.start));
  }
  const double requests = static_cast<double>(w.plan.size());
  auto& out = result.metrics;
  out["serve.queue_wait_p50_ms"] = quantile(phase_ms["serve.queue_wait"], 0.5);
  out["serve.queue_wait_p99_ms"] = quantile(phase_ms["serve.queue_wait"], 0.99);
  out["serve.job_run_ms"] = quantile(phase_ms["serve.job_run"], 0.5);
  out["serve.ack_p50_ms"] = quantile(ack, 0.5);
  out["serve.mapper_p50_ms"] = quantile(mapper, 0.5);
  out["serve.overhead_p50_ms"] = quantile(overhead, 0.5);
  out["serve.hit_p50_ms"] = quantile(s.hit_ms, 0.5);
  out["jobs.latency_p90_ms"] = quantile(s.latency_ms, 0.9);
  out["jobs.latency_p99_ms"] = quantile(s.latency_ms, 0.99);
  out["serve.goodput_rps"] = static_cast<double>(s.on_time) / window_s;
  out["serve.frames_per_request"] = frames / requests;
  out["serve.bytes_per_request"] = bytes / requests;
  out["serve.cache_hit_ratio"] =
      static_cast<double>(s.hits) / static_cast<double>(s.completed);
  out["serve.cache_inserts"] = stats.at("cache_inserts").as_double();
  out["serve.cache_evictions"] = stats.at("cache_evictions").as_double();
  out["bench.lateness_p99_ms"] = quantile(lateness, 0.99);
  out["bench.failed_frac"] =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  const double untraced_p50 = quantile(s0.latency_ms, 0.5);
  out["bench.trace_overhead_share"] =
      (quantile(s.latency_ms, 0.5) - untraced_p50) / untraced_p50;
  const double root = tracer.total_seconds("bench.request");
  out["bench.trace_coverage"] =
      (root - tracer.self_seconds().at("bench.request")) / root;
  tracer.write(options.work_dir + "/trace-serve_open-seed" +
               std::to_string(options.seed) + ".json");
}

}  // namespace perfbench
