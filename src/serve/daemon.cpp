#include "serve/daemon.hpp"

#include "serve/result_cache.hpp"

#include <cerrno>
#include <csignal>
#include <cstdarg>
#include <cstring>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "graph/io.hpp"
#include "mappers/registry.hpp"
#include "model/platform.hpp"
#include "model/platform_io.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "workflows/workload_spec.hpp"

namespace spmap {

namespace {

/// Backpressure on the *write* side: a peer that stops reading while
/// subscribed to a chatty job would otherwise grow our buffer without
/// bound. Past this, the connection is dropped.
constexpr std::size_t kMaxOutbufBytes = 64u << 20;

/// Signal-handler bridge: handlers may only touch lock-free state and
/// async-signal-safe calls, so they set a flag and poke the self-pipe.
std::atomic<int> g_signal_wake_fd{-1};
std::atomic<bool> g_signal_drain{false};

void signal_drain_handler(int) {
  g_signal_drain.store(true, std::memory_order_relaxed);
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  // Construction is single-threaded and happens-before run() by the
  // usual object-publication rules, so the constructing thread holds the
  // IO role for the duration (covers init_journal()).
  ScopedThreadRole io(io_role_);
  if (options_.cache_entries > 0) {
    ResultCacheOptions cache_options;
    cache_options.max_entries = options_.cache_entries;
    cache_options.max_bytes = options_.cache_bytes;
    cache_ = std::make_shared<ResultCache>(cache_options);
  }
  MappingServiceOptions service_options;
  service_options.workers = options_.workers;
  service_options.seed = options_.seed;
  service_options.max_queued = options_.max_queued;
  service_options.cache = cache_;
  service_ = std::make_unique<MappingService>(service_options);

  int pipe_fds[2];
  require(::pipe(pipe_fds) == 0, "Daemon: cannot create the wake pipe");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  set_nonblocking(wake_read_);
  set_nonblocking(wake_write_);

  reference_platform_ =
      std::make_shared<const Platform>(reference_platform());

  if (!options_.journal_path.empty()) init_journal();
}

Daemon::~Daemon() {
  // Join the workers FIRST (the service destructor drains them): their
  // on_terminal callbacks poke the wake pipe via push_event(), so closing
  // the pipe before the join is a write-after-close race — and worse if
  // the fd number gets recycled in between. jobs_ only holds handles, so
  // destroying the service ahead of the member teardown is safe. (Found
  // by the TSan tier; regression: ServeDaemon.DestructionWithJobsInFlight.)
  service_.reset();
  int expected = wake_write_;
  g_signal_wake_fd.compare_exchange_strong(expected, -1);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

void Daemon::bind() {
  listener_.emplace(options_.endpoint);
  logf("listening on %s (workers=%zu max_queued=%zu)",
       listener_->endpoint().to_string().c_str(), service_->worker_count(),
       options_.max_queued);
}

const Endpoint& Daemon::endpoint() const {
  return listener_ ? listener_->endpoint() : options_.endpoint;
}

void Daemon::request_drain(double grace_ms) {
  if (grace_ms >= 0.0) {
    requested_grace_ms_.store(grace_ms, std::memory_order_relaxed);
  }
  drain_requested_.store(true, std::memory_order_release);
  wake();
}

void Daemon::begin_drain(double grace_ms) { request_drain(grace_ms); }

bool Daemon::draining() const {
  return draining_ || drain_requested_.load(std::memory_order_acquire);
}

Json Daemon::server_info() const {
  Json info = Json::object();
  info.set("server", Json("spmap-daemon"));
  info.set("workers", Json(service_->worker_count()));
  info.set("max_queued", Json(options_.max_queued));
  info.set("cache_entries", Json(options_.cache_entries));
  return info;
}

Json Daemon::stats_body() const {
  const ServiceStats stats = service_->stats();
  Json body = Json::object();
  body.set("submitted", Json(stats.submitted));
  body.set("rejected", Json(stats.rejected));
  body.set("queued", Json(stats.queued));
  body.set("running", Json(stats.running));
  body.set("done", Json(stats.done));
  body.set("failed", Json(stats.failed));
  body.set("cancelled", Json(stats.cancelled));
  body.set("cache_hits", Json(stats.cache_hits));
  body.set("cache_misses", Json(stats.cache_misses));
  if (cache_ != nullptr) {
    const ResultCacheStats cache = cache_->stats();
    body.set("cache_resident_entries", Json(cache.entries));
    body.set("cache_resident_bytes", Json(cache.bytes));
    body.set("cache_inserts", Json(cache.inserts));
    body.set("cache_evictions", Json(cache.evictions));
  }
  return body;
}

void Daemon::send_event(std::uint64_t session, const std::string& event,
                        Json body) {
  const auto it = conns_.find(session);
  if (it == conns_.end() || it->second.session.closed()) return;
  enqueue_lines(it->second, {event_line(event, std::move(body))});
}

void Daemon::wake() const {
  if (wake_write_ < 0) return;
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &byte, 1);
}

void Daemon::push_event(Event event) {
  {
    MutexLock lock(events_mutex_);
    events_.push_back(std::move(event));
  }
  wake();
}

void Daemon::process_events() {
  std::deque<Event> batch;
  {
    MutexLock lock(events_mutex_);
    batch.swap(events_);
  }
  for (const Event& event : batch) handle_event(event);
}

void Daemon::handle_event(const Event& event) {
  const auto it = jobs_.find(event.job);
  if (it == jobs_.end()) return;  // evicted by retention
  JobEntry& entry = it->second;

  switch (event.kind) {
    case Event::Kind::kIncumbent: {
      for (const std::uint64_t session : entry.subscribers) {
        Json body = Json::object();
        body.set("job", Json(event.job));
        body.set("makespan", Json(event.incumbent.makespan));
        body.set("iteration", Json(event.incumbent.iteration));
        body.set("seconds", Json(event.incumbent.seconds));
        send_event(session, "incumbent", std::move(body));
      }
      return;
    }
    case Event::Kind::kTerminal: {
      if (entry.terminal) return;  // defensive: exactly-once upstream
      failpoint("daemon.terminal");  // chaos: crash between run and ack
      entry.terminal = true;
      --outstanding_;
      const Json status = status_body(event.job, entry);
      // Commit before acknowledging: the fsynced terminal record is what
      // lets a restarted daemon answer status for this job; only then may
      // the done event (the client-visible acknowledgement) leave.
      Json record = Json::object();
      record.set("type", Json("terminal"));
      record.set("job", Json(event.job));
      record.set("status", status);
      journal_append(record);
      logf("job %llu %s",
           static_cast<unsigned long long>(event.job),
           to_string(entry.handle.status()));
      for (const std::uint64_t session : entry.subscribers) {
        send_event(session, "done", status);
      }
      retain_completed(event.job);
      if (journal_ != nullptr &&
          journal_->appended() >
              std::max<std::size_t>(256, 4 * options_.completed_retention)) {
        compact_journal();
      }
      return;
    }
    case Event::Kind::kReplayDone: {
      send_event(event.session, "done", status_body(event.job, entry));
      return;
    }
  }
}

void Daemon::retain_completed(std::uint64_t job) {
  completed_order_.push_back(job);
  while (completed_order_.size() > options_.completed_retention) {
    jobs_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
}

// ---- SessionHost -----------------------------------------------------------

TaskGraph graph_from_generate_spec(const Json& spec) {
  require(spec.is_object(), "generate must be an object");
  spec.require_keys("generate", {"type", "tasks", "extra_edges", "seed",
                                 "family", "width"});
  std::string type = "sp";
  if (spec.contains("type")) {
    require(spec.at("type").is_string(), "generate.type must be a string");
    type = spec.at("type").as_string();
  }
  const auto count = [&spec](const char* key, std::uint64_t fallback) {
    return uint_field(spec, key, "generate.").value_or(fallback);
  };
  Rng rng(count("seed", 1));
  WorkloadSpec workload;
  if (type == "sp" || type == "almost-sp") {
    workload.kind = type == "sp" ? WorkloadKind::Sp : WorkloadKind::AlmostSp;
    workload.tasks = count("tasks", 30);
    if (type == "almost-sp") workload.extra_edges = count("extra_edges", 10);
  } else if (type == "workflow") {
    workload.kind = WorkloadKind::Workflow;
    workload.family = "montage";
    if (spec.contains("family")) {
      require(spec.at("family").is_string(),
              "generate.family must be a string");
      workload.family = spec.at("family").as_string();
    }
    workload.width = count("width", 12);
  } else {
    throw Error("generate.type must be sp, almost-sp or workflow, got \"" +
                type + "\"");
  }
  return materialize_workload(workload, rng);
}

std::pair<MapJob, MapRequest> Daemon::service_job(
    std::uint64_t wire_id, const WireSubmit& request) {
  // Eager validation: an unknown mapper name fails now (with the
  // registry's did-you-mean diagnostic) instead of failing the job
  // asynchronously. Option typos still surface via the job's kFailed
  // path — they need a constructed Dag to validate against.
  (void)MapperRegistry::instance().at(
      MapperRegistry::split_spec(request.mapper_spec).first);
  MapJob job;
  job.graph = std::make_shared<const TaskGraph>(
      request.graph.has_value() ? task_graph_from_json(request.graph->dump())
                                : graph_from_generate_spec(*request.generate));
  job.platform = request.platform.has_value()
                     ? std::make_shared<const Platform>(
                           platform_from_json(*request.platform).platform)
                     : reference_platform_;
  job.mapper_spec = request.mapper_spec;
  job.reporting_orders = request.reporting_orders;
  job.priority = request.priority;
  if (request.construction_seed.has_value()) {
    job.construction_rng = Rng(*request.construction_seed);
  }
  // Callbacks run on worker threads — or, for a cache hit, synchronously
  // from try_submit on the IO thread: either way they only enqueue an
  // event keyed by the wire id and wake the IO thread. The events are
  // processed after the caller has registered the JobEntry.
  job.on_terminal = [this, wire_id](std::uint64_t, JobStatus,
                                    const MapJobResult&) {
    Event event;
    event.kind = Event::Kind::kTerminal;
    event.job = wire_id;
    push_event(std::move(event));
  };

  MapRequest run;
  run.deadline_ms = request.deadline_ms;
  run.max_evaluations = request.max_evaluations;
  run.max_iterations = request.max_iterations;
  run.seed = request.seed;
  run.on_incumbent = [this, wire_id](const IncumbentRecord& record) {
    Event event;
    event.kind = Event::Kind::kIncumbent;
    event.job = wire_id;
    event.incumbent = record;
    push_event(std::move(event));
  };
  return {std::move(job), std::move(run)};
}

SubmitOutcome Daemon::submit(std::uint64_t session,
                             const WireSubmit& request) {
  SubmitOutcome outcome;
  MapJob job;
  MapRequest run;
  try {
    std::tie(job, run) = service_job(next_job_id_, request);
  } catch (const Error& ex) {
    outcome.code = WireErrorCode::kBadRequest;
    outcome.message = ex.what();
    return outcome;
  }

  std::optional<MappingService::JobHandle> handle =
      service_->try_submit(std::move(job), std::move(run));
  if (!handle.has_value()) {
    outcome.code = WireErrorCode::kOverloaded;
    outcome.message = "queue full for class " + request.priority_class +
                      " (max_queued " + std::to_string(options_.max_queued) +
                      ")";
    return outcome;
  }
  // A refused submit consumes no wire id.
  const std::uint64_t id = next_job_id_++;

  JobEntry entry;
  entry.handle = *std::move(handle);
  entry.priority_class = request.priority_class;
  entry.want_mapping = request.want_mapping;
  if (request.subscribe) entry.subscribers.insert(session);

  if (journal_ != nullptr) {
    // Commit before acknowledging: the ok response only leaves after the
    // submitted record is on disk, so every acknowledged job survives a
    // crash. A failed journal write rejects the submit (and cancels the
    // already-enqueued job) — accepting unjournaled work would break the
    // restart guarantee the client was promised.
    entry.submit_json = to_json(request);
    try {
      journal_->append(submitted_record(id, entry));
    } catch (const Error& ex) {
      entry.handle.cancel();
      logf("job %llu rejected: %s",
           static_cast<unsigned long long>(id), ex.what());
      outcome.code = WireErrorCode::kInternal;
      outcome.message = std::string("journal write failed: ") + ex.what();
      return outcome;
    }
  }

  ++outstanding_;
  jobs_.emplace(id, std::move(entry));
  logf("job %llu accepted (session %llu, class %s, mapper %s)",
       static_cast<unsigned long long>(id),
       static_cast<unsigned long long>(session),
       request.priority_class.c_str(), request.mapper_spec.c_str());

  outcome.accepted = true;
  outcome.job = id;
  return outcome;
}

Json Daemon::status_body(std::uint64_t id, const JobEntry& entry) const {
  if (entry.restored_status.has_value()) {
    // Journal-restored terminal job: answer the recorded status verbatim
    // (there is no live handle behind it).
    return *entry.restored_status;
  }
  Json body = Json::object();
  body.set("job", Json(id));
  body.set("class", Json(entry.priority_class));
  const JobStatus status = entry.handle.status();
  // Terminal only once the IO thread has journaled it (`entry.terminal`):
  // until then a finished job reads running.
  const bool live = status == JobStatus::kQueued ||
                    status == JobStatus::kRunning || entry.terminal;
  body.set("state", Json(to_string(live ? status : JobStatus::kRunning)));
  if (!entry.terminal) return body;

  const MapJobResult& result = entry.handle.wait();  // terminal: immediate
  if (status == JobStatus::kDone) {
    body.set("cache", Json(to_string(result.report.cache)));
    body.set("makespan", Json(result.report.predicted_makespan));
    body.set("reported_makespan", Json(result.reported_makespan));
    body.set("baseline_makespan", Json(result.baseline_makespan));
    body.set("termination", Json(to_string(result.report.termination)));
    body.set("iterations", Json(result.report.iterations));
    body.set("evaluations", Json(result.report.evaluations));
    body.set("incumbents", Json(result.report.trajectory.size()));
    body.set("wall_ms", Json(1e3 * result.wall_seconds));
    if (entry.want_mapping) {
      Json mapping = Json::array();
      for (std::size_t i = 0; i < result.report.mapping.size(); ++i) {
        mapping.push_back(
            Json(static_cast<std::size_t>(result.report.mapping.device[i].v)));
      }
      body.set("mapping", std::move(mapping));
    }
  } else {
    body.set("error", Json(result.error));
  }
  return body;
}

std::optional<Json> Daemon::job_status(std::uint64_t job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return std::nullopt;
  return status_body(job, it->second);
}

bool Daemon::cancel_job(std::uint64_t job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return false;
  // Restored terminal jobs have no live handle; cancelling a terminal
  // job is an idempotent success either way.
  if (!it->second.restored_status.has_value()) it->second.handle.cancel();
  return true;
}

bool Daemon::subscribe(std::uint64_t session, std::uint64_t job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return false;
  it->second.subscribers.insert(session);
  if (it->second.terminal) {
    // The job already finished: replay the done event to this subscriber
    // (after the ok response — events go out in queue order).
    Event event;
    event.kind = Event::Kind::kReplayDone;
    event.job = job;
    event.session = session;
    push_event(std::move(event));
  }
  return true;
}

// ---- journal ---------------------------------------------------------------

Json Daemon::submitted_record(std::uint64_t id, const JobEntry& entry) const {
  Json record = Json::object();
  record.set("type", Json("submitted"));
  record.set("job", Json(id));
  record.set("submit", entry.submit_json);
  return record;
}

void Daemon::journal_append(const Json& record) {
  if (journal_ == nullptr) return;
  try {
    journal_->append(record);
  } catch (const Error& ex) {
    // Degrade, don't die: a failed terminal append means the job is
    // re-executed after a restart (same deterministic result), never
    // lost or wrongly acknowledged. Only the submit-path append rejects
    // work, because there the acknowledgement *is* the durability promise.
    logf("journal: append failed: %s", ex.what());
  }
}

void Daemon::compact_journal() {
  if (journal_ == nullptr) return;
  std::vector<Json> records;
  records.reserve(2 * jobs_.size());
  for (const auto& [id, entry] : jobs_) {
    if (entry.submit_json.is_object()) {
      records.push_back(submitted_record(id, entry));
    }
    if (entry.terminal) {
      Json record = Json::object();
      record.set("type", Json("terminal"));
      record.set("job", Json(id));
      record.set("status", status_body(id, entry));
      records.push_back(std::move(record));
    }
  }
  try {
    journal_->rewrite(records);
    logf("journal: compacted to %zu record(s)", records.size());
  } catch (const Error& ex) {
    logf("journal: compaction failed: %s", ex.what());
  }
}

void Daemon::init_journal() {
  JournalReplay replay = replay_journal(options_.journal_path);
  if (replay.tail_dropped) {
    logf("journal: dropping uncommitted tail of %s (%s)",
         options_.journal_path.c_str(), replay.tail_error.c_str());
  }

  // Fold the record stream into per-job recovery state. Record types
  // this loop does not know (the `started` and `incumbent` progress
  // markers older daemons wrote among them) are skipped.
  struct Recovered {
    Json submit;
    bool have_submit = false;
    std::optional<Json> terminal;
  };
  std::map<std::uint64_t, Recovered> recovered;
  for (const Json& record : replay.records) {
    if (!record.contains("type") || !record.at("type").is_string() ||
        !record.contains("job") || !record.at("job").is_number()) {
      continue;  // unknown shape: skip, stay forward-compatible
    }
    const std::string type = record.at("type").as_string();
    const auto id = static_cast<std::uint64_t>(record.at("job").as_int());
    Recovered& job = recovered[id];
    if (type == "submitted" && record.contains("submit")) {
      job.submit = record.at("submit");
      job.have_submit = true;
    } else if (type == "terminal" && record.contains("status")) {
      job.terminal = record.at("status");
    }
  }

  std::size_t restored = 0;
  std::size_t requeued = 0;
  for (auto& [id, job] : recovered) {
    next_job_id_ = std::max(next_job_id_, id + 1);
    JobEntry entry;
    if (job.have_submit) entry.submit_json = job.submit;

    if (job.terminal.has_value()) {
      // Finished before the restart: keep the recorded status answerable
      // under the original job id.
      entry.terminal = true;
      entry.restored_status = std::move(job.terminal);
      if (entry.restored_status->contains("class") &&
          entry.restored_status->at("class").is_string()) {
        entry.priority_class =
            entry.restored_status->at("class").as_string();
      }
      jobs_.emplace(id, std::move(entry));
      retain_completed(id);
      ++restored;
      continue;
    }
    if (!job.have_submit) continue;  // nothing actionable

    // Acknowledged but never finished: re-enqueue from the journaled
    // submit body under the original wire id. Construction seeds ride in
    // the body, so a pinned job re-runs bit-identically.
    std::string cls = "normal";
    try {
      const WireSubmit request = wire_submit_from_json(job.submit);
      cls = request.priority_class;
      const auto [mjob, run] = service_job(id, request);

      // Acknowledged work is never shed: recovery may hold more than
      // max_queued jobs (what was queued plus what was running at the
      // crash), so it submits past the class bounds.
      entry.handle = service_->submit(mjob, run);
      entry.priority_class = request.priority_class;
      entry.want_mapping = request.want_mapping;
      ++outstanding_;
      jobs_.emplace(id, std::move(entry));
      ++requeued;
    } catch (const Error& ex) {
      // The journaled body no longer runs (mapper renamed, schema drift):
      // surface it as a failed job rather than forgetting it.
      Json status = Json::object();
      status.set("job", Json(id));
      status.set("class", Json(cls));
      status.set("state", Json("failed"));
      status.set("error",
                 Json(std::string("journal recovery: ") + ex.what()));
      entry.terminal = true;
      entry.restored_status = std::move(status);
      entry.priority_class = cls;
      jobs_.emplace(id, std::move(entry));
      retain_completed(id);
      ++restored;
    }
  }

  // Open for append and compact away replaced/duplicate records (and any
  // dropped tail bytes) right away.
  journal_ = std::make_unique<Journal>(options_.journal_path);
  compact_journal();
  if (!recovered.empty() || replay.tail_dropped) {
    logf("journal: replayed %s (%zu record(s): %zu terminal restored, "
         "%zu re-enqueued)",
         options_.journal_path.c_str(), replay.records.size(), restored,
         requeued);
  }
}

// ---- IO loop ---------------------------------------------------------------

void Daemon::accept_clients() {
  if (!listener_ || !listener_->valid()) return;
  for (;;) {
    Socket client = listener_->accept_client();
    if (!client.valid()) return;
    if (failpoint("daemon.accept")) {
      // Injected accept failure: drop the fresh connection on the floor
      // (the client sees an immediate close and retries with backoff).
      continue;
    }
    const std::uint64_t id = next_session_id_++;
    SessionConfig config;
    config.idle_timeout_s = options_.idle_timeout_s;
    conns_.emplace(id, Conn(std::move(client), id, *this, config,
                            options_.max_frame_bytes));
    logf("session %llu connected", static_cast<unsigned long long>(id));
  }
}

bool Daemon::enqueue_lines(Conn& conn,
                           const std::vector<std::string>& lines) {
  for (const std::string& line : lines) conn.outbuf += line;
  if (conn.outbuf.size() > kMaxOutbufBytes) {
    // The peer stopped reading: drop it rather than buffer unboundedly.
    conn.socket.close();
    return false;
  }
  return flush_outbuf(conn);
}

bool Daemon::flush_outbuf(Conn& conn) {
  if (!conn.socket.valid()) return false;
  if (failpoint("daemon.flush")) {
    // Injected write failure: the connection dies mid-stream, exactly
    // like a peer vanishing between our send and its read.
    conn.socket.close();
    return false;
  }
  while (!conn.outbuf.empty()) {
    const ssize_t n =
        send_some(conn.socket.fd(), conn.outbuf.data(), conn.outbuf.size());
    if (n < 0) {
      conn.socket.close();
      return false;
    }
    if (n == 0) return true;  // EAGAIN: poll will report POLLOUT
    conn.outbuf.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

void Daemon::conn_readable(Conn& conn, double now) {
  char buffer[4096];
  bool eof = false;
  std::vector<std::string> frames;
  for (;;) {
    const ssize_t n = recv_some(conn.socket.fd(), buffer, sizeof(buffer));
    if (n == 0) break;  // EAGAIN: drained the socket
    if (n < 0) {
      eof = true;
      break;
    }
    if (!conn.reader.feed(buffer, static_cast<std::size_t>(n), frames)) {
      break;  // overflowed: the poisoned reader stops producing
    }
  }
  for (const std::string& frame : frames) {
    if (!enqueue_lines(conn, conn.session.on_frame(frame, now))) return;
  }
  if (conn.reader.overflowed()) {
    enqueue_lines(conn, conn.session.on_frame_overflow());
    return;
  }
  if (eof) conn.socket.close();
}

void Daemon::reap_connections() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    const Conn& conn = it->second;
    const bool dead = !conn.socket.valid();
    const bool finished = conn.session.closed() && conn.outbuf.empty();
    if (!dead && !finished) {
      ++it;
      continue;
    }
    logf("session %llu closed (%s)",
         static_cast<unsigned long long>(it->first),
         dead ? "peer gone" : to_string(conn.session.state()));
    it = conns_.erase(it);
  }
}

void Daemon::start_drain(double now) {
  draining_ = true;
  double grace = requested_grace_ms_.load(std::memory_order_relaxed);
  if (grace < 0.0) grace = options_.grace_ms;
  grace_deadline_s_ = now + grace / 1e3;
  hard_deadline_s_ = grace_deadline_s_ + std::max(grace, 2000.0) / 1e3;
  if (listener_) listener_->shut();
  logf("draining: %zu job(s) outstanding, grace %.0f ms", outstanding_,
       grace);
  for (auto& [id, conn] : conns_) {
    (void)id;
    if (!conn.session.closed()) {
      enqueue_lines(conn, conn.session.on_server_drain());
    }
  }
}

int Daemon::run() {
  // This thread IS the IO thread for the daemon's lifetime: every
  // io_role_-guarded table below is touched only from this frame and
  // its callees.
  ScopedThreadRole io(io_role_);
  require(listener_.has_value(), "Daemon::run() before bind()");
  if (options_.install_signal_handlers) {
    g_signal_wake_fd.store(wake_write_, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = signal_drain_handler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
  }

  bool drain_failed = false;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = none)

  for (;;) {
    const double now = clock_.seconds();
    if (g_signal_drain.exchange(false, std::memory_order_relaxed)) {
      logf("signal received: draining");
      request_drain(-1.0);
    }
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      start_drain(now);
    }
    process_events();

    if (draining_) {
      if (outstanding_ == 0) break;  // every job terminal: finish up
      if (!cancelled_in_flight_ && now >= grace_deadline_s_) {
        cancelled_in_flight_ = true;
        logf("grace deadline: cancelling %zu outstanding job(s)",
             outstanding_);
        for (auto& [id, entry] : jobs_) {
          (void)id;
          if (!entry.terminal) entry.handle.cancel();
        }
      }
      if (now >= hard_deadline_s_) {
        // Last chance: give each job a short timed wait, then abandon.
        for (auto& [id, entry] : jobs_) {
          (void)id;
          if (!entry.terminal) (void)entry.handle.wait_for(50.0);
        }
        process_events();
        if (outstanding_ > 0) {
          logf("hard deadline: abandoning %zu job(s)", outstanding_);
          drain_failed = true;
        }
        break;
      }
    }

    // Periodic housekeeping before sleeping.
    if (options_.idle_timeout_s > 0.0) {
      for (auto& [id, conn] : conns_) {
        (void)id;
        if (!conn.session.closed()) {
          enqueue_lines(conn, conn.session.on_idle_check(now));
        }
      }
    }
    reap_connections();

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_read_, POLLIN, 0});
    fd_conn.push_back(0);
    if (listener_->valid()) {
      fds.push_back({listener_->fd(), POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn.outbuf.empty()) events |= POLLOUT;
      fds.push_back({conn.socket.fd(), events, 0});
      fd_conn.push_back(id);
    }

    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0 && errno != EINTR) {
      throw Error(std::string("Daemon: poll failed: ") +
                  std::strerror(errno));
    }
    if (rc <= 0) continue;

    const double after = clock_.seconds();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == wake_read_) {
        char sink[256];
        while (::read(wake_read_, sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (listener_->valid() && fds[i].fd == listener_->fd()) {
        accept_clients();
        continue;
      }
      const auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end() || !it->second.socket.valid()) continue;
      Conn& conn = it->second;
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        conn_readable(conn, after);
      }
      if (conn.socket.valid() && (fds[i].revents & POLLOUT)) {
        flush_outbuf(conn);
      }
    }
  }

  // Finish: say goodbye, flush what we can, close everything.
  process_events();
  for (auto& [id, conn] : conns_) {
    (void)id;
    if (conn.socket.valid() && !conn.session.closed()) {
      enqueue_lines(conn, {event_line(
                              "closing",
                              Json(Json::Object{{"reason", Json("drained")}}))});
    }
  }
  conns_.clear();
  if (listener_) listener_->shut();
  logf("drain %s", drain_failed ? "abandoned jobs (exit 1)" : "complete");
  return drain_failed ? 1 : 0;
}

void Daemon::logf(const char* fmt, ...) const {
  if (options_.log == nullptr) return;
  std::va_list args;
  va_start(args, fmt);
  std::fputs("[spmap-daemon] ", options_.log);
  std::vfprintf(options_.log, fmt, args);
  std::fputc('\n', options_.log);
  va_end(args);
  std::fflush(options_.log);
}

}  // namespace spmap
