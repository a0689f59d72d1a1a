#include "serve/loadgen.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "model/platform.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/mapping_service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace spmap {

namespace {

struct MixEntry {
  std::string cls;
  std::uint64_t weight;
};

std::vector<MixEntry> parse_mix(const std::string& mix) {
  std::vector<MixEntry> entries;
  std::size_t pos = 0;
  while (pos < mix.size()) {
    const std::size_t comma = mix.find(',', pos);
    const std::string item =
        mix.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? mix.size() : comma + 1;
    const std::size_t eq = item.find('=');
    require(eq != std::string::npos && eq > 0 && eq + 1 < item.size(),
            "loadgen mix entries must be class=weight, got \"" + item +
                "\"");
    const std::string cls = item.substr(0, eq);
    require(cls == "low" || cls == "normal" || cls == "high",
            "loadgen mix class must be low, normal or high, got \"" + cls +
                "\"");
    const std::string weight = item.substr(eq + 1);
    char* end = nullptr;
    const unsigned long value = std::strtoul(weight.c_str(), &end, 10);
    require(end != nullptr && *end == '\0' && value >= 1,
            "loadgen mix weight must be a positive integer, got \"" +
                weight + "\"");
    entries.push_back({cls, value});
  }
  require(!entries.empty(), "loadgen mix is empty");
  return entries;
}

/// The deterministic identity of request `index`: every stream (class
/// pick, generation, construction, run seed) is a splitmix64 draw from a
/// state derived from the base seed and the index alone — independent of
/// session scheduling, so `verify` can reconstruct any request. The seeds
/// keep 53 bits: the wire carries integers below 2^53 exactly and refuses
/// larger ones.
struct RequestSpec {
  std::string cls;
  std::uint64_t generate_seed = 0;
  std::uint64_t construction_seed = 0;
  std::uint64_t run_seed = 0;
};

RequestSpec request_spec(const LoadgenOptions& options, std::uint64_t index,
                         const std::vector<MixEntry>& mix) {
  // --distinct K folds the index: requests i and i+K are the same problem
  // with the same pinned seeds, so a caching daemon answers the repeats
  // from its memo.
  if (options.distinct > 0) index %= options.distinct;
  std::uint64_t state =
      options.seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  RequestSpec spec;
  spec.generate_seed = splitmix64(state) >> 11;
  spec.construction_seed = splitmix64(state) >> 11;
  spec.run_seed = splitmix64(state) >> 11;
  std::uint64_t total = 0;
  for (const MixEntry& entry : mix) total += entry.weight;
  std::uint64_t pick = splitmix64(state) % total;
  for (const MixEntry& entry : mix) {
    if (pick < entry.weight) {
      spec.cls = entry.cls;
      break;
    }
    pick -= entry.weight;
  }
  return spec;
}

Json submit_frame(const LoadgenOptions& options, std::uint64_t tag,
                  const RequestSpec& spec) {
  Json generate = Json::object();
  generate.set("type", Json("sp"));
  generate.set("tasks", Json(options.tasks));
  generate.set("seed", Json(spec.generate_seed));

  Json frame = Json::object();
  frame.set("op", Json("submit"));
  frame.set("tag", Json(tag));
  frame.set("mapper", Json(options.mapper));
  frame.set("class", Json(spec.cls));
  frame.set("generate", std::move(generate));
  if (options.max_evaluations > 0) {
    frame.set("max_evals", Json(options.max_evaluations));
  }
  frame.set("seed", Json(spec.run_seed));
  frame.set("construction_seed", Json(spec.construction_seed));
  if (options.reporting_orders > 0) {
    frame.set("reporting_orders", Json(options.reporting_orders));
  }
  frame.set("subscribe", Json(true));
  return frame;
}

/// One finished request with everything `verify` needs.
struct Sample {
  RequestSpec spec;
  double latency_ms = 0.0;
  double makespan = 0.0;
  double reported_makespan = 0.0;
};

struct SessionOutcome {
  std::vector<Sample> samples;
  std::map<std::string, LoadgenClassStats> counts;
  std::vector<std::string> errors;
  bool connected = false;
  // Cache outcomes of completed requests (see LoadgenReport).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_none = 0;
  // Chaos accounting (see LoadgenReport).
  std::size_t drops = 0;
  std::size_t reconnects = 0;
  std::size_t lost = 0;
  std::size_t duplicated = 0;
};

WireClientOptions client_options(const LoadgenOptions& options,
                                 std::uint64_t session_index) {
  WireClientOptions copts;
  copts.connect_retries = options.connect_retries;
  copts.backoff_ms = options.backoff_ms;
  copts.jitter_seed = options.seed ^ (0x6a17e500u + session_index);
  if (options.chaos) {
    // Chaos recovery has to ride out daemon restarts: give reconnect a
    // real retry schedule even when the caller asked for none.
    copts.connect_retries = std::max<std::size_t>(copts.connect_retries, 10);
  }
  return copts;
}

void note_error(SessionOutcome& out, std::string message) {
  if (out.errors.size() < 8) out.errors.push_back(std::move(message));
}

bool frame_ok(const Json& frame) {
  return frame.contains("ok") && frame.at("ok").is_bool() &&
         frame.at("ok").as_bool();
}

std::string frame_error_code(const Json& frame) {
  if (frame.contains("error") && frame.at("error").is_object() &&
      frame.at("error").contains("code")) {
    return frame.at("error").at("code").as_string();
  }
  return "";
}

/// Records a `done` event for the request it answers.
void record_done(const Json& done, const RequestSpec& spec, double latency_ms,
                 SessionOutcome& out) {
  LoadgenClassStats& stats = out.counts[spec.cls];
  const std::string state =
      done.contains("state") ? done.at("state").as_string() : "";
  if (state == "done") {
    ++stats.completed;
    const std::string cache =
        done.contains("cache") ? done.at("cache").as_string() : "none";
    if (cache == "hit") {
      ++out.cache_hits;
    } else if (cache == "miss") {
      ++out.cache_misses;
    } else {
      ++out.cache_none;
    }
    Sample sample;
    sample.spec = spec;
    sample.latency_ms = latency_ms;
    sample.makespan = done.at("makespan").as_double();
    sample.reported_makespan = done.at("reported_makespan").as_double();
    out.samples.push_back(std::move(sample));
  } else {
    ++stats.failed;
    note_error(out, "job finished as " + state + ": " +
                        (done.contains("error")
                             ? done.at("error").as_string()
                             : ""));
  }
}

/// Counts a lost connection and reconnects with a fresh hello, retrying
/// until the endpoint answers again (the daemon may be mid-restart under
/// the supervisor).
void recover(WireClient& client, SessionOutcome& out) {
  ++out.drops;
  const WallTimer timer;
  for (;;) {
    try {
      client.reconnect();
      ++out.reconnects;
      return;
    } catch (const Error&) {
      if (timer.seconds() > 60.0) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

/// One session: submit, wait for the `done`, repeat. A timed-out answer
/// or `done` ends the session. A lost connection ends it too, unless
/// `chaos` is on: then the session drops the connection on purpose
/// around the submit and await points, reconnects with a fresh hello
/// after every loss, and polls `status` by job id for the result the
/// lost subscription would have carried. Either way every acknowledged
/// submit is recorded terminal exactly once.
void run_session(const LoadgenOptions& options,
                 const std::vector<MixEntry>& mix, std::uint64_t first_index,
                 std::uint64_t count, SessionOutcome& out) {
  WireClient client(options.endpoint, client_options(options, first_index));
  out.connected = true;
  std::uint64_t chaos_state = options.seed ^ (0xc4a05u + first_index);
  Rng chaos_rng(splitmix64(chaos_state));
  const auto chaos_drop = [&] {
    if (!options.chaos) return false;
    // A uniform [0,1) roll from the session's deterministic chaos stream.
    const double roll = static_cast<double>(chaos_rng() >> 11) * 0x1.0p-53;
    return roll < options.chaos_drop_rate;
  };
  const WallTimer clock;
  std::set<std::uint64_t> recorded;  // job ids already accounted terminal

  // Reads the next response (skipping events, which are accounted only
  // for duplicate detection). Throws on connection loss.
  const auto next_answer = [&]() -> std::optional<Json> {
    for (;;) {
      std::optional<Json> frame = client.recv(60e3);
      if (!frame.has_value() || !frame->contains("event")) return frame;
      if (frame->at("event").as_string() == "done" &&
          frame->contains("job")) {
        const auto jid =
            static_cast<std::uint64_t>(frame->at("job").as_int());
        if (recorded.count(jid) != 0) ++out.duplicated;
      }
    }
  };

  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t index = first_index + i;
    const RequestSpec spec = request_spec(options, index, mix);
    LoadgenClassStats& stats = out.counts[spec.cls];
    ++stats.submitted;
    const double t0 = clock.seconds();

    // ---- submit until answered ------------------------------------------
    // A drop between send and answer leaves the submit's fate unknown: we
    // re-submit. If the first copy *was* accepted it runs as an orphan
    // whose done event goes to the dead connection — the daemon wastes a
    // run, but the request is recorded exactly once.
    std::optional<Json> answer;
    for (;;) {
      try {
        client.send(submit_frame(options, index, spec));
        if (chaos_drop()) {
          client.drop_connection();
          recover(client, out);
          continue;  // fate unknown: re-submit
        }
        answer = next_answer();
        break;
      } catch (const Error&) {
        if (!options.chaos) throw;
        recover(client, out);  // incidental: daemon killed mid-submit
      }
    }
    if (!answer.has_value()) {
      ++stats.failed;
      note_error(out, "submit response timed out");
      return;
    }
    if (!frame_ok(*answer)) {
      if (frame_error_code(*answer) == "overloaded") {
        ++stats.rejected;
      } else {
        ++stats.failed;
        note_error(out, "submit refused: " + answer->dump());
      }
      continue;
    }
    const auto job = static_cast<std::uint64_t>(answer->at("job").as_int());

    // ---- post-ack injected drop -----------------------------------------
    // Counted in the await loop below, where the dead socket surfaces.
    if (chaos_drop()) client.drop_connection();

    // ---- await the terminal result, across drops and restarts -----------
    // The submit's subscription carries the `done`; after a reconnect it
    // is gone, so the session polls `status` by job id, which a journaled
    // daemon answers across restarts.
    bool poll_status = false;
    std::string missing = "never turned terminal (120 s)";
    const WallTimer request_timer;
    std::optional<Json> result;
    while (!result.has_value()) {
      const double left_ms = 120e3 - request_timer.millis();
      if (left_ms <= 0.0) break;
      try {
        if (!poll_status) {
          std::optional<Json> frame = client.recv_event("done", left_ms);
          if (!frame.has_value()) continue;  // the deadline ends the wait
          const auto jid =
              static_cast<std::uint64_t>(frame->at("job").as_int());
          if (jid == job) {
            result = std::move(frame);
          } else if (recorded.count(jid) != 0) {
            ++out.duplicated;  // an already-recorded job delivered again
          }
          continue;
        }
        Json status = Json::object();
        status.set("op", Json("status"));
        status.set("job", Json(job));
        client.send(status);
        std::optional<Json> reply = next_answer();
        if (!reply.has_value()) continue;
        if (!frame_ok(*reply)) {
          missing = "unknown after reconnect: " + reply->dump();
          break;
        }
        const std::string state = reply->at("state").as_string();
        if (state == "queued" || state == "running") {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          continue;
        }
        result = std::move(reply);
      } catch (const Error&) {
        if (!options.chaos) throw;
        recover(client, out);
        poll_status = true;
      }
    }
    if (!result.has_value()) {
      // An acknowledged submit with no terminal result: exactly what the
      // journal must prevent across restarts.
      ++stats.failed;
      if (options.chaos) ++out.lost;
      note_error(out, "job " + std::to_string(job) + " " + missing);
      return;
    }
    record_done(*result, spec, 1e3 * (clock.seconds() - t0), out);
    recorded.insert(job);
  }
}

/// Re-runs every completed request through a local MappingService with
/// the identical job construction and demands bit-identical makespans.
/// With --distinct, repeated identities are re-executed locally only
/// once (the local run is deterministic, so one execution answers every
/// repeat) but every sample is still compared and counted.
void verify_samples(const LoadgenOptions& options,
                    const std::vector<Sample>& samples,
                    LoadgenReport& report) {
  const auto platform =
      std::make_shared<const Platform>(reference_platform());
  MappingServiceOptions service_options;
  service_options.workers = 1;
  MappingService service(service_options);
  struct LocalRun {
    std::string error;
    double makespan = 0.0;
    double reported_makespan = 0.0;
  };
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, LocalRun>
      memo;
  for (const Sample& sample : samples) {
    const auto key = std::make_tuple(sample.spec.generate_seed,
                                     sample.spec.construction_seed,
                                     sample.spec.run_seed);
    auto it = memo.find(key);
    if (it == memo.end()) {
      Json generate = Json::object();
      generate.set("type", Json("sp"));
      generate.set("tasks", Json(options.tasks));
      generate.set("seed", Json(sample.spec.generate_seed));

      MapJob job;
      job.mapper_spec = options.mapper;
      job.graph = std::make_shared<const TaskGraph>(
          graph_from_generate_spec(generate));
      job.platform = platform;
      job.reporting_orders = options.reporting_orders;
      job.construction_rng = Rng(sample.spec.construction_seed);

      MapRequest request;
      request.max_evaluations = options.max_evaluations;
      request.seed = sample.spec.run_seed;

      MappingService::JobHandle handle =
          service.submit(std::move(job), std::move(request));
      const MapJobResult& result = handle.wait();
      LocalRun run;
      run.error = result.error;
      run.makespan = result.report.predicted_makespan;
      run.reported_makespan = result.reported_makespan;
      it = memo.emplace(key, std::move(run)).first;
    }
    const LocalRun& local = it->second;
    ++report.verified;
    if (!local.error.empty() || local.makespan != sample.makespan ||
        local.reported_makespan != sample.reported_makespan) {
      ++report.mismatches;
      if (report.errors.size() < 8) {
        report.errors.push_back(
            "verify mismatch: server makespan " +
            std::to_string(sample.makespan) + " local " +
            std::to_string(local.makespan));
      }
    }
  }
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenOptions& options) {
  require(options.sessions >= 1, "loadgen: sessions must be >= 1");
  const std::vector<MixEntry> mix = parse_mix(options.mix);

  std::vector<SessionOutcome> outcomes(options.sessions);
  std::vector<std::thread> threads;
  threads.reserve(options.sessions);
  const WallTimer wall;

  for (std::size_t s = 0; s < options.sessions; ++s) {
    threads.emplace_back([&, s] {
      SessionOutcome& out = outcomes[s];
      try {
        // Split `requests` across sessions, remainder to the first ones,
        // contiguous global index ranges.
        const std::uint64_t base = options.requests / options.sessions;
        const std::uint64_t extra = options.requests % options.sessions;
        const std::uint64_t first =
            s * base + std::min<std::uint64_t>(s, extra);
        run_session(options, mix, first, base + (s < extra ? 1 : 0), out);
      } catch (const std::exception& ex) {
        note_error(out, std::string("session failed: ") + ex.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadgenReport report;
  report.sessions = options.sessions;
  report.wall_seconds = wall.seconds();

  bool any_connected = false;
  std::map<std::string, Samples> latencies;
  std::vector<Sample> samples;
  for (SessionOutcome& out : outcomes) {
    any_connected = any_connected || out.connected;
    for (auto& [cls, stats] : out.counts) {
      LoadgenClassStats& total = report.classes[cls];
      total.submitted += stats.submitted;
      total.completed += stats.completed;
      total.rejected += stats.rejected;
      total.failed += stats.failed;
    }
    for (Sample& sample : out.samples) {
      latencies[sample.spec.cls].add(sample.latency_ms);
      samples.push_back(std::move(sample));
    }
    for (std::string& error : out.errors) {
      if (report.errors.size() < 16) {
        report.errors.push_back(std::move(error));
      }
    }
    report.drops += out.drops;
    report.reconnects += out.reconnects;
    report.lost += out.lost;
    report.duplicated += out.duplicated;
    report.cache_hits += out.cache_hits;
    report.cache_misses += out.cache_misses;
    report.cache_none += out.cache_none;
  }
  require(any_connected,
          "loadgen: no session could connect to " +
              options.endpoint.to_string());

  for (const auto& [cls, values] : latencies) {
    LoadgenClassStats& stats = report.classes[cls];
    stats.p50_ms = values.quantile(0.50);
    stats.p95_ms = values.quantile(0.95);
    stats.p99_ms = values.quantile(0.99);
    stats.max_ms = values.max();
    stats.mean_ms = values.mean();
  }
  for (const auto& [cls, stats] : report.classes) {
    (void)cls;
    report.submitted += stats.submitted;
    report.completed += stats.completed;
    report.rejected += stats.rejected;
    report.failed += stats.failed;
  }
  report.throughput_rps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;

  if (options.verify) verify_samples(options, samples, report);
  return report;
}

Json loadgen_report_json(const LoadgenOptions& options,
                         const LoadgenReport& report) {
  Json doc = Json::object();
  doc.set("schema", Json("spmap-loadgen-report/1"));
  doc.set("endpoint", Json(options.endpoint.to_string()));
  doc.set("sessions", Json(report.sessions));
  doc.set("mix", Json(options.mix));
  doc.set("mapper", Json(options.mapper));
  doc.set("tasks", Json(options.tasks));
  doc.set("max_evals", Json(options.max_evaluations));
  doc.set("seed", Json(options.seed));
  if (options.distinct > 0) doc.set("distinct", Json(options.distinct));
  doc.set("requests", Json(options.requests));
  doc.set("wall_seconds", Json(report.wall_seconds));
  doc.set("throughput_rps", Json(report.throughput_rps));
  doc.set("submitted", Json(report.submitted));
  doc.set("completed", Json(report.completed));
  doc.set("rejected", Json(report.rejected));
  doc.set("failed", Json(report.failed));
  doc.set("verified", Json(report.verified));
  doc.set("mismatches", Json(report.mismatches));
  doc.set("cache_hits", Json(report.cache_hits));
  doc.set("cache_misses", Json(report.cache_misses));
  doc.set("cache_none", Json(report.cache_none));
  doc.set("cache_hit_rate",
          Json(report.completed > 0
                   ? static_cast<double>(report.cache_hits) /
                         static_cast<double>(report.completed)
                   : 0.0));
  if (options.chaos) {
    doc.set("chaos", Json(true));
    doc.set("chaos_drop_rate", Json(options.chaos_drop_rate));
    doc.set("drops", Json(report.drops));
    doc.set("reconnects", Json(report.reconnects));
    doc.set("lost", Json(report.lost));
    doc.set("duplicated", Json(report.duplicated));
  }
  Json classes = Json::object();
  for (const auto& [cls, stats] : report.classes) {
    Json entry = Json::object();
    entry.set("submitted", Json(stats.submitted));
    entry.set("completed", Json(stats.completed));
    entry.set("rejected", Json(stats.rejected));
    entry.set("failed", Json(stats.failed));
    entry.set("p50_ms", Json(stats.p50_ms));
    entry.set("p95_ms", Json(stats.p95_ms));
    entry.set("p99_ms", Json(stats.p99_ms));
    entry.set("mean_ms", Json(stats.mean_ms));
    entry.set("max_ms", Json(stats.max_ms));
    classes.set(cls, std::move(entry));
  }
  doc.set("classes", std::move(classes));
  Json errors = Json::array();
  for (const std::string& error : report.errors) {
    errors.push_back(Json(error));
  }
  doc.set("errors", std::move(errors));
  return doc;
}

}  // namespace spmap
