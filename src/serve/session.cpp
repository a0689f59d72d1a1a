#include "serve/session.hpp"

#include <utility>

#include "util/error.hpp"

namespace spmap {

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kHandshake: return "handshake";
    case SessionState::kActive: return "active";
    case SessionState::kDraining: return "draining";
    case SessionState::kClosed: return "closed";
  }
  return "unknown";
}

namespace {

/// Field extraction helpers: schema violations throw spmap::Error with a
/// message the session turns into a `bad_request` response.
const Json& object_field(const Json& body, const char* key) {
  const Json& v = body.at(key);
  require(v.is_object(), std::string("\"") + key + "\" must be an object");
  return v;
}

double number_field(const Json& body, const char* key, double fallback) {
  if (!body.contains(key)) return fallback;
  const Json& v = body.at(key);
  require(v.is_number(), std::string("\"") + key + "\" must be a number");
  return v.as_double();
}

bool bool_field(const Json& body, const char* key, bool fallback) {
  if (!body.contains(key)) return fallback;
  const Json& v = body.at(key);
  require(v.is_bool(), std::string("\"") + key + "\" must be a boolean");
  return v.as_bool();
}

std::uint64_t job_field(const Json& body) {
  const std::optional<std::uint64_t> job = uint_field(body, "job");
  require(job.has_value(), "\"job\" is required");
  return *job;
}

int priority_of_class(const std::string& cls) {
  if (cls == "low") return 0;
  if (cls == "normal") return 1;
  if (cls == "high") return 2;
  throw Error("\"class\" must be \"low\", \"normal\" or \"high\", got \"" +
              cls + "\"");
}

}  // namespace

Json to_json(const WireSubmit& request) {
  Json body = Json::object();
  body.set("mapper", Json(request.mapper_spec));
  body.set("class", Json(request.priority_class));
  if (request.graph.has_value()) body.set("graph", *request.graph);
  if (request.generate.has_value()) body.set("generate", *request.generate);
  if (request.platform.has_value()) body.set("platform", *request.platform);
  if (request.deadline_ms > 0.0) {
    body.set("deadline_ms", Json(request.deadline_ms));
  }
  if (request.max_evaluations > 0) {
    body.set("max_evals", Json(static_cast<std::uint64_t>(
                              request.max_evaluations)));
  }
  if (request.max_iterations > 0) {
    body.set("max_iters", Json(static_cast<std::uint64_t>(
                              request.max_iterations)));
  }
  if (request.seed.has_value()) body.set("seed", Json(*request.seed));
  if (request.construction_seed.has_value()) {
    body.set("construction_seed", Json(*request.construction_seed));
  }
  if (request.reporting_orders > 0) {
    body.set("reporting_orders", Json(static_cast<std::uint64_t>(
                                     request.reporting_orders)));
  }
  if (request.subscribe) body.set("subscribe", Json(true));
  if (request.want_mapping) body.set("return_mapping", Json(true));
  return body;
}

WireSubmit wire_submit_from_json(const Json& body) {
  WireSubmit request;
  body.require_keys(
      "submit",
      {"op", "tag", "mapper", "class", "graph", "generate", "platform",
       "deadline_ms", "max_evals", "max_iters", "seed", "construction_seed",
       "reporting_orders", "subscribe", "return_mapping"});
  require(body.contains("mapper") && body.at("mapper").is_string() &&
              !body.at("mapper").as_string().empty(),
          "\"mapper\" must be a non-empty registry spec string");
  request.mapper_spec = body.at("mapper").as_string();
  if (body.contains("class")) {
    require(body.at("class").is_string(), "\"class\" must be a string");
    request.priority_class = body.at("class").as_string();
  }
  request.priority = priority_of_class(request.priority_class);
  const bool has_graph = body.contains("graph");
  const bool has_generate = body.contains("generate");
  require(has_graph != has_generate,
          "exactly one of \"graph\" (inline document) or \"generate\" "
          "(server-side generation spec) is required");
  if (has_graph) request.graph = object_field(body, "graph");
  if (has_generate) request.generate = object_field(body, "generate");
  if (body.contains("platform")) {
    request.platform = object_field(body, "platform");
  }
  request.deadline_ms = number_field(body, "deadline_ms", 0.0);
  require(request.deadline_ms >= 0.0, "\"deadline_ms\" must be >= 0");
  request.max_evaluations = uint_field(body, "max_evals").value_or(0);
  request.max_iterations = uint_field(body, "max_iters").value_or(0);
  request.seed = uint_field(body, "seed");
  request.construction_seed = uint_field(body, "construction_seed");
  request.reporting_orders = uint_field(body, "reporting_orders").value_or(0);
  request.subscribe = bool_field(body, "subscribe", false);
  request.want_mapping = bool_field(body, "return_mapping", false);
  return request;
}

Session::Session(std::uint64_t id, SessionHost& host, SessionConfig config)
    : id_(id), host_(&host), config_(config) {}

std::vector<std::string> Session::on_frame(const std::string& line,
                                           double now) {
  last_activity_ = now;
  if (state_ == SessionState::kClosed) return {};

  Frame frame;
  std::string message;
  if (const auto code = parse_frame(line, frame, message)) {
    if (state_ == SessionState::kHandshake) {
      state_ = SessionState::kClosed;
      return {error_line(WireErrorCode::kBadHandshake, message)};
    }
    // The byte stream itself is broken: answer and close. A well-formed
    // object merely missing "op" is an app-level mistake: answer, stay.
    if (*code == WireErrorCode::kBadRequest) {
      return {error_line(*code, message)};
    }
    state_ = SessionState::kClosed;
    return {error_line(*code, message)};
  }

  if (state_ == SessionState::kHandshake) return handle_hello(frame);

  if (frame.op == "hello") {
    return {error_line(WireErrorCode::kBadRequest, "handshake already done",
                       Json(Json::Object{{"op", Json(frame.op)}}))};
  }
  if (frame.op == "submit") return handle_submit(frame);
  if (frame.op == "status") return handle_status(frame);
  if (frame.op == "stats") return handle_stats(frame);
  if (frame.op == "cancel") return handle_cancel(frame);
  if (frame.op == "subscribe") return handle_subscribe(frame);
  if (frame.op == "drain") return handle_drain(frame);
  return {error_line(
      WireErrorCode::kUnknownOp,
      "unknown op \"" + frame.op +
          "\" (want submit|status|stats|cancel|subscribe|drain)",
      Json(Json::Object{{"op", Json(frame.op)}}))};
}

std::vector<std::string> Session::on_frame_overflow() {
  if (state_ == SessionState::kClosed) return {};
  state_ = SessionState::kClosed;
  return {error_line(WireErrorCode::kFrameTooLong,
                     "frame exceeds the line limit")};
}

std::vector<std::string> Session::on_idle_check(double now) {
  if (state_ == SessionState::kClosed || config_.idle_timeout_s <= 0.0 ||
      now - last_activity_ < config_.idle_timeout_s) {
    return {};
  }
  state_ = SessionState::kClosed;
  return {error_line(WireErrorCode::kIdleTimeout,
                     "closing after inactivity")};
}

std::vector<std::string> Session::on_server_drain() {
  if (state_ == SessionState::kClosed) return {};
  if (state_ == SessionState::kHandshake) {
    // Nothing in flight to watch: just close.
    state_ = SessionState::kClosed;
    return {event_line("closing", Json(Json::Object{
                                      {"reason", Json("draining")}}))};
  }
  state_ = SessionState::kDraining;
  return {event_line("draining", Json::object())};
}

std::vector<std::string> Session::handle_hello(const Frame& frame) {
  if (frame.op != "hello") {
    state_ = SessionState::kClosed;
    return {error_line(WireErrorCode::kHandshakeRequired,
                       "first frame must be {\"op\":\"hello\",\"proto\":\"" +
                           std::string(kWireProtocol) + "\"}")};
  }
  if (!frame.body.contains("proto") || !frame.body.at("proto").is_string() ||
      frame.body.at("proto").as_string() != kWireProtocol) {
    state_ = SessionState::kClosed;
    return {error_line(WireErrorCode::kBadHandshake,
                       std::string("server speaks ") + kWireProtocol)};
  }
  state_ = host_->draining() ? SessionState::kDraining
                             : SessionState::kActive;
  Json body = Json::object();
  body.set("op", Json("hello"));
  body.set("proto", Json(kWireProtocol));
  Json info = host_->server_info();
  for (auto& [key, value] : info.as_object()) {
    body.set(key, std::move(value));
  }
  return {ok_line(std::move(body))};
}

std::vector<std::string> Session::handle_submit(const Frame& frame) {
  Json echo = Json::object();
  echo.set("op", Json("submit"));
  if (frame.body.contains("tag")) echo.set("tag", frame.body.at("tag"));

  if (state_ == SessionState::kDraining || host_->draining()) {
    return {error_line(WireErrorCode::kDraining,
                       "server is draining; no new jobs accepted",
                       std::move(echo))};
  }

  WireSubmit request;
  try {
    request = wire_submit_from_json(frame.body);
  } catch (const Error& ex) {
    return {error_line(WireErrorCode::kBadRequest, ex.what(),
                       std::move(echo))};
  }

  const SubmitOutcome outcome = host_->submit(id_, request);
  if (!outcome.accepted) {
    return {error_line(outcome.code, outcome.message, std::move(echo))};
  }
  echo.set("job", Json(outcome.job));
  echo.set("class", Json(request.priority_class));
  return {ok_line(std::move(echo))};
}

std::vector<std::string> Session::handle_status(const Frame& frame) {
  std::uint64_t job = 0;
  try {
    frame.body.require_keys("status", {"op", "job"});
    job = job_field(frame.body);
  } catch (const Error& ex) {
    return {error_line(WireErrorCode::kBadRequest, ex.what(),
                       Json(Json::Object{{"op", Json("status")}}))};
  }
  std::optional<Json> status = host_->job_status(job);
  if (!status.has_value()) {
    return {error_line(WireErrorCode::kUnknownJob,
                       "no job " + std::to_string(job),
                       Json(Json::Object{{"op", Json("status")},
                                         {"job", Json(job)}}))};
  }
  status->set("op", Json("status"));
  return {ok_line(*std::move(status))};
}

std::vector<std::string> Session::handle_stats(const Frame& frame) {
  try {
    frame.body.require_keys("stats", {"op"});
  } catch (const Error& ex) {
    return {error_line(WireErrorCode::kBadRequest, ex.what(),
                       Json(Json::Object{{"op", Json("stats")}}))};
  }
  Json body = host_->stats_body();
  body.set("op", Json("stats"));
  return {ok_line(std::move(body))};
}

std::vector<std::string> Session::handle_cancel(const Frame& frame) {
  std::uint64_t job = 0;
  try {
    frame.body.require_keys("cancel", {"op", "job"});
    job = job_field(frame.body);
  } catch (const Error& ex) {
    return {error_line(WireErrorCode::kBadRequest, ex.what(),
                       Json(Json::Object{{"op", Json("cancel")}}))};
  }
  // Idempotent: cancelling a finished (or already-cancelled) job is a
  // success — the double-cancel a retrying client naturally produces.
  if (!host_->cancel_job(job)) {
    return {error_line(WireErrorCode::kUnknownJob,
                       "no job " + std::to_string(job),
                       Json(Json::Object{{"op", Json("cancel")},
                                         {"job", Json(job)}}))};
  }
  return {ok_line(Json(Json::Object{{"op", Json("cancel")},
                                    {"job", Json(job)}}))};
}

std::vector<std::string> Session::handle_subscribe(const Frame& frame) {
  std::uint64_t job = 0;
  try {
    frame.body.require_keys("subscribe", {"op", "job"});
    job = job_field(frame.body);
  } catch (const Error& ex) {
    return {error_line(WireErrorCode::kBadRequest, ex.what(),
                       Json(Json::Object{{"op", Json("subscribe")}}))};
  }
  if (!host_->subscribe(id_, job)) {
    return {error_line(WireErrorCode::kUnknownJob,
                       "no job " + std::to_string(job),
                       Json(Json::Object{{"op", Json("subscribe")},
                                         {"job", Json(job)}}))};
  }
  return {ok_line(Json(Json::Object{{"op", Json("subscribe")},
                                    {"job", Json(job)}}))};
}

std::vector<std::string> Session::handle_drain(const Frame& frame) {
  double grace_ms = -1.0;
  try {
    frame.body.require_keys("drain", {"op", "grace_ms"});
    grace_ms = number_field(frame.body, "grace_ms", -1.0);
  } catch (const Error& ex) {
    return {error_line(WireErrorCode::kBadRequest, ex.what(),
                       Json(Json::Object{{"op", Json("drain")}}))};
  }
  host_->begin_drain(grace_ms);
  // The host's drain notification (on_server_drain) reaches this session
  // too; the direct answer just acknowledges the verb.
  return {ok_line(Json(Json::Object{{"op", Json("drain")}}))};
}

}  // namespace spmap
