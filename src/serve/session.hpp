#pragma once
/// \file session.hpp
/// Per-connection session state machine of the serving daemon.
///
/// Modeled on the per-session FSM daemons the ROADMAP points at (pppcpd's
/// PPP_FSM): every connection owns one `Session`, a pure state machine
/// that consumes complete frames and emits response lines — no sockets,
/// no clocks of its own, no threads — so the whole protocol surface is
/// table-testable without a daemon. The daemon owns the IO (poll loop,
/// buffers, timers) and calls in; side effects (submitting jobs,
/// cancelling, subscribing) go out through the `SessionHost` interface.
///
/// ## States
///
///       .-----------.  hello ok   .--------.  server drain  .----------.
///   --> | kHandshake| ----------> | kActive| -------------> | kDraining|
///       '-----------'             '--------'                '----------'
///             |                     |    |                        |
///             | bad hello /         |    | framing error /        |
///             | framing error       |    | idle timeout           | jobs
///             v                     v    v                        v done
///          kClosed <------------------------------------------ kClosed
///
///  * kHandshake — a valid `hello` (or `resume`, which re-attaches the
///    connection to a detached session and replays missed events)
///    advances; an unknown resume token answers `unknown_session` and
///    stays in kHandshake so the client can fall back to a fresh hello;
///    anything else answers with an error and closes.
///  * kActive — verbs served; `frame_too_long` / `bad_utf8` / `bad_json`
///    answer and close (the stream can no longer be trusted), while
///    `unknown_op` / `bad_request` / `unknown_job` answer and keep the
///    session (app-level mistakes are recoverable).
///  * kDraining — entered when the server starts draining: `submit` is
///    refused with code `draining`; `status`/`stats`/`cancel`/`subscribe`
///    still work so clients can watch their in-flight jobs finish.
///  * kClosed — terminal; the daemon flushes pending output and closes.
///
/// ## Thread-safety
///
/// None: a Session belongs to the daemon's IO thread.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/wire.hpp"
#include "util/json.hpp"

namespace spmap {

enum class SessionState { kHandshake, kActive, kDraining, kClosed };

/// Stable lower-case label ("handshake", "active", ...).
const char* to_string(SessionState state);

/// A parsed, validated `submit` request (the session did the schema work;
/// the host only decides admission and runs it).
struct WireSubmit {
  std::string mapper_spec;
  /// Wire class "low"|"normal"|"high" mapped to MapJob priority 0|1|2.
  int priority = 1;
  std::string priority_class = "normal";
  /// Exactly one of `graph` (inline spmap task-graph document) or
  /// `generate` (server-side generation spec, the loadgen path) is set.
  std::optional<Json> graph;
  std::optional<Json> generate;
  /// Optional inline `spmap-platform/1` document (default: the paper's
  /// reference platform).
  std::optional<Json> platform;
  // Run bounds, forwarded into the MapRequest.
  double deadline_ms = 0.0;
  std::size_t max_evaluations = 0;
  std::size_t max_iterations = 0;
  std::optional<std::uint64_t> seed;
  /// Pins the registry construction rng (required for client-side
  /// bit-identity verification).
  std::optional<std::uint64_t> construction_seed;
  /// Random orders of a reporting evaluation pass (0 = none).
  std::size_t reporting_orders = 0;
  /// Push incumbent/done events for this job to the submitting session.
  bool subscribe = false;
  /// Include the device assignment in the done/status payload.
  bool want_mapping = false;
};

/// What the host answered a submit with.
struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t job = 0;           ///< valid when accepted
  WireErrorCode code = WireErrorCode::kInternal;  ///< when rejected
  std::string message;             ///< when rejected
};

/// Serializes a validated submit to its wire body (mapper/class/graph/...,
/// no op/tag) — the journal's "submitted" payload, re-parseable with
/// `wire_submit_from_json` after a daemon restart.
Json to_json(const WireSubmit& request);

/// Parses/validates a submit body (a `submit` frame or a journaled
/// `to_json` document; `op`/`tag` are tolerated and ignored). Throws
/// spmap::Error with a client-ready message on schema violations.
WireSubmit wire_submit_from_json(const Json& body);

/// What the host answered a `resume` handshake with. On success the
/// session adopts `session`/`token`, and `replay` holds the event lines
/// (with `event_seq` numbers the client missed) to send right after the
/// ok response — ordering stays inside the FSM, pure and testable.
struct ResumeOutcome {
  bool ok = false;
  std::uint64_t session = 0;
  std::string token;
  std::vector<std::string> replay;
  WireErrorCode code = WireErrorCode::kUnknownSession;  ///< when !ok
  std::string message;                                  ///< when !ok
};

/// The daemon-side effects a session can trigger. All calls happen on the
/// daemon's IO thread, synchronously under a frame.
class SessionHost {
 public:
  virtual ~SessionHost() = default;

  /// Admission + submission of a validated request from `session`.
  virtual SubmitOutcome submit(std::uint64_t session,
                               const WireSubmit& request) = 0;
  /// Status body for the `ok` response (fields per docs/SERVING.md), or
  /// std::nullopt for an unknown job id.
  virtual std::optional<Json> job_status(std::uint64_t job) = 0;
  /// Requests cancellation; false for an unknown job id. Cancelling a
  /// terminal job is a no-op success (idempotent double-cancel).
  virtual bool cancel_job(std::uint64_t job) = 0;
  /// Subscribes `session` to `job`'s incumbent/done events; false for an
  /// unknown job id.
  virtual bool subscribe(std::uint64_t session, std::uint64_t job) = 0;
  /// Starts a server-wide drain (grace_ms < 0: the server default).
  virtual void begin_drain(double grace_ms) = 0;
  /// True once the server stopped accepting new work.
  virtual bool draining() const = 0;
  /// Extra fields for the hello response (server name, worker count...).
  virtual Json server_info() const { return Json::object(); }
  /// Body of the `stats` verb: live admission/lifecycle/cache counters.
  /// Default: empty (minimal hosts without observability).
  virtual Json stats_body() const { return Json::object(); }
  /// Issues a resume token for a freshly-helloed session. An empty token
  /// means the host does not support resumption (tests, minimal hosts):
  /// the hello response then omits session/token.
  virtual std::string register_session(std::uint64_t session) {
    (void)session;
    return {};
  }
  /// Re-attaches connection `conn` to the detached session owning
  /// `token`, replaying events after `last_seq`. Default: unsupported.
  virtual ResumeOutcome resume_session(std::uint64_t conn,
                                       const std::string& token,
                                       std::uint64_t last_seq) {
    (void)conn;
    (void)last_seq;
    ResumeOutcome outcome;
    outcome.message = "unknown session token \"" + token + "\"";
    return outcome;
  }
};

struct SessionConfig {
  /// Seconds of inactivity before the session is closed; 0 disables.
  double idle_timeout_s = 0.0;
};

/// One connection's protocol state. Every entry point returns the lines
/// to write to the peer (possibly empty); once `state()` is kClosed the
/// daemon flushes and closes.
class Session {
 public:
  Session(std::uint64_t id, SessionHost& host, SessionConfig config = {});

  /// Consumes one complete frame received at time `now` (monotonic
  /// seconds, the daemon's clock).
  std::vector<std::string> on_frame(const std::string& line, double now);

  /// The frame reader latched an overflow: answer and close.
  std::vector<std::string> on_frame_overflow();

  /// Periodic idle check; emits the idle_timeout error and closes when
  /// the configured timeout elapsed.
  std::vector<std::string> on_idle_check(double now);

  /// The server entered drain: notify the peer, move kActive sessions to
  /// kDraining (a handshaking session just closes).
  std::vector<std::string> on_server_drain();

  std::uint64_t id() const { return id_; }
  SessionState state() const { return state_; }
  bool closed() const { return state_ == SessionState::kClosed; }

 private:
  std::vector<std::string> handle_hello(const Frame& frame);
  std::vector<std::string> handle_resume(const Frame& frame);
  std::vector<std::string> handle_submit(const Frame& frame);
  std::vector<std::string> handle_status(const Frame& frame);
  std::vector<std::string> handle_stats(const Frame& frame);
  std::vector<std::string> handle_cancel(const Frame& frame);
  std::vector<std::string> handle_subscribe(const Frame& frame);
  std::vector<std::string> handle_drain(const Frame& frame);

  std::uint64_t id_;
  SessionHost* host_;
  SessionConfig config_;
  SessionState state_ = SessionState::kHandshake;
  double last_activity_ = 0.0;
};

}  // namespace spmap
