#pragma once
/// \file client.hpp
/// Minimal blocking `spmap-wire/1` client: connect, handshake, send
/// frames, receive frames with a timeout. Shared by the load generator
/// (src/serve/loadgen.hpp), the serving benchmark and the daemon tests —
/// one client implementation, so a protocol change breaks loudly in one
/// place instead of quietly in three.
///
/// ## Reconnect
///
/// After a connection loss, `reconnect()` re-dials with bounded
/// exponential backoff and sends a fresh `hello`. The old connection's
/// subscriptions are gone with it; the caller asks for each of its jobs
/// by id (`status`, or `subscribe`, which replays `done` for a terminal
/// job), which a journaled daemon answers across restarts too.
///
/// ## Thread-safety
///
/// None: one WireClient belongs to one thread (the loadgen runs one per
/// simulated session).

#include <cstdint>
#include <optional>
#include <string>

#include "serve/wire.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace spmap {

struct WireClientOptions {
  /// Per-attempt connect window (connect_endpoint retries "daemon still
  /// starting" refusals inside it).
  double connect_timeout_ms = 5000.0;
  /// Extra connect attempts after the first, with exponential backoff
  /// between them; 0 keeps the single-attempt behavior.
  std::size_t connect_retries = 0;
  /// First inter-attempt delay; doubles per attempt up to the cap.
  double backoff_ms = 50.0;
  double backoff_max_ms = 2000.0;
  /// Seeds the deterministic backoff jitter (each delay is scaled into
  /// [0.5, 1.0] of its nominal value); same seed, same schedule.
  std::uint64_t jitter_seed = 0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class WireClient {
 public:
  /// Connects (with the options' backoff schedule) and performs the
  /// `hello` handshake. Throws spmap::Error when the endpoint stays
  /// unreachable through every attempt or the handshake is refused.
  WireClient(const Endpoint& endpoint, WireClientOptions options);
  /// Single-attempt convenience: no retries, default backoff.
  explicit WireClient(const Endpoint& endpoint,
                      double connect_timeout_ms = 5000.0,
                      std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Sends one frame (the '\n' is appended here). Throws spmap::Error on
  /// a dead connection.
  void send(const Json& frame);
  void send_raw(const std::string& line);

  /// The next frame, in arrival order, waiting up to `timeout_ms`
  /// (<= 0: wait forever). std::nullopt on timeout; throws spmap::Error
  /// on EOF/connection loss or a frame that is not a JSON object.
  std::optional<Json> recv(double timeout_ms = -1.0);

  /// Skips frames until one with `"event" == event` arrives (responses
  /// and other events are discarded). std::nullopt on timeout.
  std::optional<Json> recv_event(const std::string& event,
                                 double timeout_ms = -1.0);

  /// The server-info fields the handshake answered with.
  const Json& hello_info() const { return hello_info_; }

  /// Re-dials after a connection loss (same backoff schedule as the
  /// constructor) and performs a fresh `hello`. Frames still unread from
  /// the old connection are discarded. Throws when the endpoint stays
  /// unreachable or the handshake is refused.
  void reconnect();

  /// Abruptly kills the connection (shutdown, no goodbye) — the chaos
  /// loadgen's simulated connection loss. Pending send/recv calls fail
  /// with spmap::Error; follow with reconnect().
  void drop_connection();

 private:
  Socket connect_with_backoff();
  void handshake_hello(double timeout_ms);

  Endpoint endpoint_;
  WireClientOptions options_;
  Rng jitter_rng_;
  Socket socket_;
  FrameReader reader_;
  std::vector<std::string> pending_;
  std::size_t pending_next_ = 0;
  Json hello_info_;
};

}  // namespace spmap
