#include "serve/client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace spmap {

WireClient::WireClient(const Endpoint& endpoint, WireClientOptions options)
    : endpoint_(endpoint),
      options_(options),
      jitter_rng_(options.jitter_seed),
      socket_(),
      reader_(options.max_frame_bytes) {
  socket_ = connect_with_backoff();
  handshake_hello(options_.connect_timeout_ms);
}

WireClient::WireClient(const Endpoint& endpoint, double connect_timeout_ms,
                       std::size_t max_frame_bytes)
    : WireClient(endpoint, [&] {
        WireClientOptions options;
        options.connect_timeout_ms = connect_timeout_ms;
        options.max_frame_bytes = max_frame_bytes;
        return options;
      }()) {}

Socket WireClient::connect_with_backoff() {
  double delay = options_.backoff_ms;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return connect_endpoint(endpoint_, options_.connect_timeout_ms);
    } catch (const Error&) {
      if (attempt >= options_.connect_retries) throw;
    }
    // Deterministic jitter in [0.5, 1.0] of the nominal delay: spreads a
    // thundering herd of reconnecting clients without making test runs
    // timing-dependent (same jitter_seed, same schedule).
    const double unit =
        0.5 + 0.5 * (static_cast<double>(jitter_rng_() >> 11) * 0x1.0p-53);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay * unit));
    delay = std::min(2.0 * delay, options_.backoff_max_ms);
  }
}

void WireClient::handshake_hello(double timeout_ms) {
  Json hello = Json::object();
  hello.set("op", Json("hello"));
  hello.set("proto", Json(kWireProtocol));
  send(hello);
  std::optional<Json> answer = recv(timeout_ms);
  require(answer.has_value(), "WireClient: handshake timed out");
  require(answer->contains("ok") && answer->at("ok").is_bool() &&
              answer->at("ok").as_bool(),
          "WireClient: handshake refused: " + answer->dump());
  hello_info_ = *std::move(answer);
}

void WireClient::reconnect() {
  socket_ = connect_with_backoff();
  reader_ = FrameReader(options_.max_frame_bytes);
  pending_.clear();
  pending_next_ = 0;
  handshake_hello(options_.connect_timeout_ms);
}

void WireClient::drop_connection() {
  // shutdown, not close: the fd stays pollable, so a blocked recv wakes
  // with EOF immediately instead of timing out on a dead descriptor.
  if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_RDWR);
}

void WireClient::send(const Json& frame) { send_raw(frame.dump() + "\n"); }

void WireClient::send_raw(const std::string& line) {
  require(socket_.valid(), "WireClient: not connected");
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        send_some(socket_.fd(), line.data() + sent, line.size() - sent);
    if (n < 0) throw Error("WireClient: connection lost while sending");
    if (n == 0) {
      // Blocking socket: EAGAIN should not happen, but poll to be safe.
      pollfd pfd{socket_.fd(), POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<Json> WireClient::recv(double timeout_ms) {
  require(socket_.valid(), "WireClient: not connected");
  const WallTimer timer;
  char buffer[4096];
  for (;;) {
    if (pending_next_ < pending_.size()) {
      const std::string line = std::move(pending_[pending_next_++]);
      if (pending_next_ == pending_.size()) {
        pending_.clear();
        pending_next_ = 0;
      }
      Json frame = Json::parse(line);
      require(frame.is_object(), "WireClient: non-object frame: " + line);
      return frame;
    }
    int wait_ms = -1;
    if (timeout_ms > 0.0) {
      const double left = timeout_ms - timer.millis();
      if (left <= 0.0) return std::nullopt;
      wait_ms = static_cast<int>(left) + 1;
    }
    pollfd pfd{socket_.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0 && errno != EINTR) {
      throw Error(std::string("WireClient: poll failed: ") +
                  std::strerror(errno));
    }
    if (rc <= 0) continue;  // timeout re-checked at the top
    const ssize_t n = recv_some(socket_.fd(), buffer, sizeof(buffer));
    if (n < 0) throw Error("WireClient: connection closed by the server");
    if (n == 0) continue;
    require(reader_.feed(buffer, static_cast<std::size_t>(n), pending_),
            "WireClient: oversized frame from the server");
  }
}

std::optional<Json> WireClient::recv_event(const std::string& event,
                                           double timeout_ms) {
  const WallTimer timer;
  for (;;) {
    double left = -1.0;
    if (timeout_ms > 0.0) {
      left = timeout_ms - timer.millis();
      if (left <= 0.0) return std::nullopt;
    }
    std::optional<Json> frame = recv(left);
    if (!frame.has_value()) return std::nullopt;
    if (frame->contains("event") && frame->at("event").is_string() &&
        frame->at("event").as_string() == event) {
      return frame;
    }
  }
}

}  // namespace spmap
