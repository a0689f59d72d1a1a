#pragma once
/// \file wire.hpp
/// The `spmap-wire/1` frame codec: newline-delimited JSON over a stream.
///
/// One frame is one UTF-8 JSON object on one line, terminated by '\n'.
/// Requests carry an `"op"` verb (`hello`, `submit`, `status`, `stats`,
/// `cancel`, `subscribe`, `drain`); responses answer in request order with
/// `{"ok":true,...}` or `{"ok":false,"error":{"code","message"}}`;
/// server-initiated pushes carry `"event"` instead of `"ok"`
/// (`incumbent`, `done`, `draining`, `closing`). docs/SERVING.md is the
/// authoritative protocol reference; this header is the mechanical layer
/// shared by the daemon, the session FSM and every client: splitting a
/// byte stream into frames (partial reads, oversized-line protection) and
/// validating/parsing one frame into a verb + body.
///
/// ## Thread-safety
///
/// FrameReader is a single-owner accumulator (one per connection, used
/// from that connection's IO thread). The free functions are pure.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace spmap {

/// Protocol identifier exchanged in the handshake.
inline constexpr const char* kWireProtocol = "spmap-wire/1";

/// Frames longer than this (excluding '\n') poison the connection by
/// default; generous enough for multi-thousand-task inline graphs.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;

/// Structured error codes of `spmap-wire/1` (the `error.code` strings on
/// the wire; see docs/SERVING.md for which codes close the session).
enum class WireErrorCode {
  kFrameTooLong,       ///< line exceeded the frame limit (closes)
  kBadUtf8,            ///< frame is not valid UTF-8 (closes)
  kBadJson,            ///< frame is not a JSON object (closes)
  kBadHandshake,       ///< first frame was not a valid hello (closes)
  kHandshakeRequired,  ///< op before a completed handshake (closes)
  kUnknownOp,          ///< unrecognized verb (session survives)
  kBadRequest,         ///< malformed/missing fields (session survives)
  kUnknownJob,         ///< job id the server does not know
  kOverloaded,         ///< admission rejected: queue full for the class
  kDraining,           ///< server is draining; no new work accepted
  kIdleTimeout,        ///< session closed for inactivity
  kInternal,           ///< unexpected server-side failure
};

/// Stable wire string ("frame_too_long", "bad_utf8", ...).
const char* to_string(WireErrorCode code);

/// True iff `data` is well-formed UTF-8 (rejects overlong encodings,
/// surrogates, and > U+10FFFF). The JSON layer below does not check raw
/// string bytes, so the wire does.
bool is_valid_utf8(std::string_view data);

/// Splits a byte stream into newline-terminated frames. Feed raw reads;
/// complete lines come out (without '\n'); a partial line waits for more
/// bytes. A line exceeding `max_frame_bytes` latches `overflowed()` and
/// stops producing frames — the connection is poisoned and must close
/// (resynchronizing inside a stream of unbounded garbage is not worth
/// the risk of misparsing).
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends complete frames to `out`; returns false once overflowed.
  bool feed(const char* data, std::size_t size,
            std::vector<std::string>& out);
  bool feed(std::string_view data, std::vector<std::string>& out) {
    return feed(data.data(), data.size(), out);
  }

  bool overflowed() const { return overflowed_; }
  /// Bytes of the pending partial frame.
  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
  bool overflowed_ = false;
};

/// One parsed request frame.
struct Frame {
  std::string op;
  Json body;  ///< the whole frame object (op included)
};

/// Validates and parses one frame line. On failure returns the error code
/// and fills `message` with the human diagnostic; on success fills `out`.
std::optional<WireErrorCode> parse_frame(const std::string& line, Frame& out,
                                         std::string& message);

/// The reader of every non-negative integer on the wire (counts, seeds,
/// job ids): nullopt when `body` lacks `key`, else an integer in
/// [0, 2^53), the range a JSON number carries exactly. Anything else
/// throws spmap::Error naming `prefix + key`, which the session answers
/// as `bad_request`.
std::optional<std::uint64_t> uint_field(const Json& body,
                                        const std::string& key,
                                        const std::string& prefix = "");

// ---- response/event builders (each returns one '\n'-terminated line) ----

/// `{"ok":true, ...body}` — body must be an object.
std::string ok_line(Json body);

/// `{"ok":false, ...extra, "error":{"code":...,"message":...}}`.
std::string error_line(WireErrorCode code, const std::string& message,
                       Json extra = Json::object());

/// `{"event":"<event>", ...body}`.
std::string event_line(const std::string& event, Json body);

}  // namespace spmap
