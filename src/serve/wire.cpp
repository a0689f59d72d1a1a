#include "serve/wire.hpp"

#include <cstdint>
#include <utility>

#include "util/error.hpp"

namespace spmap {

const char* to_string(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kFrameTooLong: return "frame_too_long";
    case WireErrorCode::kBadUtf8: return "bad_utf8";
    case WireErrorCode::kBadJson: return "bad_json";
    case WireErrorCode::kBadHandshake: return "bad_handshake";
    case WireErrorCode::kHandshakeRequired: return "handshake_required";
    case WireErrorCode::kUnknownOp: return "unknown_op";
    case WireErrorCode::kBadRequest: return "bad_request";
    case WireErrorCode::kUnknownJob: return "unknown_job";
    case WireErrorCode::kOverloaded: return "overloaded";
    case WireErrorCode::kDraining: return "draining";
    case WireErrorCode::kIdleTimeout: return "idle_timeout";
    case WireErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

bool is_valid_utf8(std::string_view data) {
  std::size_t i = 0;
  const std::size_t n = data.size();
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(data[i]);
    std::size_t len;
    std::uint32_t cp;
    if (c < 0x80) {
      ++i;
      continue;
    } else if ((c & 0xe0) == 0xc0) {
      len = 2;
      cp = c & 0x1f;
    } else if ((c & 0xf0) == 0xe0) {
      len = 3;
      cp = c & 0x0f;
    } else if ((c & 0xf8) == 0xf0) {
      len = 4;
      cp = c & 0x07;
    } else {
      return false;  // continuation byte or 0xf8+ lead
    }
    if (i + len > n) return false;
    for (std::size_t k = 1; k < len; ++k) {
      const unsigned char cc = static_cast<unsigned char>(data[i + k]);
      if ((cc & 0xc0) != 0x80) return false;
      cp = (cp << 6) | (cc & 0x3f);
    }
    // Overlong encodings, UTF-16 surrogates and > U+10FFFF are invalid.
    if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
        (len == 4 && cp < 0x10000) || (cp >= 0xd800 && cp <= 0xdfff) ||
        cp > 0x10ffff) {
      return false;
    }
    i += len;
  }
  return true;
}

bool FrameReader::feed(const char* data, std::size_t size,
                       std::vector<std::string>& out) {
  if (overflowed_) return false;
  for (std::size_t i = 0; i < size; ++i) {
    const char c = data[i];
    if (c == '\n') {
      // Tolerate CRLF peers: the codec is newline-delimited, a trailing
      // '\r' is the client's line discipline, not payload.
      if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
      out.push_back(std::move(buffer_));
      buffer_.clear();
      continue;
    }
    if (buffer_.size() >= max_frame_bytes_) {
      overflowed_ = true;
      buffer_.clear();
      return false;
    }
    buffer_.push_back(c);
  }
  return true;
}

std::optional<WireErrorCode> parse_frame(const std::string& line, Frame& out,
                                         std::string& message) {
  if (!is_valid_utf8(line)) {
    message = "frame is not valid UTF-8";
    return WireErrorCode::kBadUtf8;
  }
  Json body;
  try {
    body = Json::parse(line);
  } catch (const Error& ex) {
    message = ex.what();
    return WireErrorCode::kBadJson;
  }
  if (!body.is_object()) {
    message = "frame must be a JSON object";
    return WireErrorCode::kBadJson;
  }
  if (!body.contains("op") || !body.at("op").is_string()) {
    message = "frame without a string \"op\"";
    return WireErrorCode::kBadRequest;
  }
  out.op = body.at("op").as_string();
  out.body = std::move(body);
  return std::nullopt;
}

std::string ok_line(Json body) {
  Json line = Json::object();
  line.set("ok", Json(true));
  for (auto& [key, value] : body.as_object()) {
    line.set(key, std::move(value));
  }
  return line.dump() + "\n";
}

std::string error_line(WireErrorCode code, const std::string& message,
                       Json extra) {
  Json line = Json::object();
  line.set("ok", Json(false));
  for (auto& [key, value] : extra.as_object()) {
    line.set(key, std::move(value));
  }
  Json error = Json::object();
  error.set("code", Json(to_string(code)));
  error.set("message", Json(message));
  line.set("error", std::move(error));
  return line.dump() + "\n";
}

std::string event_line(const std::string& event, Json body) {
  Json line = Json::object();
  line.set("event", Json(event));
  for (auto& [key, value] : body.as_object()) {
    line.set(key, std::move(value));
  }
  return line.dump() + "\n";
}

}  // namespace spmap
