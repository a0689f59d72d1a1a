#pragma once
/// \file content_hash.hpp
/// Streaming 128-bit content hashing for canonical cache keys.
///
/// The result cache (src/serve/result_cache.hpp) keys memoized MapReports
/// on the *content* of a mapping problem, so equality of keys must mean
/// equality of inputs regardless of how those inputs were spelled: JSON
/// key order, `%.17g` float round-trips and object construction details
/// must not perturb the digest. This header provides the two building
/// blocks:
///
///  * `ContentHasher` — an order-sensitive streaming hasher producing a
///    128-bit `Digest`. Every absorbed value is domain-separated by a type
///    tag, so `u64(1), u64(2)` and `str("\x01\x02")` cannot collide by
///    concatenation. Doubles are absorbed by IEEE-754 bit pattern, which
///    is exactly the identity the JSON layer round-trips (`%.17g` prints
///    and reparses to the same bits, including the sign of -0.0).
///  * `hash_json` — the canonical digest of a Json document: object keys
///    are hashed in sorted order (the serialization's key order is
///    cosmetic), arrays in element order (element order is data).
///
/// The 128-bit digest is treated as an identity: the cache equates keys by
/// digest without holding the hashed inputs. The mixer is a strengthened
/// splitmix64 over two lanes — not cryptographic, but a 2^-128 accidental
/// collision is far below any realistic workload, and an adversarial
/// client could at worst poison *its own* results. Domain-specific
/// canonicalization (task graphs, platforms, mapper specs) lives in
/// src/sched/problem_hash.hpp.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace spmap {

class Json;

/// A 128-bit content digest. Value-comparable.
struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest&) const = default;

  /// 32 lower-case hex characters (hi then lo), for logs and tests.
  std::string hex() const;
};

/// Order-sensitive streaming hasher; absorb values, then take `digest()`.
/// Reusable only by constructing a fresh instance.
class ContentHasher {
 public:
  ContentHasher();
  /// Domain-separated construction: two hashers seeded with different
  /// domain strings never produce equal digests for equal input streams.
  explicit ContentHasher(std::string_view domain);

  ContentHasher& u64(std::uint64_t v);
  ContentHasher& i64(std::int64_t v);
  ContentHasher& boolean(bool v);
  /// Absorbs the IEEE-754 bit pattern (NaN payloads and -0.0 included).
  ContentHasher& f64(double v);
  /// Length-prefixed, so "ab","c" and "a","bc" differ.
  ContentHasher& str(std::string_view s);
  /// Absorbs another digest (e.g. a sub-structure's hash).
  ContentHasher& digest(const Digest& d);

  Digest digest() const;

 private:
  void absorb(std::uint64_t tag, std::uint64_t v);

  std::uint64_t h1_;
  std::uint64_t h2_;
  std::uint64_t count_ = 0;
};

/// Canonical digest of a JSON document: object keys sorted, array order
/// kept, numbers by double bit pattern, full type domain separation.
/// Two documents with equal data model hash equal even if serialized with
/// different key orders or whitespace.
Digest hash_json(const Json& value);

}  // namespace spmap
