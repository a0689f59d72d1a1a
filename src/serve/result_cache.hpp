#pragma once
/// \file result_cache.hpp
/// Sharded LRU memo of finished MapJobResults: a repeated deterministic
/// submission is answered without running a mapper.
///
/// ## What may be cached, and why hits are provably exact
///
/// The MappingService keys entries on the full computation identity
/// (src/sched/problem_hash.hpp + the canonical mapper spec + merged run
/// bounds + the construction-rng fingerprint + evaluation protocol). Only
/// *deterministic* runs enter the memo: jobs with a pinned construction
/// rng, no wall-clock deadline, and a terminal state of kConverged or
/// kBudgetExhausted. Under the repo's determinism contract such a run is
/// a pure function of the key, so replaying the stored result is
/// bit-identical to recomputing it — the property
/// tests/result_cache_test.cpp proves differentially. Everything else
/// (deadline runs, cancelled runs, unpinned rng streams) bypasses the
/// cache entirely and reports CacheOutcome::kNone.
///
/// ## Bounds and eviction
///
/// Both capacity bounds are enforced per shard (each shard gets an equal
/// slice): inserting beyond `max_entries` or `max_bytes` evicts from the
/// least-recently-used end until the new entry fits. Entries larger than
/// a whole shard's byte budget are simply not admitted. Lookups refresh
/// recency.
///
/// ## Thread-safety
///
/// Fully thread-safe: one mutex per shard, chosen by key bits, never held
/// while another shard's is. Counters are plain integers mutated under
/// their shard's mutex; `stats()` sums across shards (a racing snapshot
/// is consistent per shard, which is all the observability needs).

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "serve/mapping_service.hpp"
#include "util/content_hash.hpp"
#include "util/mutex.hpp"

namespace spmap {

struct ResultCacheOptions {
  /// Power of two recommended; clamped to >= 1. The default suits a
  /// daemon with tens of workers.
  std::size_t shards = 8;
  /// Total entry bound across shards (0 = entries unbounded).
  std::size_t max_entries = 4096;
  /// Total byte bound across shards (0 = bytes unbounded). Entry sizes
  /// are estimated (mapping + trajectory + error payloads + overhead).
  std::size_t max_bytes = 256u << 20;
};

/// Monotonic counters + current occupancy.
struct ResultCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t inserts = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;  ///< entries currently resident
  std::size_t bytes = 0;    ///< estimated resident bytes
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Memo lookup; refreshes LRU recency on hit.
  std::optional<MapJobResult> lookup(const Digest& key);

  /// Inserts (or refreshes) the memo entry for `key`, evicting LRU
  /// entries as needed. Oversized results (> the shard byte budget) are
  /// dropped. The caller guarantees `result` came from a deterministic
  /// run of the computation `key` identifies.
  void insert(const Digest& key, const MapJobResult& result);

  ResultCacheStats stats() const;

  /// Approximate resident bytes of one memoized result (used for the
  /// byte bound; exposed for tests).
  static std::size_t approx_bytes(const MapJobResult& result);

 private:
  struct ExactEntry {
    Digest key;
    MapJobResult result;
    std::size_t bytes = 0;
  };
  struct DigestHashFn {
    std::size_t operator()(const Digest& d) const {
      return static_cast<std::size_t>(d.lo);
    }
  };
  struct Shard {
    mutable Mutex mutex;
    /// Front = most recently used.
    std::list<ExactEntry> lru SPMAP_GUARDED_BY(mutex);
    std::unordered_map<Digest, std::list<ExactEntry>::iterator, DigestHashFn>
        index SPMAP_GUARDED_BY(mutex);
    std::size_t bytes SPMAP_GUARDED_BY(mutex) = 0;
    // Counters.
    std::size_t hits SPMAP_GUARDED_BY(mutex) = 0;
    std::size_t misses SPMAP_GUARDED_BY(mutex) = 0;
    std::size_t inserts SPMAP_GUARDED_BY(mutex) = 0;
    std::size_t evictions SPMAP_GUARDED_BY(mutex) = 0;
  };

  Shard& shard_for(const Digest& key) {
    return shards_[key.hi % shards_.size()];
  }
  void evict_to_fit_locked(Shard& shard, std::size_t incoming_bytes)
      SPMAP_REQUIRES(shard.mutex);

  ResultCacheOptions options_;
  std::size_t shard_entry_budget_ = 0;  // 0 = unbounded
  std::size_t shard_byte_budget_ = 0;   // 0 = unbounded
  std::vector<Shard> shards_;
};

}  // namespace spmap
