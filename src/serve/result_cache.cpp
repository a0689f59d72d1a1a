#include "serve/result_cache.hpp"

#include <algorithm>

namespace spmap {

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {
  const std::size_t shard_count = std::max<std::size_t>(1, options_.shards);
  shards_ = std::vector<Shard>(shard_count);
  // Equal per-shard slices, rounded up so small global bounds stay usable
  // (a 1-entry cache with 8 shards still admits one entry per shard; the
  // LRU/byte tests pin shards=1 for exact global bounds).
  if (options_.max_entries != 0) {
    shard_entry_budget_ =
        std::max<std::size_t>(1, (options_.max_entries + shard_count - 1) /
                                     shard_count);
  }
  if (options_.max_bytes != 0) {
    shard_byte_budget_ = std::max<std::size_t>(
        1, (options_.max_bytes + shard_count - 1) / shard_count);
  }
}

std::size_t ResultCache::approx_bytes(const MapJobResult& result) {
  return sizeof(ExactEntry) +
         result.report.mapping.device.size() * sizeof(DeviceId) +
         result.report.trajectory.size() * sizeof(IncumbentRecord) +
         result.error.size();
}

std::optional<MapJobResult> ResultCache::lookup(const Digest& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->result;
}

void ResultCache::evict_to_fit_locked(Shard& shard,
                                      std::size_t incoming_bytes) {
  while (!shard.lru.empty() &&
         ((shard_entry_budget_ != 0 &&
           shard.lru.size() + 1 > shard_entry_budget_) ||
          (shard_byte_budget_ != 0 &&
           shard.bytes + incoming_bytes > shard_byte_budget_))) {
    const ExactEntry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::insert(const Digest& key, const MapJobResult& result) {
  const std::size_t bytes = approx_bytes(result);
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mutex);
  if (shard_byte_budget_ != 0 && bytes > shard_byte_budget_) return;
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Refresh in place (identical by the determinism contract, so only
    // recency and the byte estimate can change).
    shard.bytes -= it->second->bytes;
    it->second->result = result;
    it->second->bytes = bytes;
    shard.bytes += bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  evict_to_fit_locked(shard, bytes);
  shard.lru.push_front(ExactEntry{key, result, bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.inserts;
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats out;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.inserts += shard.inserts;
    out.evictions += shard.evictions;
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace spmap
