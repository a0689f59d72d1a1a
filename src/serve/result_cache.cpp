#include "serve/result_cache.hpp"

namespace spmap {

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {}

std::size_t ResultCache::approx_bytes(const MapJobResult& result) {
  return sizeof(Entry) +
         result.report.mapping.device.size() * sizeof(DeviceId) +
         result.report.trajectory.size() * sizeof(IncumbentRecord) +
         result.error.size();
}

std::optional<MapJobResult> ResultCache::lookup(const Digest& key) {
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->result;
}

void ResultCache::insert(const Digest& key, const MapJobResult& result) {
  const std::size_t bytes = approx_bytes(result);
  if (options_.max_bytes != 0 && bytes > options_.max_bytes) return;
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh in place (identical by the determinism contract, so only
    // recency and the byte estimate can change).
    stats_.bytes -= it->second->bytes;
    it->second->result = result;
    it->second->bytes = bytes;
    stats_.bytes += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (!lru_.empty() &&
         ((options_.max_entries != 0 && lru_.size() >= options_.max_entries) ||
          (options_.max_bytes != 0 &&
           stats_.bytes + bytes > options_.max_bytes))) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, result, bytes});
  index_.emplace(key, lru_.begin());
  stats_.bytes += bytes;
  ++stats_.inserts;
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lock(mutex_);
  ResultCacheStats out = stats_;
  out.entries = lru_.size();
  return out;
}

}  // namespace spmap
