#pragma once
// Sharded result cache for the sweep service.
//
// Keyed on svc::cache_key(JobSpec) — every input that determines a
// simulation's output — and storing the *rendered* result-line tail and
// sweep-summary row plus the metrics report the summary's machine totals
// need, so a repeated cell costs one hash lookup instead of a simulation.
// Because the simulator is a pure function of the key, a cached entry is
// byte-for-byte what a fresh run would have produced; the service's
// daemon-vs-one-shot byte-identity guarantee rests on exactly this
// property (docs/SERVICE.md §4).
//
// Sharded by key hash with one mutex per shard: workers of different
// cells contend on different shards, and a hit copies nothing (entries
// are immutable behind shared_ptr).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "armbar/obs/metrics.hpp"

namespace armbar::svc {

/// One finished job, rendered.  `tail` is the result line *without* the
/// leading job index (the index differs per occurrence; the emitter
/// splices it in), `failed` marks an error entry, `row` is a successful
/// run's element of the sweep summary's "rows" array
/// (obs::append_row_json), and `report` feeds the summary's machine
/// totals.  `transient` marks a failure that depends on the host rather
/// than the inputs (wall-clock deadline, allocation pressure,
/// simbar::Failure::transient): the service never caches them — only
/// deterministic entries may enter the cache, or daemon output would
/// diverge from the one-shot path.  `deadline` narrows transient to the
/// wall-clock-deadline kind (for the service's deadline_errors counter).
struct CachedResult {
  bool failed = false;
  bool transient = false;
  bool deadline = false;
  std::string tail;
  std::string row;
  obs::MetricsReport report;
};

class ResultCache {
 public:
  /// @param shards lock shards; rounded up to a power of two, min 1.
  explicit ResultCache(std::size_t shards = 16);

  /// nullptr on miss.  Hit/miss counters are updated either way.
  std::shared_ptr<const CachedResult> find(const std::string& key) const;

  /// First insert wins; a concurrent duplicate computation of the same
  /// cell (both missed before either finished) keeps the existing entry —
  /// the simulator is deterministic, so both entries are identical bytes.
  void insert(const std::string& key,
              std::shared_ptr<const CachedResult> entry);

  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;

  /// Drop every entry (the documented invalidation hook: call after any
  /// change to the cost model within one process lifetime).
  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const CachedResult>> map;
  };

  Shard& shard_of(const std::string& key) const;

  mutable std::vector<Shard> shards_;
  std::size_t mask_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace armbar::svc
