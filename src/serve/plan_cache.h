// Thread-safe LRU cache of compiled QueryPlans, keyed by the query's
// canonical pattern string (tp/pattern.h — invariant under predicate
// reordering, so repeated *and isomorphic* queries share one slot; the
// 64-bit Fingerprint rides along in the plan for cheap external keying).
// Values are shared_ptr<const QueryPlan> so a reader can keep executing a
// plan that a concurrent insert has just evicted.
//
// GetOrCompile is single-flight: concurrent first calls for one key run
// one compile between them, and a compile in flight never blocks another
// key.

#ifndef PXV_SERVE_PLAN_CACHE_H_
#define PXV_SERVE_PLAN_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "rewrite/planner.h"

namespace pxv {

class PlanCache {
 public:
  using CompileFn = std::function<std::shared_ptr<const QueryPlan>()>;

  explicit PlanCache(size_t capacity = 1024);

  /// Returns the cached plan under `key`, refreshing its LRU position (a
  /// hit). Otherwise the first caller for `key` counts one miss and runs
  /// `compile` with the cache unlocked; callers arriving while that compile
  /// is in flight wait for it and return the same plan as hits. If
  /// `compile` throws, the key is released and the waiters wake; a waiter
  /// that finds the key neither cached nor in flight compiles it itself.
  /// Compiles in flight do not count toward the capacity.
  std::shared_ptr<const QueryPlan> GetOrCompile(const std::string& key,
                                                const CompileFn& compile);

  /// Returns the cached plan and refreshes its LRU position, or nullptr.
  std::shared_ptr<const QueryPlan> Lookup(const std::string& key);

  /// Inserts the plan under `key` unless one is already cached there, in
  /// which case the cached plan is kept and returned. Evicts the least
  /// recently used entry when over capacity. Returns the stored pointer.
  std::shared_ptr<const QueryPlan> Insert(const std::string& key,
                                          std::shared_ptr<const QueryPlan> plan);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  int64_t hits() const;
  int64_t misses() const;
  void Clear();

 private:
  using LruList = std::list<std::pair<std::string, std::shared_ptr<const QueryPlan>>>;

  // Both require mu_.
  std::shared_ptr<const QueryPlan> FindLocked(const std::string& key);
  std::shared_ptr<const QueryPlan> InsertLocked(
      const std::string& key, std::shared_ptr<const QueryPlan> plan);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable compiled_;  // Signalled when a key leaves in_flight_.
  LruList lru_;  // Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> index_;
  std::unordered_set<std::string> in_flight_;  // Keys being compiled.
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace pxv

#endif  // PXV_SERVE_PLAN_CACHE_H_
