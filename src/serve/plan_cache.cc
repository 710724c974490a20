#include "serve/plan_cache.h"

#include "util/check.h"

namespace pxv {

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  PXV_CHECK(capacity_ > 0) << "plan cache capacity must be positive";
}

std::shared_ptr<const QueryPlan> PlanCache::FindLocked(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // Move to front.
  return it->second->second;
}

std::shared_ptr<const QueryPlan> PlanCache::InsertLocked(
    const std::string& key, std::shared_ptr<const QueryPlan> plan) {
  if (std::shared_ptr<const QueryPlan> cached = FindLocked(key)) return cached;
  lru_.emplace_front(key, std::move(plan));
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return lru_.front().second;
}

std::shared_ptr<const QueryPlan> PlanCache::GetOrCompile(
    const std::string& key, const CompileFn& compile) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (std::shared_ptr<const QueryPlan> plan = FindLocked(key)) {
      ++hits_;
      return plan;
    }
    if (in_flight_.count(key) == 0) break;
    compiled_.wait(lock);
  }
  in_flight_.insert(key);
  ++misses_;
  // Releases the key and wakes the waiters however the compile ends, with
  // the lock re-held (the unique_lock outlives the guard).
  struct InFlightGuard {
    PlanCache* cache;
    const std::string& key;
    std::unique_lock<std::mutex>& lock;
    ~InFlightGuard() {
      if (!lock.owns_lock()) lock.lock();
      cache->in_flight_.erase(key);
      cache->compiled_.notify_all();
    }
  } guard{this, key, lock};
  lock.unlock();
  std::shared_ptr<const QueryPlan> plan = compile();
  PXV_CHECK(plan != nullptr) << "plan compile returned no plan";
  lock.lock();
  return InsertLocked(key, std::move(plan));
}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const QueryPlan> plan = FindLocked(key);
  ++(plan ? hits_ : misses_);
  return plan;
}

std::shared_ptr<const QueryPlan> PlanCache::Insert(
    const std::string& key, std::shared_ptr<const QueryPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  return InsertLocked(key, std::move(plan));
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

int64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace pxv
