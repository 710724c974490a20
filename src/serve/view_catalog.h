// ViewCatalog — the shared, logical half of the serving stack: the view
// registry (Rewriter), the standing-query list, and the compiled-plan
// cache. Compiled rewritings are a property of (view registry, query
// shape), not of any particular shard, so one catalog serves every
// ViewServer in a ShardedCorpus: the first shard to see a query shape pays
// the exponential TPrewrite/TPIrewrite compile, every other shard hits the
// shared cache. Plans are keyed on (registry fingerprint, canonical query)
// so a catalog can never serve a plan compiled against a different view
// set.
//
// Concurrency contract: registration (AddView / RegisterCachedQuery)
// happens before serving and is NOT thread-safe; after that the catalog is
// immutable except for the internally synchronized PlanCache, and every
// accessor may be called freely from any number of threads.

#ifndef PXV_SERVE_VIEW_CATALOG_H_
#define PXV_SERVE_VIEW_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "rewrite/planner.h"
#include "rewrite/rewriter.h"
#include "serve/plan_cache.h"
#include "tp/pattern.h"

namespace pxv {

class ViewCatalog {
 public:
  explicit ViewCatalog(size_t plan_cache_capacity = 1024)
      : cache_(plan_cache_capacity) {}

  /// Registers a view. Must happen before serving (the plan cache would
  /// otherwise serve plans compiled against the old registry — the
  /// fingerprint in the cache key makes that a miss, not a wrong answer,
  /// but the registration contract stays "register first").
  void AddView(std::string name, Pattern def) {
    rewriter_.AddView(std::move(name), std::move(def));
  }

  /// Registers a standing (cached) query for the shared-circuit batch path.
  /// Duplicate canonical forms are kept once.
  void RegisterCachedQuery(const Pattern& q) {
    if (!cached_keys_.insert(q.CanonicalString()).second) return;
    cached_queries_.push_back(q);
  }

  const Rewriter& rewriter() const { return rewriter_; }
  PlanCache& plan_cache() { return cache_; }
  const PlanCache& plan_cache() const { return cache_; }

  /// The standing queries, in registration order.
  const std::vector<Pattern>& cached_queries() const {
    return cached_queries_;
  }

  /// Fingerprint of the registered view set (Rewriter::Fingerprint).
  uint64_t registry_fingerprint() const { return rewriter_.Fingerprint(); }

  /// The compiled plan for q: plan-cache lookup keyed on (registry
  /// fingerprint, canonical query string), compiling (TPrewrite +
  /// TPIrewrite) only on a miss. Thread-safe and single-flight: concurrent
  /// first calls for one shape run one compile and share its plan, counting
  /// one miss; the others count as hits (PlanCache::GetOrCompile).
  std::shared_ptr<const QueryPlan> PlanFor(const Pattern& q);

 private:
  Rewriter rewriter_;
  PlanCache cache_;
  std::vector<Pattern> cached_queries_;  // Registered before serving.
  std::unordered_set<std::string> cached_keys_;
};

}  // namespace pxv

#endif  // PXV_SERVE_VIEW_CATALOG_H_
