#include "serve/view_catalog.h"

#include <memory>
#include <string>

namespace pxv {

std::shared_ptr<const QueryPlan> ViewCatalog::PlanFor(const Pattern& q) {
  // (registry fingerprint, query) — the canonical pattern string is the
  // full-fidelity query fingerprint (invariant under predicate reordering,
  // so isomorphic queries share one slot); the registry fingerprint keeps
  // plans compiled against different view sets from colliding when catalogs
  // are swapped or rebuilt.
  std::string key = std::to_string(rewriter_.Fingerprint());
  key += '\n';
  key += q.CanonicalString();
  // Single-flight: the first caller compiles outside the cache lock, and
  // concurrent callers for the same shape wait for that one compile.
  return cache_.GetOrCompile(key, [&] {
    return std::make_shared<const QueryPlan>(rewriter_.Compile(q));
  });
}

}  // namespace pxv
