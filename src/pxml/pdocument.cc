#include "pxml/pdocument.h"

#include <algorithm>
#include <atomic>

#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace pxv {

const char* PKindName(PKind kind) {
  switch (kind) {
    case PKind::kOrdinary: return "ordinary";
    case PKind::kMux: return "mux";
    case PKind::kInd: return "ind";
    case PKind::kDet: return "det";
    case PKind::kExp: return "exp";
  }
  return "?";
}

namespace {

// Process-global uid/version source. A namespace-scope atomic (not a
// function-local static) so BumpVersionCounterPast can raise it when
// deserialization imports stamps drawn by another process.
std::atomic<uint64_t> g_uid_counter{1};

}  // namespace

uint64_t PDocument::NextUid() {
  return g_uid_counter.fetch_add(1, std::memory_order_relaxed);
}

void PDocument::BumpVersionCounterPast(uint64_t v) {
  uint64_t cur = g_uid_counter.load(std::memory_order_relaxed);
  while (cur <= v &&
         !g_uid_counter.compare_exchange_weak(cur, v + 1,
                                              std::memory_order_relaxed)) {
  }
}

PDocument::MutationBatch::MutationBatch(PDocument* pd) : pd_(pd) {
  PXV_CHECK(!pd->in_batch_) << "mutation batches must not nest";
  pd->in_batch_ = true;
  pd->batch_stamped_ = false;
}

PDocument::MutationBatch::~MutationBatch() {
  pd_->in_batch_ = false;
  pd_->batch_stamped_ = false;
}

void PDocument::Stamp(NodeId n) {
  if (!in_batch_ || !batch_stamped_) {
    uid_ = NextUid();
    batch_stamped_ = true;
  }
  // Within one batch every stamped node carries uid_, so the walk can stop
  // at the first ancestor already stamped: batched bulk construction pays
  // O(1) amortized instead of O(depth) per node.
  for (NodeId cur = n; cur != kNullNode; cur = nodes_[cur].parent) {
    if (nodes_[cur].version == uid_) break;
    nodes_[cur].version = uid_;
  }
}

NodeId PDocument::Add(NodeId parent, PNode node) {
  node.parent = parent;
  node.detached = false;
  nodes_.push_back(std::move(node));
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  if (parent != kNullNode) nodes_[parent].children.push_back(id);
  Stamp(id);
  structure_version_ = uid_;
  return id;
}

NodeId PDocument::AddRoot(Label label, PersistentId pid) {
  PXV_CHECK(nodes_.empty()) << "root already exists";
  PNode node;
  node.kind = PKind::kOrdinary;
  node.label = label;
  node.pid = (pid == kNullPid) ? 0 : pid;
  return Add(kNullNode, std::move(node));
}

NodeId PDocument::AddOrdinary(NodeId parent, Label label, double edge_prob,
                              PersistentId pid) {
  Check(parent);
  PNode node;
  node.kind = PKind::kOrdinary;
  node.label = label;
  node.edge_prob = edge_prob;
  node.pid = (pid == kNullPid) ? static_cast<PersistentId>(nodes_.size()) : pid;
  return Add(parent, std::move(node));
}

NodeId PDocument::AddDistributional(NodeId parent, PKind kind,
                                    double edge_prob) {
  Check(parent);
  PXV_CHECK(kind == PKind::kMux || kind == PKind::kInd || kind == PKind::kDet)
      << "use AddExp for exp nodes";
  PNode node;
  node.kind = kind;
  node.edge_prob = edge_prob;
  return Add(parent, std::move(node));
}

NodeId PDocument::AddExp(NodeId parent, double edge_prob) {
  Check(parent);
  PNode node;
  node.kind = PKind::kExp;
  node.edge_prob = edge_prob;
  return Add(parent, std::move(node));
}

void PDocument::SetExpDistribution(
    NodeId n, std::vector<std::pair<std::vector<int>, double>> dist) {
  PXV_CHECK(kind(n) == PKind::kExp);
  nodes_[n].exp_dist = std::move(dist);
  Stamp(n);
  dirty_.push_back(n);
}

void PDocument::SetEdgeProb(NodeId n, double p) {
  Check(n);
  nodes_[n].edge_prob = p;
  Stamp(n);
  dirty_.push_back(n);
}

NodeId PDocument::InsertSubtree(NodeId parent, const PDocument& sub,
                                double edge_prob) {
  Check(parent);
  PXV_CHECK(&sub != this) << "cannot insert a document into itself";
  PXV_CHECK(!sub.empty()) << "empty insert payload";
  PXV_CHECK(!nodes_[parent].detached) << "insert under a detached node";
  PXV_CHECK(kind(parent) != PKind::kExp)
      << "cannot insert under an exp node (subset indices are positional)";
  // Refresh uid_ and stamp the spine first so the copied nodes below can
  // all carry the same fresh stamp (every inserted node is new content).
  Stamp(parent);
  const uint64_t stamp = uid_;
  nodes_.reserve(nodes_.size() + sub.size());
  // Iterative preorder copy preserving child order (exp subsets are
  // positional) — the same scheme as Subtree(), in the other direction.
  std::vector<std::pair<NodeId, NodeId>> stack;  // (src in sub, dst here)
  PNode root_copy = sub.nodes_[sub.root()];
  root_copy.children.clear();
  root_copy.edge_prob = edge_prob;
  root_copy.version = stamp;
  nodes_.push_back(std::move(root_copy));
  const NodeId new_root = static_cast<NodeId>(nodes_.size() - 1);
  nodes_[new_root].parent = parent;
  nodes_[parent].children.push_back(new_root);
  stack.emplace_back(sub.root(), new_root);
  while (!stack.empty()) {
    const auto [src, dst] = stack.back();
    stack.pop_back();
    for (NodeId child : sub.children(src)) {
      PNode copy = sub.nodes_[child];
      copy.children.clear();
      copy.parent = dst;
      copy.detached = false;
      copy.version = stamp;
      nodes_.push_back(std::move(copy));
      const NodeId nid = static_cast<NodeId>(nodes_.size() - 1);
      nodes_[dst].children.push_back(nid);
      stack.emplace_back(child, nid);
    }
  }
  structure_version_ = uid_;
  dirty_.push_back(new_root);
  return new_root;
}

void PDocument::RemoveSubtree(NodeId n) {
  Check(n);
  PXV_CHECK(n != root()) << "cannot remove the root";
  PXV_CHECK(!nodes_[n].detached) << "subtree already detached";
  const NodeId par = nodes_[n].parent;
  PXV_CHECK(kind(par) != PKind::kExp)
      << "cannot remove a child of an exp node (subset indices are positional)";
  auto& kids = nodes_[par].children;
  kids.erase(std::find(kids.begin(), kids.end(), n));
  // Flag the whole subtree: the nodes stay in the arena (ids are never
  // reused) but every scan must skip them.
  std::vector<NodeId> stack{n};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    nodes_[cur].detached = true;
    ++detached_count_;
    for (NodeId c : nodes_[cur].children) stack.push_back(c);
  }
  Stamp(par);
  structure_version_ = uid_;
  dirty_.push_back(n);
}

std::vector<NodeId> PDocument::Compact() {
  PXV_CHECK(!in_batch_) << "cannot compact inside an open mutation batch";
  std::vector<NodeId> remap(nodes_.size(), kNullNode);
  if (detached_count_ == 0) {
    // Nothing to drop: identity remap, no uid churn (callers' caches stay).
    for (NodeId n = 0; n < size(); ++n) remap[n] = n;
    return remap;
  }
  // Stable-rank remap: live nodes keep their relative id order, so the
  // parent-precedes-child arena invariant survives and ascending-id scans
  // (LabelIndex, batch results, extension construction order) visit the
  // same live nodes in the same order as before compaction.
  NodeId next = 0;
  for (NodeId n = 0; n < size(); ++n) {
    if (!nodes_[n].detached) remap[n] = next++;
  }
  // Dirty entries whose target is dropped (a not-yet-consumed removal) fall
  // back to the nearest live ancestor: the removed labels are gone, but the
  // structural change still dirties its spine. Resolved against the old
  // parent links, before the arena is rebuilt.
  for (NodeId& d : dirty_) {
    NodeId cur = d;
    while (remap[cur] == kNullNode) cur = nodes_[cur].parent;
    d = remap[cur];
  }
  std::vector<PNode> fresh(next);
  for (NodeId n = 0; n < size(); ++n) {
    if (nodes_[n].detached) continue;
    PNode node = std::move(nodes_[n]);
    if (node.parent != kNullNode) node.parent = remap[node.parent];
    // A live node's children are all live: removal unlinks the detached
    // root from its (live) parent, and interior detached nodes only hang
    // off detached parents.
    for (NodeId& c : node.children) {
      PXV_CHECK_NE(remap[c], kNullNode) << "live node with detached child";
      c = remap[c];
    }
    fresh[remap[n]] = std::move(node);
  }
  nodes_ = std::move(fresh);
  detached_count_ = 0;
  // Node ids are cache keys (subtree memos, analysis buffers, label
  // indexes): a fresh uid/structure_version guarantees none of them can be
  // served across the remap. Versions stay — they stamp *content*, which
  // compaction preserves.
  uid_ = NextUid();
  structure_version_ = uid_;
  return remap;
}

void PDocument::SetChildOrder(NodeId parent, const std::vector<NodeId>& order) {
  Check(parent);
  PXV_CHECK(kind(parent) != PKind::kExp)
      << "cannot reorder exp children (subset indices are positional)";
  auto& kids = nodes_[parent].children;
  PXV_CHECK_EQ(kids.size(), order.size());
  std::vector<NodeId> a = kids;
  std::vector<NodeId> b = order;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  PXV_CHECK(a == b) << "SetChildOrder: not a permutation of the child list";
  kids = order;
}

const std::vector<std::pair<std::vector<int>, double>>&
PDocument::exp_distribution(NodeId n) const {
  PXV_CHECK(kind(n) == PKind::kExp);
  return nodes_[n].exp_dist;
}

double PDocument::ExpDpCost() const {
  if (exp_cost_.uid.load(std::memory_order_acquire) == uid_) {
    return exp_cost_.cost.load(std::memory_order_relaxed);
  }
  // One descending-id sweep: children always follow their parents in the
  // arena, so by the time `n` is visited its whole live subtree is summed.
  std::vector<int64_t> sub(nodes_.size(), 0);
  double cost = 0;
  for (NodeId n = size() - 1; n >= 0; --n) {
    const PNode& node = nodes_[n];
    if (node.detached) continue;
    ++sub[n];
    if (node.parent != kNullNode) sub[node.parent] += sub[n];
    if (node.kind == PKind::kExp) {
      cost += static_cast<double>(node.exp_dist.size()) *
              static_cast<double>(sub[n]);
    }
  }
  exp_cost_.cost.store(cost, std::memory_order_relaxed);
  exp_cost_.uid.store(uid_, std::memory_order_release);
  return cost;
}

int PDocument::OrdinaryCount() const {
  int count = 0;
  for (NodeId n = 0; n < size(); ++n) {
    if (ordinary(n) && !nodes_[n].detached) ++count;
  }
  return count;
}

NodeId PDocument::OrdinaryAncestor(NodeId n) const {
  for (NodeId cur = parent(Check(n)); cur != kNullNode; cur = parent(cur)) {
    if (ordinary(cur)) return cur;
  }
  return kNullNode;
}

PDocument PDocument::Subtree(NodeId n) const {
  PXV_CHECK(ordinary(n)) << "p-subdocument roots must be ordinary";
  PXV_CHECK(!nodes_[n].detached) << "p-subdocument root is detached";
  PDocument out;
  {
    // One stamp for the whole copy; the scope closes the batch before the
    // return so the result never travels with an open batch (a moved-from
    // document would otherwise keep in_batch_ set when NRVO is off).
    MutationBatch batch(&out);
    out.AddRoot(label(n), pid(n));
    std::vector<std::pair<NodeId, NodeId>> stack{{n, 0}};
    while (!stack.empty()) {
      const auto [src, dst] = stack.back();
      stack.pop_back();
      for (NodeId child : children(src)) {
        PNode copy = nodes_[child];
        copy.children.clear();
        copy.parent = kNullNode;
        NodeId nid = out.Add(dst, std::move(copy));
        stack.emplace_back(child, nid);
      }
    }
  }
  return out;
}

NodeId PDocument::FindByPid(PersistentId pid) const {
  for (NodeId n = 0; n < size(); ++n) {
    if (ordinary(n) && !nodes_[n].detached && nodes_[n].pid == pid) return n;
  }
  return kNullNode;
}

Status PDocument::Validate() const {
  if (empty()) return Status::Error("empty p-document");
  if (!ordinary(root())) return Status::Error("root must be ordinary");
  for (NodeId n = 0; n < size(); ++n) {
    const PNode& node = nodes_[n];
    if (node.detached) continue;  // Invisible to the deletion process.
    if (node.edge_prob < 0.0 || node.edge_prob > 1.0) {
      return Status::Error("edge probability out of [0,1] at node " +
                           std::to_string(n));
    }
    if (!ordinary(n) && node.children.empty()) {
      return Status::Error("distributional leaf at node " + std::to_string(n));
    }
    if (node.kind == PKind::kMux) {
      double sum = 0;
      for (NodeId c : node.children) sum += edge_prob(c);
      if (sum > 1.0 + 1e-9) {
        return Status::Error("mux children probabilities sum to " +
                             FormatProbability(sum) + " > 1 at node " +
                             std::to_string(n));
      }
    }
    if (node.kind == PKind::kExp) {
      double sum = 0;
      for (const auto& [subset, p] : node.exp_dist) {
        if (p < 0 || p > 1) return Status::Error("exp probability out of range");
        for (int idx : subset) {
          if (idx < 0 || idx >= static_cast<int>(node.children.size())) {
            return Status::Error("exp subset index out of range");
          }
        }
        sum += p;
      }
      if (sum > 1.0 + 1e-9) {
        return Status::Error("exp distribution sums to > 1");
      }
    }
    // Children of ordinary/det parents must have edge probability 1.
    if (node.kind == PKind::kOrdinary || node.kind == PKind::kDet) {
      for (NodeId c : node.children) {
        if (edge_prob(c) != 1.0) {
          return Status::Error(
              "child of ordinary/det node must have edge probability 1");
        }
      }
    }
  }
  return Status::Ok();
}

std::string PDocument::DebugString() const {
  std::ostringstream out;
  // Preorder with indentation.
  std::vector<std::pair<NodeId, int>> stack{{root(), 0}};
  while (!stack.empty()) {
    const auto [n, depth] = stack.back();
    stack.pop_back();
    for (int i = 0; i < depth; ++i) out << "  ";
    if (ordinary(n)) {
      out << '[' << pid(n) << "] " << LabelName(label(n));
    } else {
      out << PKindName(kind(n));
    }
    if (parent(n) != kNullNode && !ordinary(parent(n)) &&
        kind(parent(n)) != PKind::kDet && kind(parent(n)) != PKind::kExp) {
      out << "  p=" << FormatProbability(edge_prob(n));
    }
    out << '\n';
    const auto& kids = children(n);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  return out.str();
}

LabelIndex::LabelIndex(const PDocument& pd) {
  for (NodeId n = 0; n < pd.size(); ++n) {
    if (pd.ordinary(n) && !pd.detached(n)) index_[pd.label(n)].push_back(n);
  }
}

const std::vector<NodeId>& LabelIndex::Nodes(Label l) const {
  static const std::vector<NodeId> kEmpty;
  const auto it = index_.find(l);
  return it == index_.end() ? kEmpty : it->second;
}

}  // namespace pxv
