// p-Documents (paper §2, Definition 1; model PrXML{mux,ind,det,exp} of
// Abiteboul–Kimelfeld–Sagiv–Senellart). A p-document is an unranked,
// unordered tree whose nodes are either ordinary (labeled) or distributional:
//
//   mux  — at most one child is kept, child c with probability Pr(c),
//          no child with probability 1 − Σ Pr(c)          (Σ Pr(c) ≤ 1)
//   ind  — each child kept independently with probability Pr(c)
//   det  — all children kept (deterministic grouping)
//   exp  — an explicit distribution over subsets of children
//
// Leaves and the root must be ordinary. The semantics ⟦P̂⟧ is the px-space
// produced by the random deletion process of §2; see worlds.h / sampler.h.
//
// Mutation model (delta updates): documents support post-hoc mutation —
// InsertSubtree / RemoveSubtree / SetEdgeProb / SetExpDistribution. Every
// mutation stamps the root-to-change spine with a fresh per-node *subtree
// version* (version(n) changes iff something in n's subtree changed), which
// is what incremental evaluation keys its per-subtree memo on (see
// prob/engine.h SubtreeCache). Removal detaches: the subtree stays in the
// node arena (ids are never reused, so caches keyed on node ids can never
// alias) but is flagged `detached` and excluded from traversal, indexing and
// validation. Mutations grouped in a MutationBatch share one uid/version
// stamp; unbatched mutations each get their own.

#ifndef PXV_PXML_PDOCUMENT_H_
#define PXV_PXML_PDOCUMENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/status.h"
#include "xml/document.h"
#include "xml/label.h"

namespace pxv {

/// Node kinds of a p-document.
enum class PKind : uint8_t { kOrdinary, kMux, kInd, kDet, kExp };

/// Returns "ordinary", "mux", "ind", "det" or "exp".
const char* PKindName(PKind kind);

/// A p-document. Node ids index a contiguous arena, root is node 0.
class PDocument {
 public:
  PDocument() = default;

  /// Creates the (ordinary) root. Must be called exactly once, first.
  NodeId AddRoot(Label label, PersistentId pid = kNullPid);

  /// Adds an ordinary child. `edge_prob` is the probability assigned by the
  /// parent if the parent is mux/ind; it must be 1 under ordinary/det parents
  /// (exp parents ignore it — subset probabilities rule).
  NodeId AddOrdinary(NodeId parent, Label label, double edge_prob = 1.0,
                     PersistentId pid = kNullPid);

  /// Adds a distributional child (mux/ind/det). Distributional nodes can nest.
  NodeId AddDistributional(NodeId parent, PKind kind, double edge_prob = 1.0);

  /// Adds an exp node. Subsets are set afterwards with SetExpDistribution.
  NodeId AddExp(NodeId parent, double edge_prob = 1.0);

  /// Defines the explicit distribution of an exp node: each entry is a set of
  /// child indices (positions in children(n)) with its probability.
  /// Probabilities must sum to ≤ 1 (the rest = "keep nothing").
  void SetExpDistribution(
      NodeId n, std::vector<std::pair<std::vector<int>, double>> dist);

  /// Pre-sizes the node arena (builder use; avoids reallocation churn).
  void Reserve(int nodes) { nodes_.reserve(nodes); }

  /// Pre-sizes a node's child list (bulk-copy use).
  void ReserveChildren(NodeId n, int children) {
    nodes_[Check(n)].children.reserve(children);
  }

  // ------------------------------------------------------------ mutation ----

  /// Copies the whole of `sub` (root included) as a new child of `parent`,
  /// preserving labels, kinds, pids, edge probabilities and exp
  /// distributions; the new subtree root gets `edge_prob`. Stamps the
  /// root-to-parent spine. Returns the new subtree root. `parent` must not
  /// be an exp node (subset indices are positional).
  NodeId InsertSubtree(NodeId parent, const PDocument& sub,
                       double edge_prob = 1.0);

  /// Detaches the subtree rooted at `n`: unlinks it from its parent's child
  /// list and flags every node in it `detached`. Detached nodes stay in the
  /// arena (ids are never reused) but are invisible to traversal, indexes
  /// and Validate. Stamps the root-to-parent spine. `n` must not be the
  /// root, and its parent must not be an exp node.
  void RemoveSubtree(NodeId n);

  /// Overrides the edge probability of `n`. Stamps the root-to-`n` spine
  /// (the appearance probability of everything below `n` changes).
  void SetEdgeProb(NodeId n, double p);

  /// True iff `n` was removed by RemoveSubtree (directly or via an
  /// ancestor).
  bool detached(NodeId n) const { return nodes_[Check(n)].detached; }

  /// Subtree version stamp of `n`: drawn from the same process-global
  /// counter as uid(), updated for `n` and all its ancestors on every
  /// mutation inside `n`'s subtree. Two nodes carry the same stamp only if
  /// they were stamped by the same event, so version(n) equality across
  /// document copies implies identical subtree content.
  uint64_t version(NodeId n) const { return nodes_[Check(n)].version; }

  /// Mutation targets stamped since the last ClearDirtyPaths(): the roots
  /// of the changed regions (insert → new subtree root, remove → detached
  /// root, SetEdgeProb/SetExpDistribution → the node). Together with their
  /// root paths these form the dirty spines incremental consumers patch.
  const std::vector<NodeId>& dirty_paths() const { return dirty_; }
  void ClearDirtyPaths() { dirty_.clear(); }

  /// Groups mutations into one batch: uid() and the spine stamps advance
  /// once for the whole scope instead of once per call. Batches must not
  /// nest, and the document must not be moved, copied-from-into, or
  /// returned by value while a batch on it is open (close the scope first —
  /// a moved document would otherwise carry the open-batch flag while the
  /// batch destructor resets the dead source).
  class MutationBatch {
   public:
    explicit MutationBatch(PDocument* pd);
    ~MutationBatch();
    MutationBatch(const MutationBatch&) = delete;
    MutationBatch& operator=(const MutationBatch&) = delete;

   private:
    PDocument* pd_;
  };

  /// Reorders `parent`'s children to `order` (a permutation of the current
  /// child list). Sibling order is semantically free in the unordered-tree
  /// model but fixes traversal order — delta-patched view extensions use it
  /// to keep the exact construction order a from-scratch build would
  /// produce. `parent` must not be an exp node. Does not stamp versions
  /// (content is unchanged).
  void SetChildOrder(NodeId parent, const std::vector<NodeId>& order);

  /// Version tag: process-unique, refreshed by every mutating call (one
  /// refresh per MutationBatch scope when batching). A copy initially
  /// shares the tag with its source — equal tags mean equal content — and
  /// the tags diverge permanently as soon as either side mutates, so
  /// evaluation caches keyed on uid (see prob/dist.h EngineBuffers) can
  /// never serve state computed for the other copy's later contents.
  uint64_t uid() const { return uid_; }

  /// Like uid(), but refreshed only by *structural* changes — node
  /// additions, InsertSubtree, RemoveSubtree — not by probability edits
  /// (SetEdgeProb, SetExpDistribution). Derived state that reads only the
  /// tree shape and labels (the engine's live-slot / frame / projection
  /// analysis) stays valid across probability-only deltas by keying on
  /// this instead of uid().
  uint64_t structure_version() const { return structure_version_; }

  /// Nodes currently flagged detached. Grows monotonically until Compact()
  /// rebuilds the arena — consumers patching documents in place use the
  /// ratio against size() to decide when compaction beats further patching.
  int detached_count() const { return detached_count_; }

  /// Nodes that are actually part of the document: size() minus the
  /// detached tombstones. This — not size() — is the |P̂| every cost model
  /// and O(|P̂|)-style estimate should charge; raw size() counts garbage on
  /// a churned document.
  int live_size() const { return size() - detached_count_; }

  /// Rebuilds the node arena dropping every detached node. Live nodes keep
  /// their pids, labels, kinds, edge probabilities, exp distributions,
  /// sibling order and *subtree version stamps*; node ids are remapped to a
  /// dense range preserving relative order (so parents still precede
  /// children and ascending-id traversals visit live nodes in the same
  /// order as before). Returns the old→new id table, kNullNode for dropped
  /// nodes; the identity (and no other change) when nothing is detached.
  ///
  /// Node ids are an arena detail, but caches key on them: compaction
  /// draws a fresh uid()/structure_version() so uid- and structure-keyed
  /// derived state can never be served across the remap. Callers holding
  /// NodeId-based bookkeeping (e.g. MaterializedView results) must remap it
  /// through the returned table; pid-keyed state needs nothing.
  ///
  /// Pending dirty_paths() are remapped too (entries for dropped subtree
  /// roots are kept pointing at their nearest live ancestor-or-root so a
  /// not-yet-consumed removal still dirties its spine). Must not be called
  /// inside an open MutationBatch.
  std::vector<NodeId> Compact();

  NodeId root() const { return nodes_.empty() ? kNullNode : 0; }
  bool empty() const { return nodes_.empty(); }
  int size() const { return static_cast<int>(nodes_.size()); }

  PKind kind(NodeId n) const { return nodes_[Check(n)].kind; }
  bool ordinary(NodeId n) const { return kind(n) == PKind::kOrdinary; }
  Label label(NodeId n) const {
    PXV_CHECK(ordinary(n)) << "label of distributional node";
    return nodes_[n].label;
  }
  NodeId parent(NodeId n) const { return nodes_[Check(n)].parent; }
  const std::vector<NodeId>& children(NodeId n) const {
    return nodes_[Check(n)].children;
  }
  /// Probability of the edge from `n`'s parent to `n` (meaningful when the
  /// parent is mux or ind; 1.0 otherwise).
  double edge_prob(NodeId n) const { return nodes_[Check(n)].edge_prob; }
  PersistentId pid(NodeId n) const { return nodes_[Check(n)].pid; }
  const std::vector<std::pair<std::vector<int>, double>>& exp_distribution(
      NodeId n) const;

  /// Root label (document name); root is ordinary by construction.
  Label name() const { return label(root()); }

  /// Number of ordinary nodes.
  int OrdinaryCount() const;

  /// DP work surcharge of the exp nodes: Σ over live exp nodes of
  /// |exp_distribution(n)| × (live nodes in n's subtree). The exact DP
  /// evaluates an exp node once per explicit subset, re-walking the child
  /// distributions each time, so two documents of equal live_size() can
  /// differ by orders of magnitude in DP cost when one routes its matches
  /// through exp-heavy regions — cost models (rewrite/planner) charge this
  /// on top of live_size(). Zero for exp-free documents. Cached per uid();
  /// one O(live_size) sweep to recompute after a mutation.
  double ExpDpCost() const;

  /// Nearest ordinary proper ancestor, or kNullNode for the root.
  NodeId OrdinaryAncestor(NodeId n) const;

  /// The p-subdocument P̂_n rooted at ordinary node `n` (paper §2),
  /// preserving pids; the new root appears with probability 1.
  PDocument Subtree(NodeId n) const;

  /// First ordinary node with the given persistent id, or kNullNode.
  NodeId FindByPid(PersistentId pid) const;

  /// Validates Definition 1: root/leaves ordinary, mux sums ≤ 1, edge
  /// probabilities in [0,1], exp distributions well-formed.
  Status Validate() const;

  // ------------------------------------------------------ serialization ----

  /// Appends a self-contained binary image of the whole node arena to
  /// `out` (pxml/serialize.cc): every node's kind, detached flag, label
  /// *spelling* (labels are process-interned ids — the image must survive
  /// into a process with a different intern pool), parent, child order,
  /// IEEE-754-exact edge probability, pid, exp distribution and subtree
  /// version stamp. Deserialize(SerializeTo(P)) reproduces P bit for bit,
  /// tombstones and sibling order included. Pending dirty_paths() and the
  /// open-batch flag are transient and not serialized.
  void SerializeTo(std::string* out) const;

  /// Inverse of SerializeTo over an UNTRUSTED buffer: any malformed input
  /// (truncation, bit rot) returns an error, never crashes. The restored
  /// document draws a fresh uid()/structure_version() (uids are
  /// process-unique — restoring a stored one could alias a live document's
  /// caches), and the process-global version counter is advanced past every
  /// restored stamp so no future mutation can ever re-draw one (version
  /// equality must keep implying "stamped by the same event").
  static StatusOr<PDocument> Deserialize(std::string_view bytes);

  /// Advances the process-global uid/version counter so every future draw
  /// exceeds `v`. Deserialize calls this with the maximum restored stamp;
  /// exposed for consumers importing version stamps by other means.
  static void BumpVersionCounterPast(uint64_t v);

  /// Human-readable multi-line dump (for debugging and examples).
  std::string DebugString() const;

 private:
  struct PNode {
    PKind kind = PKind::kOrdinary;
    bool detached = false;
    Label label = 0;  // Ordinary nodes only.
    NodeId parent = kNullNode;
    double edge_prob = 1.0;
    PersistentId pid = kNullPid;
    uint64_t version = 0;  // Subtree version stamp (see version()).
    std::vector<NodeId> children;
    std::vector<std::pair<std::vector<int>, double>> exp_dist;
  };

  NodeId Check(NodeId n) const {
    PXV_CHECK(n >= 0 && n < size()) << "bad NodeId " << n;
    return n;
  }
  NodeId Add(NodeId parent, PNode node);
  // Refreshes uid_ (once per open batch) and stamps `n` and every ancestor
  // with it. Dirty-path recording is each mutation entry point's own job
  // (construction-time Adds stamp without recording).
  void Stamp(NodeId n);
  static uint64_t NextUid();

  // ExpDpCost's memo. Concurrent const readers may fill it, so the cost is
  // published before the uid it is for; a copy starts empty (uid 0 never
  // matches) rather than copy a pair that another reader may be writing.
  struct ExpCostMemo {
    std::atomic<uint64_t> uid{0};
    std::atomic<double> cost{0};
    ExpCostMemo() = default;
    ExpCostMemo(const ExpCostMemo&) {}
    ExpCostMemo& operator=(const ExpCostMemo&) {
      uid.store(0, std::memory_order_relaxed);
      return *this;
    }
  };

  std::vector<PNode> nodes_;
  mutable ExpCostMemo exp_cost_;
  uint64_t uid_ = NextUid();
  uint64_t structure_version_ = uid_;
  int detached_count_ = 0;
  bool in_batch_ = false;
  bool batch_stamped_ = false;  // uid_ refreshed for the open batch yet?
  std::vector<NodeId> dirty_;
};

/// Label → ordinary-node index over one p-document, built in a single scan.
/// Owned by evaluation sessions so repeated queries against the same
/// document stop re-scanning the node arena per output label.
class LabelIndex {
 public:
  explicit LabelIndex(const PDocument& pd);

  /// Ordinary nodes labeled `l`, ascending node id; empty if none.
  const std::vector<NodeId>& Nodes(Label l) const;

  /// Number of distinct ordinary labels.
  int LabelCount() const { return static_cast<int>(index_.size()); }

 private:
  std::unordered_map<Label, std::vector<NodeId>> index_;
};

}  // namespace pxv

#endif  // PXV_PXML_PDOCUMENT_H_
