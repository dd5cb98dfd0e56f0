#include "index/irtree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <queue>

#include "index/frozen_layout.h"
#include "index/kernels.h"
#include "index/residency.h"
#include "index/search_scratch.h"
#include "index/term_signature.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace coskq {

using internal_index::ActiveKernels;
using internal_index::FrozenNodeRecord;
using internal_index::FrozenView;
using internal_index::PrefetchHint;
using internal_index::PrefetchNextPop;

namespace {

/// Per-thread ReadGuard bookkeeping. Guards are re-entrant (a solver guard
/// wraps query-method guards wraps fallback-overload guards), so each
/// (thread, tree) pair keeps a depth counter and the delta pinned when the
/// outermost guard was taken — inner guards reuse it, which is what makes a
/// guarded unit of work observe one consistent frozen+delta view.
struct GuardSlot {
  const void* tree = nullptr;
  int depth = 0;
  std::shared_ptr<const DeltaTree> delta;
};

constexpr int kMaxGuardSlots = 8;
thread_local GuardSlot g_guard_slots[kMaxGuardSlots];

GuardSlot* FindGuardSlot(const void* tree) {
  for (GuardSlot& slot : g_guard_slots) {
    if (slot.tree == tree) {
      return &slot;
    }
  }
  return nullptr;
}

}  // namespace

void IrTree::GuardAcquire() const {
  GuardSlot* slot = FindGuardSlot(this);
  if (slot != nullptr) {
    ++slot->depth;
    return;
  }
  slot = FindGuardSlot(nullptr);
  COSKQ_CHECK(slot != nullptr)
      << "more than " << kMaxGuardSlots
      << " distinct IrTrees guarded on one thread";
  swap_mutex_.lock_shared();
  slot->tree = this;
  slot->depth = 1;
  {
    std::lock_guard<std::mutex> lock(delta_mutex_);
    slot->delta = delta_;
  }
  if (frozen_ != nullptr) {
    // Budget-capped out-of-core trees trim themselves back under budget on
    // a sparse subsample of outermost guard acquires; no-op otherwise.
    frozen_->MaybeEnforceBudget();
  }
}

void IrTree::GuardRelease() const {
  GuardSlot* slot = FindGuardSlot(this);
  COSKQ_CHECK(slot != nullptr);
  if (--slot->depth > 0) {
    return;
  }
  slot->tree = nullptr;
  slot->delta.reset();
  swap_mutex_.unlock_shared();
}

const DeltaTree* IrTree::PinnedDelta() const {
  const GuardSlot* slot = FindGuardSlot(this);
  COSKQ_CHECK(slot != nullptr) << "PinnedDelta outside a ReadGuard";
  return slot->delta.get();
}

std::shared_ptr<DeltaTree> IrTree::CopyDeltaLocked() const {
  std::shared_ptr<const DeltaTree> current;
  {
    std::lock_guard<std::mutex> lock(delta_mutex_);
    current = delta_;
  }
  return current != nullptr ? std::make_shared<DeltaTree>(*current)
                            : std::make_shared<DeltaTree>();
}

void IrTree::PublishDelta(std::shared_ptr<const DeltaTree> delta) const {
  if (delta != nullptr && delta->empty()) {
    // Keep the null ⇔ empty invariant: queries pinning a null delta skip
    // every merge branch, so a drained delta costs pure reads nothing.
    delta.reset();
  }
  std::lock_guard<std::mutex> lock(delta_mutex_);
  delta_ = std::move(delta);
}

size_t IrTree::delta_size() const {
  std::lock_guard<std::mutex> lock(delta_mutex_);
  return delta_ != nullptr ? delta_->size() : 0;
}

IrTree::IrTree(const Dataset* dataset, const Options& options)
    : dataset_(dataset), options_(options), build_threads_(HardwareThreads()) {
  COSKQ_CHECK(dataset != nullptr);
  COSKQ_CHECK_GE(options_.max_entries, 4);
  std::vector<ObjectId> ids(dataset_->NumObjects());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<ObjectId>(i);
  }
  Build(ids);
}

IrTree::IrTree(const Dataset* dataset, const Options& options,
               const std::vector<ObjectId>& object_ids)
    : IrTree(dataset, options, object_ids, HardwareThreads()) {}

IrTree::IrTree(const Dataset* dataset, const Options& options,
               const std::vector<ObjectId>& object_ids, int build_threads)
    : dataset_(dataset), options_(options), build_threads_(build_threads) {
  COSKQ_CHECK(dataset != nullptr);
  COSKQ_CHECK_GE(options_.max_entries, 4);
  Build(object_ids);
}

IrTree::~IrTree() {
  if (refreeze_thread_.joinable()) {
    refreeze_thread_.join();
  }
}

void IrTree::Adopt(std::unique_ptr<internal_index::FrozenStore> store) {
  frozen_ = std::move(store);
  const FrozenView& v = frozen_->view;
  size_.store(v.num_leaf_entries, std::memory_order_relaxed);
  frozen_live_.assign(dataset_->NumObjects(), 0);
  uint64_t sig_bits = 0;
  for (uint32_t e = 0; e < v.num_leaf_entries; ++e) {
    frozen_live_[v.leaf_ids[e]] = 1;
    sig_bits += static_cast<uint64_t>(std::popcount(v.leaf_sigs[e]));
  }
  obj_sig_bits_sum_ = sig_bits;
}

Status IrTree::Insert(ObjectId id) {
  std::lock_guard<std::mutex> mutate_lock(mutate_mutex_);
  if (id >= dataset_->NumObjects()) {
    return Status::InvalidArgument("Insert of object id " +
                                   std::to_string(id) +
                                   " beyond the dataset");
  }
  // The insert lands in the delta overlay; the frozen body is untouched, so
  // concurrent queries stay valid.
  std::shared_ptr<DeltaTree> delta = CopyDeltaLocked();
  if (delta->EraseTombstone(id)) {
    // Resurrection: the id is live in the base again.
  } else if (LiveInBase(id) || delta->IsInserted(id)) {
    return Status::InvalidArgument("object " + std::to_string(id) +
                                   " already present");
  } else {
    delta->AddInsert(id, TermSetSignature(dataset_->object(id).keywords));
  }
  PublishDelta(std::move(delta));
  size_.fetch_add(1, std::memory_order_relaxed);
  mutations_applied_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status IrTree::Remove(ObjectId id) {
  std::lock_guard<std::mutex> mutate_lock(mutate_mutex_);
  std::shared_ptr<DeltaTree> delta = CopyDeltaLocked();
  if (delta->EraseInsert(id)) {
    // A pending delta insert simply disappears.
  } else if (LiveInBase(id) && !delta->IsTombstoned(id)) {
    delta->AddTombstone(id);
  } else {
    return Status::NotFound("object " + std::to_string(id) + " not present");
  }
  PublishDelta(std::move(delta));
  size_.fetch_sub(1, std::memory_order_relaxed);
  mutations_applied_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

ObjectId IrTree::KeywordNn(const Point& p, TermId t, double* distance) const {
  return KeywordNn(p, t, distance,
                   static_cast<std::vector<uint32_t>*>(nullptr));
}

namespace {

/// Merges the delta's insert candidates into a keyword-NN answer: the
/// nearest delta insert containing `t` replaces the frozen result iff it is
/// strictly closer (ties go to the frozen base; among equal-distance delta
/// candidates the smallest id wins — with continuous coordinates ties have
/// measure zero, so the merged answer matches a from-scratch build).
void MergeDeltaKeywordNn(const Dataset& dataset, const DeltaTree& delta,
                         const Point& p, TermId t, ObjectId* best_id,
                         double* best_distance) {
  const uint64_t kw_sig = TermSignature(t);
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    if ((delta.insert_sigs[i] & kw_sig) == 0) {
      continue;
    }
    const SpatialObject& obj = dataset.object(delta.inserts[i]);
    if (!obj.ContainsTerm(t)) {
      continue;
    }
    const double d = Distance(p, obj.location);
    if (d < *best_distance) {
      *best_distance = d;
      *best_id = obj.id;
    }
  }
}

}  // namespace

ObjectId IrTree::KeywordNn(const Point& p, TermId t, double* distance,
                           std::vector<uint32_t>* visit_log) const {
  ReadGuard guard(this);
  const DeltaTree* delta = PinnedDelta();
  double d = std::numeric_limits<double>::infinity();
  ObjectId id = FrozenKeywordNn(p, t, &d, visit_log, delta);
  if (delta != nullptr) {
    MergeDeltaKeywordNn(*dataset_, *delta, p, t, &id, &d);
  }
  if (distance != nullptr) {
    *distance = d;
  }
  return id;
}

ObjectId IrTree::KeywordNn(const Point& p, TermId t, double* distance,
                           SearchScratch* scratch) const {
  ReadGuard guard(this);
  if (scratch == nullptr || !scratch->mask_active()) {
    return KeywordNn(p, t, distance,
                     scratch != nullptr ? scratch->visit_log() : nullptr);
  }
  const int slot = scratch->mask().SlotOf(t);
  if (slot < 0) {
    return KeywordNn(p, t, distance, scratch->visit_log());
  }
  const DeltaTree* delta = PinnedDelta();
  double d = std::numeric_limits<double>::infinity();
  ObjectId id = FrozenKeywordNnMasked(p, t, slot, &d, scratch, delta);
  if (delta != nullptr) {
    MergeDeltaKeywordNn(*dataset_, *delta, p, t, &id, &d);
  }
  if (distance != nullptr) {
    *distance = d;
  }
  return id;
}

namespace {

/// Best-first entry of BooleanKnn and TopkRanked, ordered by its key alone.
struct RankedEntry {
  double key;
  const FrozenNodeRecord* node;  // nullptr for object entries.
  ObjectId id;
  bool operator>(const RankedEntry& other) const { return key > other.key; }
};
using RankedQueue = std::priority_queue<RankedEntry, std::vector<RankedEntry>,
                                        std::greater<RankedEntry>>;

/// MBR of the node at `slot`.
Rect SlotMbr(const FrozenView& v, uint32_t slot) {
  return Rect(v.min_x(slot), v.min_y(slot), v.max_x(slot), v.max_y(slot));
}

/// Pops `queue` best-first into (id, key) results until k objects came out
/// or it ran dry. `expand(node, &queue)` pushes a popped node's entries.
template <typename Expand>
std::vector<std::pair<ObjectId, double>> DrainRanked(RankedQueue* queue,
                                                     size_t k,
                                                     const Expand& expand) {
  std::vector<std::pair<ObjectId, double>> result;
  while (!queue->empty() && result.size() < k) {
    const RankedEntry top = queue->top();
    queue->pop();
    if (top.node == nullptr) {
      result.emplace_back(top.id, top.key);
    } else {
      expand(*top.node, queue);
    }
  }
  return result;
}

}  // namespace

std::vector<std::pair<ObjectId, double>> IrTree::BooleanKnn(
    const Point& p, const TermSet& required, size_t k) const {
  ReadGuard guard(this);
  if (size_ == 0 || k == 0) {
    return {};
  }
  const DeltaTree* delta = PinnedDelta();
  const FrozenView& v = frozen_->view;
  RankedQueue queue;
  if (delta != nullptr) {
    for (ObjectId id : delta->inserts) {
      const SpatialObject& obj = dataset_->object(id);
      if (TermSetIsSubset(required, obj.keywords)) {
        queue.push(RankedEntry{Distance(p, obj.location), nullptr, id});
      }
    }
  }
  const FrozenNodeRecord& root = v.node(0);
  if (v.num_leaf_entries > 0 &&
      TermSpanIncludes(v.node_terms(root), root.term_count, required)) {
    queue.push(RankedEntry{SlotMbr(v, 0).MinDistance(p), &root,
                           kInvalidObjectId});
  }
  return DrainRanked(&queue, k, [&](const FrozenNodeRecord& node,
                                    RankedQueue* q) {
    if (node.is_leaf()) {
      for (uint32_t e = node.entry_begin;
           e < node.entry_begin + node.entry_count; ++e) {
        if ((delta == nullptr || !delta->IsTombstoned(v.leaf_ids[e])) &&
            TermSpanIncludes(v.terms + v.leaf_term_begin[e],
                             v.leaf_term_count[e], required)) {
          q->push(RankedEntry{Distance(p, Point{v.leaf_x[e], v.leaf_y[e]}),
                              nullptr, v.leaf_ids[e]});
        }
      }
      return;
    }
    for (uint32_t c = node.first_child;
         c < node.first_child + node.entry_count; ++c) {
      const FrozenNodeRecord& child = v.node(c);
      if (TermSpanIncludes(v.node_terms(child), child.term_count, required)) {
        q->push(RankedEntry{SlotMbr(v, c).MinDistance(p), &child,
                            kInvalidObjectId});
      }
    }
  });
}

std::vector<std::pair<ObjectId, double>> IrTree::TopkRanked(
    const Point& p, const TermSet& terms, size_t k, double alpha) const {
  ReadGuard guard(this);
  if (size_ == 0 || k == 0 || terms.empty()) {
    return {};
  }
  COSKQ_CHECK_GE(alpha, 0.0);
  COSKQ_CHECK_LE(alpha, 1.0);
  const DeltaTree* delta = PinnedDelta();
  const FrozenView& v = frozen_->view;
  Rect region = v.num_leaf_entries > 0 ? SlotMbr(v, 0) : Rect();
  if (delta != nullptr) {
    for (ObjectId id : delta->inserts) {
      region.ExpandToInclude(dataset_->object(id).location);
    }
  }
  const double diag =
      std::max(Distance(Point{region.min_x, region.min_y},
                        Point{region.max_x, region.max_y}),
               std::numeric_limits<double>::min());
  const double num_terms = static_cast<double>(terms.size());
  // Score of an object at `location` sharing `shared` query terms, and the
  // same formula as a subtree's lower bound (MINDIST, summary overlap).
  const auto score = [&](double distance, size_t shared) {
    return alpha * distance / diag +
           (1.0 - alpha) * (1.0 - static_cast<double>(shared) / num_terms);
  };
  const auto node_bound = [&](uint32_t slot) {
    const FrozenNodeRecord& node = v.node(slot);
    return score(SlotMbr(v, slot).MinDistance(p),
                 TermSpanIntersectionSize(v.node_terms(node), node.term_count,
                                          terms));
  };
  RankedQueue queue;
  if (delta != nullptr) {
    for (ObjectId id : delta->inserts) {
      const SpatialObject& obj = dataset_->object(id);
      queue.push(RankedEntry{
          score(Distance(p, obj.location),
                TermSetIntersectionSize(obj.keywords, terms)),
          nullptr, id});
    }
  }
  if (v.num_leaf_entries > 0) {
    queue.push(RankedEntry{node_bound(0), &v.node(0), kInvalidObjectId});
  }
  return DrainRanked(&queue, k, [&](const FrozenNodeRecord& node,
                                    RankedQueue* q) {
    if (node.is_leaf()) {
      for (uint32_t e = node.entry_begin;
           e < node.entry_begin + node.entry_count; ++e) {
        if (delta != nullptr && delta->IsTombstoned(v.leaf_ids[e])) {
          continue;
        }
        q->push(RankedEntry{
            score(Distance(p, Point{v.leaf_x[e], v.leaf_y[e]}),
                  TermSpanIntersectionSize(v.terms + v.leaf_term_begin[e],
                                           v.leaf_term_count[e], terms)),
            nullptr, v.leaf_ids[e]});
      }
      return;
    }
    for (uint32_t c = node.first_child;
         c < node.first_child + node.entry_count; ++c) {
      q->push(RankedEntry{node_bound(c), &v.node(c), kInvalidObjectId});
    }
  });
}

std::vector<ObjectId> IrTree::NnSet(const Point& p, const TermSet& terms,
                                    TermSet* missing) const {
  return NnSet(p, terms, missing, nullptr);
}

std::vector<ObjectId> IrTree::NnSet(const Point& p, const TermSet& terms,
                                    TermSet* missing,
                                    SearchScratch* scratch) const {
  // One guard across the per-keyword searches: all of them (and their delta
  // merges) observe the same frozen+delta view.
  ReadGuard guard(this);
  std::vector<ObjectId> result;
  result.reserve(terms.size());
  for (TermId t : terms) {
    double distance = 0.0;
    const ObjectId id = scratch != nullptr
                            ? KeywordNn(p, t, &distance, scratch)
                            : KeywordNn(p, t, &distance);
    if (id == kInvalidObjectId) {
      if (missing != nullptr) {
        missing->push_back(t);
      }
      continue;
    }
    result.push_back(id);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  if (missing != nullptr) {
    NormalizeTermSet(missing);
  }
  return result;
}

void IrTree::RangeRelevant(const Circle& circle, const TermSet& query_terms,
                           std::vector<ObjectId>* out) const {
  RangeRelevant(circle, query_terms, out,
                static_cast<std::vector<uint32_t>*>(nullptr));
}

namespace {

/// Appends the delta inserts inside the disk that carry a query term, in
/// ascending id order (DeltaTree::inserts is sorted). Runs after the frozen
/// traversal so base matches keep their traversal order.
void AppendDeltaRangeRelevant(const Dataset& dataset, const DeltaTree& delta,
                              const Circle& circle, const TermSet& query_terms,
                              std::vector<ObjectId>* out) {
  const uint64_t sub_sig = TermSetSignature(query_terms);
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    if ((delta.insert_sigs[i] & sub_sig) == 0) {
      continue;
    }
    const SpatialObject& obj = dataset.object(delta.inserts[i]);
    if (circle.Contains(obj.location) && obj.ContainsAnyOf(query_terms)) {
      out->push_back(obj.id);
    }
  }
}

}  // namespace

void IrTree::RangeRelevant(const Circle& circle, const TermSet& query_terms,
                           std::vector<ObjectId>* out,
                           std::vector<uint32_t>* visit_log) const {
  ReadGuard guard(this);
  const DeltaTree* delta = PinnedDelta();
  FrozenRangeRelevant(circle, query_terms, out, visit_log, delta);
  if (delta != nullptr) {
    AppendDeltaRangeRelevant(*dataset_, *delta, circle, query_terms, out);
  }
}

void IrTree::RangeRelevant(const Circle& circle, const TermSet& query_terms,
                           std::vector<ObjectId>* out,
                           SearchScratch* scratch) const {
  ReadGuard guard(this);
  uint64_t submask = 0;
  if (scratch == nullptr || !scratch->mask_active() ||
      !scratch->mask().SubmaskOf(query_terms, &submask)) {
    RangeRelevant(circle, query_terms, out,
                  scratch != nullptr ? scratch->visit_log() : nullptr);
    return;
  }
  // Bloom signature of the tested subset: a clear AND against a node or
  // object signature proves disjointness, skipping the exact mask test
  // without changing its outcome (no false negatives).
  const uint64_t sub_sig = TermSetSignature(query_terms);
  // Cheap cost model for the masked scan. An object with b signature bits
  // survives a q-bit query signature with probability ~(1 - q/64)^b, so the
  // mean density of the corpus signatures predicts the Bloom filter's prune
  // rate for this query. When a keyword-heavy query meets a keyword-heavy
  // corpus (web-like: ~30 bits per object signature) the estimate collapses
  // and the masked scan is the plain scan plus dead signature tests and
  // cold-cache probes — measurably slower. Divert those queries to the
  // plain path; it returns the identical result set.
  //
  // The divert only applies when the scratch caches are cold. The solvers
  // always run NnSet before any range retrieval, which fills the distance
  // memo and mask caches for the epoch; a warm masked scan reuses those
  // entries and beats the plain scan even when the Bloom prune rate is
  // poor, so warm queries keep the masked path unconditionally.
  constexpr double kMaskedRangeMinPruneRate = 0.02;
  const bool caches_warm =
      scratch->dist_cache_hits() + scratch->dist_cache_misses() > 0;
  const double clear_frac =
      1.0 - static_cast<double>(std::popcount(sub_sig)) / 64.0;
  const double mean_sig_bits =
      size_ > 0 ? static_cast<double>(obj_sig_bits_sum_) /
                      static_cast<double>(size_)
                : 0.0;
  if (!caches_warm &&
      std::pow(clear_frac, mean_sig_bits) < kMaskedRangeMinPruneRate) {
    RangeRelevant(circle, query_terms, out, scratch->visit_log());
    return;
  }
  const DeltaTree* delta = PinnedDelta();
  FrozenRangeRelevantMasked(circle, query_terms, submask, out, scratch, delta);
  if (delta != nullptr) {
    AppendDeltaRangeRelevant(*dataset_, *delta, circle, query_terms, out);
  }
}

struct IrTree::RelevantStream::Impl {
  struct QueueEntry {
    double distance;
    /// nullptr for object entries.
    const FrozenNodeRecord* node;
    ObjectId id;
    /// PrefetchHint(*node) for the heap-pop prefetch; ignored by the
    /// comparator, zero for objects.
    uint32_t aux = 0;
    bool operator>(const QueueEntry& other) const {
      return distance > other.distance;
    }
  };

  const FrozenView& v;
  Point origin;
  TermSet query_terms;
  /// When masked, prune on scratch-cached bitmasks instead of the sorted
  /// term sets; the queue itself stays stream-private so streams can be
  /// interleaved with other masked traversals on the same scratch.
  SearchScratch* scratch = nullptr;
  uint64_t submask = 0;
  /// Bloom signature of `query_terms` (definite-negative pre-filter).
  uint64_t sub_sig = 0;
  bool masked = false;
  /// True when the stream is anchored at the scratch's query origin, so
  /// node/object distances can be read through the per-query memos.
  bool from_origin = false;
  /// The delta pinned by the stream's guard (null ⇔ empty). The tree
  /// traversal skips its tombstones; its insert candidates are pre-scored
  /// into delta_cands and min-merged against the tree stream by Next().
  const DeltaTree* delta = nullptr;
  /// (distance, id) of every relevant delta insert, ascending.
  std::vector<std::pair<double, ObjectId>> delta_cands = {};
  size_t delta_pos = 0;
  /// One-element lookahead of the tree stream for the merge (the tree side
  /// has no O(1) peek).
  std::optional<std::pair<ObjectId, double>> lookahead = std::nullopt;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue = {};

  /// Pops the next relevant object from the tree traversal alone (the
  /// pre-delta stream); Next() merges it with delta_cands.
  std::optional<std::pair<ObjectId, double>> NextFromTree();
};

IrTree::RelevantStream::RelevantStream(const IrTree* tree, const Point& origin,
                                       const TermSet& query_terms)
    : RelevantStream(tree, origin, query_terms, nullptr) {}

IrTree::RelevantStream::RelevantStream(const IrTree* tree, const Point& origin,
                                       const TermSet& query_terms,
                                       SearchScratch* scratch)
    : guard_(tree),
      impl_(new Impl{tree->frozen_->view, origin, query_terms}) {
  uint64_t submask = 0;
  if (scratch != nullptr && scratch->mask_active() &&
      scratch->mask().SubmaskOf(query_terms, &submask)) {
    impl_->scratch = scratch;
    impl_->submask = submask;
    impl_->sub_sig = TermSetSignature(query_terms);
    impl_->masked = true;
    impl_->from_origin = origin == scratch->origin();
  }
  const DeltaTree* delta = tree->PinnedDelta();
  if (delta != nullptr) {
    impl_->delta = delta;
    const uint64_t query_sig = TermSetSignature(query_terms);
    for (size_t i = 0; i < delta->inserts.size(); ++i) {
      if ((delta->insert_sigs[i] & query_sig) == 0) {
        continue;
      }
      const SpatialObject& obj = tree->dataset_->object(delta->inserts[i]);
      if (obj.ContainsAnyOf(query_terms)) {
        impl_->delta_cands.emplace_back(Distance(origin, obj.location),
                                        obj.id);
      }
    }
    std::sort(impl_->delta_cands.begin(), impl_->delta_cands.end());
  }
  if (tree->size_ == 0) {
    return;
  }
  const FrozenView& v = impl_->v;
  const FrozenNodeRecord& root = v.node(0);
  const bool root_relevant =
      impl_->masked
          ? (root.sig & impl_->sub_sig) != 0 &&
                (scratch->NodeMask(root.id, v.node_terms(root),
                                   root.term_count) &
                 submask) != 0
          : TermSpanIntersects(v.node_terms(root), root.term_count,
                               impl_->query_terms);
  if (root_relevant) {
    impl_->queue.push(Impl::QueueEntry{SlotMbr(v, 0).MinDistance(origin),
                                       &root, kInvalidObjectId,
                                       PrefetchHint(root)});
  }
}

IrTree::RelevantStream::~RelevantStream() = default;

std::optional<std::pair<ObjectId, double>> IrTree::RelevantStream::Next() {
  Impl& im = *impl_;
  if (im.delta_pos >= im.delta_cands.size() && !im.lookahead.has_value()) {
    // Empty or exhausted delta: the tree stream is the whole stream.
    return im.NextFromTree();
  }
  if (!im.lookahead.has_value()) {
    im.lookahead = im.NextFromTree();
  }
  if (im.delta_pos < im.delta_cands.size()) {
    const std::pair<double, ObjectId>& cand = im.delta_cands[im.delta_pos];
    // Min-merge on distance; the frozen side wins ties (see
    // MergeDeltaKeywordNn — continuous coordinates make ties measure-zero).
    if (!im.lookahead.has_value() || cand.first < im.lookahead->second) {
      ++im.delta_pos;
      return std::make_pair(cand.second, cand.first);
    }
  }
  std::optional<std::pair<ObjectId, double>> result = im.lookahead;
  im.lookahead.reset();
  return result;
}

std::optional<std::pair<ObjectId, double>>
IrTree::RelevantStream::Impl::NextFromTree() {
  const internal_index::KernelOps& kernels = ActiveKernels();
  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (top.node == nullptr) {
      return std::make_pair(top.id, top.distance);
    }
    if (!queue.empty()) {
      // Start pulling the likely next pop while this node is processed.
      const QueueEntry& next = queue.top();
      PrefetchNextPop(v, next.node, next.aux);
    }
    const FrozenNodeRecord& node = *top.node;
    if (node.is_leaf()) {
      const uint32_t begin = node.entry_begin;
      const uint32_t count = node.entry_count;
      if (masked) {
        // Vectorized Bloom pass over the contiguous leaf_sigs stripe; the
        // survivors are exactly the entries whose signature test passes, in
        // slot order.
        std::vector<uint32_t>& sidx = scratch->survivor_idx();
        if (sidx.size() < count) {
          sidx.resize(count);
        }
        const uint32_t n = kernels.sig_any_filter(v.leaf_sigs + begin, count,
                                                  sub_sig, sidx.data());
        for (uint32_t k = 0; k < n; ++k) {
          const uint32_t e = begin + sidx[k];
          const ObjectId id = v.leaf_ids[e];
          if (delta != nullptr && delta->IsTombstoned(id)) {
            continue;
          }
          // Warm cached mask if present, else the exact span test with no
          // cache fill (see RangeRelevant).
          uint64_t obj_mask = 0;
          const bool relevant =
              scratch->CachedObjectMask(id, &obj_mask)
                  ? (obj_mask & submask) != 0
                  : TermSpanIntersects(v.terms + v.leaf_term_begin[e],
                                       v.leaf_term_count[e], query_terms);
          if (relevant) {
            const Point location{v.leaf_x[e], v.leaf_y[e]};
            const double d = from_origin ? scratch->QueryDistance(id, location)
                                         : Distance(origin, location);
            queue.push(QueueEntry{d, nullptr, id});
          }
        }
      } else {
        for (uint32_t e = begin; e < begin + count; ++e) {
          if (TermSpanIntersects(v.terms + v.leaf_term_begin[e],
                                 v.leaf_term_count[e], query_terms)) {
            const ObjectId id = v.leaf_ids[e];
            if (delta != nullptr && delta->IsTombstoned(id)) {
              continue;
            }
            queue.push(QueueEntry{
                Distance(origin, Point{v.leaf_x[e], v.leaf_y[e]}), nullptr,
                id});
          }
        }
      }
      continue;
    }
    const uint32_t first = node.first_child;
    for (uint32_t c = first; c < first + node.entry_count; ++c) {
      const FrozenNodeRecord& child = v.node(c);
      bool relevant;
      if (masked) {
        uint64_t node_mask = 0;
        relevant = (child.sig & sub_sig) != 0 &&
                   (scratch->CachedNodeMask(child.id, &node_mask)
                        ? (node_mask & submask) != 0
                        : TermSpanIntersects(v.node_terms(child),
                                             child.term_count, query_terms));
      } else {
        relevant = TermSpanIntersects(v.node_terms(child), child.term_count,
                                      query_terms);
      }
      if (relevant) {
        const Rect mbr = SlotMbr(v, c);
        const double d = masked && from_origin
                             ? scratch->NodeMinDistance(child.id, mbr)
                             : mbr.MinDistance(origin);
        queue.push(QueueEntry{d, &child, kInvalidObjectId, PrefetchHint(child)});
      }
    }
  }
  return std::nullopt;
}

int IrTree::Height() const {
  ReadGuard guard(this);
  return static_cast<int>(frozen_->view.height);
}

size_t IrTree::NodeCount() const {
  ReadGuard guard(this);
  return frozen_->view.num_nodes;
}

IndexMemoryStats IrTree::MemoryStats() const {
  ReadGuard guard(this);
  IndexMemoryStats stats;
  stats.process_resident_bytes = internal_index::ProcessResidentBytes();
  const internal_index::FaultCounters faults =
      internal_index::ProcessFaultCounters();
  stats.major_faults = faults.major;
  stats.minor_faults = faults.minor;
  if (frozen_ == nullptr) {
    return stats;
  }
  stats.layout = frozen_->layout;
  stats.cold = frozen_->view.cold;
  stats.body_bytes = frozen_->body_bytes;
  stats.memory_budget_bytes = frozen_->memory_budget_bytes;
  stats.budget_trims =
      frozen_->budget_trims.load(std::memory_order_relaxed);
  if (frozen_->mapped != nullptr) {
    // Budget-capped trees keep a fresh reading as a side effect of
    // enforcement; re-walking mincore here would duplicate that work.
    stats.body_resident_bytes =
        frozen_->memory_budget_bytes != 0
            ? frozen_->budget_resident_bytes.load(std::memory_order_relaxed)
            : internal_index::MappingResidentBytes(frozen_->body,
                                                  frozen_->body_bytes);
  }
  return stats;
}

void IrTree::CheckInvariants() const {
  ReadGuard guard(this);
  CheckFrozenInvariants();
  // Delta-overlay invariants (DESIGN.md §13).
  const DeltaTree* delta = PinnedDelta();
  const size_t base_count = frozen_->view.num_leaf_entries;
  if (delta != nullptr) {
    delta->CheckWellFormed();
    for (size_t i = 0; i < delta->inserts.size(); ++i) {
      const ObjectId id = delta->inserts[i];
      COSKQ_CHECK(!LiveInBase(id)) << "delta insert already in frozen base";
      COSKQ_CHECK_LT(id, dataset_->NumObjects());
      COSKQ_CHECK_EQ(delta->insert_sigs[i],
                     TermSetSignature(dataset_->object(id).keywords));
    }
    for (ObjectId id : delta->tombstones) {
      COSKQ_CHECK(LiveInBase(id)) << "tombstone outside the frozen base";
    }
    COSKQ_CHECK_EQ(
        static_cast<int64_t>(size_.load(std::memory_order_relaxed)),
        static_cast<int64_t>(base_count) + delta->LiveDelta());
  } else {
    COSKQ_CHECK_EQ(size_.load(std::memory_order_relaxed), base_count);
  }
  size_t live_bits = 0;
  for (uint8_t bit : frozen_live_) {
    live_bits += bit;
  }
  COSKQ_CHECK_EQ(live_bits, base_count);
}

}  // namespace coskq
