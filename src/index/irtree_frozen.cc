// Frozen flat IR-tree: IrTree::Freeze() and the frozen fast paths.
//
// The frozen representation stores the tree as contiguous arrays (see
// frozen_layout.h): breadth-first node records, structure-of-arrays node
// MBRs so a parent's per-child MINDIST scan reads four contiguous double
// ranges, a term arena holding every node summary and leaf object keyword
// set as sorted spans, and leaf entries (id, location, Bloom signature,
// keyword span) packed in traversal order so leaf scans never touch the
// Dataset.
//
// Bit-identity contract: every frozen traversal mirrors its pointer-tree
// counterpart exactly — same child visit order (BFS slots preserve the
// pointer tree's child order), same pruning predicates evaluated in the same
// short-circuit order, the same best-first heap discipline over entries
// compared by distance only, and the same floating-point arithmetic
// (Rect::MinDistance's max/max/sqrt sequence reproduced over the SoA
// arrays). Node records keep the pointer tree's preorder ids, so visit logs
// and the SearchScratch per-node caches are keyed identically. The
// index_frozen_diff_test suite proves the contract over 50 seeds.

#include <string.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <queue>

#include "index/frozen_layout.h"
#include "index/irtree.h"
#include "index/irtree_node.h"
#include "index/kernels.h"
#include "index/residency.h"
#include "index/search_scratch.h"
#include "index/term_signature.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace coskq {

using internal_index::ActiveKernels;
using internal_index::BodyLayout;
using internal_index::FrozenNodeRecord;
using internal_index::FrozenStore;
using internal_index::FrozenView;
using internal_index::KernelOps;
using internal_index::kGroupBytes;
using internal_index::kGroupMask;
using internal_index::kGroupShift;
using internal_index::kGroupSlots;
using internal_index::PrefetchHint;
using internal_index::PrefetchNextPop;

const char* FrozenLayoutName(FrozenLayout layout) {
  switch (layout) {
    case FrozenLayout::kBfs:
      return "bfs";
    case FrozenLayout::kLevelGrouped:
      return "level-grouped";
  }
  return "unknown";
}

bool FrozenLayoutFromName(const std::string& name, FrozenLayout* out) {
  if (name == "bfs") {
    *out = FrozenLayout::kBfs;
    return true;
  }
  if (name == "level-grouped" || name == "lg") {
    *out = FrozenLayout::kLevelGrouped;
    return true;
  }
  return false;
}

namespace internal_index {

namespace {

constexpr size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

}  // namespace

BodyLayout BodyLayout::Make(FrozenLayout layout, uint32_t num_nodes,
                            uint32_t num_leaf_entries, uint32_t num_terms) {
  BodyLayout lay;
  lay.layout = layout;
  size_t off = 0;
  const auto section = [&off](size_t bytes) {
    const size_t begin = off;
    off += Align8(bytes);
    return begin;
  };
  if (layout == FrozenLayout::kBfs) {
    // The snapshot-v1 byte layout, expressed as lane descriptors: each lane
    // a flat section, stride = one group's worth of elements, so
    // off + (slot>>6)*stride + (slot&63)*elt == off + slot*elt exactly.
    lay.rec_off = section(size_t{num_nodes} * sizeof(FrozenNodeRecord));
    lay.rec_stride = kGroupSlots * sizeof(FrozenNodeRecord);
    lay.min_x_off = section(size_t{num_nodes} * sizeof(double));
    lay.min_y_off = section(size_t{num_nodes} * sizeof(double));
    lay.max_x_off = section(size_t{num_nodes} * sizeof(double));
    lay.max_y_off = section(size_t{num_nodes} * sizeof(double));
    lay.mbr_stride = kGroupSlots * sizeof(double);
  } else {
    // Level-grouped: the node region is a sequence of 4096-byte groups,
    // each holding 64 records followed by their four MBR lanes. The tail
    // group is zero-padded to full size so the body is deterministic.
    const size_t groups =
        (size_t{num_nodes} + kGroupSlots - 1) / kGroupSlots;
    lay.rec_off = 0;
    lay.rec_stride = kGroupBytes;
    lay.min_x_off = kGroupSlots * sizeof(FrozenNodeRecord);
    lay.min_y_off = lay.min_x_off + kGroupSlots * sizeof(double);
    lay.max_x_off = lay.min_y_off + kGroupSlots * sizeof(double);
    lay.max_y_off = lay.max_x_off + kGroupSlots * sizeof(double);
    lay.mbr_stride = kGroupBytes;
    off = groups * kGroupBytes;
  }
  lay.node_region_bytes = off;
  lay.terms_off = section(size_t{num_terms} * sizeof(TermId));
  lay.leaf_ids_off = section(size_t{num_leaf_entries} * sizeof(ObjectId));
  lay.leaf_x_off = section(size_t{num_leaf_entries} * sizeof(double));
  lay.leaf_y_off = section(size_t{num_leaf_entries} * sizeof(double));
  lay.leaf_sigs_off = section(size_t{num_leaf_entries} * sizeof(uint64_t));
  lay.leaf_term_begin_off =
      section(size_t{num_leaf_entries} * sizeof(uint32_t));
  lay.leaf_term_count_off =
      section(size_t{num_leaf_entries} * sizeof(uint32_t));
  lay.total_bytes = off;
  return lay;
}

FrozenStore::~FrozenStore() {
  if (mapped != nullptr) {
    munmap(mapped, mapped_size);
  }
}

size_t FrozenStore::BodyBytes(FrozenLayout layout, uint32_t num_nodes,
                              uint32_t num_leaf_entries, uint32_t num_terms) {
  return BodyLayout::Make(layout, num_nodes, num_leaf_entries, num_terms)
      .total_bytes;
}

void FrozenStore::BindView(FrozenLayout lay_kind, const uint8_t* body_ptr,
                           uint32_t num_nodes, uint32_t num_leaf_entries,
                           uint32_t num_terms, uint32_t height) {
  COSKQ_CHECK_EQ(reinterpret_cast<uintptr_t>(body_ptr) % 8, 0u)
      << "frozen body must be 8-byte aligned";
  const BodyLayout lay =
      BodyLayout::Make(lay_kind, num_nodes, num_leaf_entries, num_terms);
  layout = lay_kind;
  body = body_ptr;
  body_bytes = lay.total_bytes;
  view.body = body_ptr;
  view.rec_off = lay.rec_off;
  view.rec_stride = lay.rec_stride;
  view.min_x_off = lay.min_x_off;
  view.min_y_off = lay.min_y_off;
  view.max_x_off = lay.max_x_off;
  view.max_y_off = lay.max_y_off;
  view.mbr_stride = lay.mbr_stride;
  view.terms = reinterpret_cast<const TermId*>(body_ptr + lay.terms_off);
  view.leaf_ids =
      reinterpret_cast<const ObjectId*>(body_ptr + lay.leaf_ids_off);
  view.leaf_x = reinterpret_cast<const double*>(body_ptr + lay.leaf_x_off);
  view.leaf_y = reinterpret_cast<const double*>(body_ptr + lay.leaf_y_off);
  view.leaf_sigs =
      reinterpret_cast<const uint64_t*>(body_ptr + lay.leaf_sigs_off);
  view.leaf_term_begin =
      reinterpret_cast<const uint32_t*>(body_ptr + lay.leaf_term_begin_off);
  view.leaf_term_count =
      reinterpret_cast<const uint32_t*>(body_ptr + lay.leaf_term_count_off);
  view.num_nodes = num_nodes;
  view.num_leaf_entries = num_leaf_entries;
  view.num_terms = num_terms;
  view.height = height;
  view.layout = lay_kind;
}

void FrozenStore::MaybeEnforceBudget() {
  if (memory_budget_bytes == 0 || mapped == nullptr || body == nullptr) {
    return;
  }
  // Sampling residency costs a mincore walk over the body; do it on a
  // sparse subsample of guard acquires and let one thread at a time trim.
  constexpr uint32_t kBudgetCheckPeriod = 64;
  if (budget_ticker_.fetch_add(1, std::memory_order_relaxed) %
          kBudgetCheckPeriod !=
      0) {
    return;
  }
  std::unique_lock<std::mutex> lock(trim_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return;
  }
  const uint64_t resident = MappingResidentBytes(body, body_bytes);
  budget_resident_bytes.store(resident, std::memory_order_relaxed);
  if (resident <= memory_budget_bytes) {
    return;
  }
  // Over budget: give the tail of the body back to the kernel, protecting a
  // prefix of the node region (the upper levels every traversal re-reads)
  // up to half the budget. Purely advisory — dropped pages refault from the
  // read-only snapshot file, so results are unaffected.
  const BodyLayout lay = BodyLayout::Make(
      layout, view.num_nodes, view.num_leaf_entries, view.num_terms);
  const size_t keep =
      std::min<size_t>(lay.node_region_bytes, memory_budget_bytes / 2);
  AdviseDontNeed(body + keep, body_bytes - keep);
  budget_trims.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal_index

namespace {

/// Per-child squared MINDIST over the contiguous SoA slot range
/// [first, first + count), dispatched to the active SIMD kernel table
/// (kernels.h): the sub/max/mul part of Rect::MinDistance's arithmetic for
/// non-empty rectangles (every node of a non-empty tree has one). The sqrt
/// is deferred to the children that survive the keyword filter — callers
/// apply std::sqrt(out[i]) there, which reproduces Rect::MinDistance bit for
/// bit: std::max(std::max(a, 0.0), b) selects the same value as its
/// std::max({a, 0.0, b}) for every input, a -0.0 difference cannot survive
/// the squaring, and sqrt of the identical sum is the identical double. The
/// kernel table's own bit-identity contract covers the vectorized variants.
inline void ScanChildSquaredDistances(const KernelOps& kernels,
                                      const FrozenView& v, uint32_t first,
                                      uint32_t count, const Point& p,
                                      double* out) {
  // [first, first + count) must lie within one slot group (see
  // FrozenView::span): that is the contiguity unit of the SoA lanes under
  // both layouts.
  kernels.child_squared_distances(v.min_x_ptr(first), v.min_y_ptr(first),
                                  v.max_x_ptr(first), v.max_y_ptr(first),
                                  count, p.x, p.y, out);
}

/// MINDIST from `p` to the MBR of the node at `slot` (same arithmetic).
inline double NodeMinDist(const FrozenView& v, uint32_t slot, const Point& p) {
  const double dx =
      std::max(std::max(v.min_x(slot) - p.x, 0.0), p.x - v.max_x(slot));
  const double dy =
      std::max(std::max(v.min_y(slot) - p.y, 0.0), p.y - v.max_y(slot));
  return std::sqrt(dx * dx + dy * dy);
}

/// Stack buffer size of the child-distance scans. Chunks come from
/// FrozenView::span, which never exceeds one slot group.
constexpr uint32_t kScanChunk = kGroupSlots;

}  // namespace

void IrTree::Freeze() {
  if (frozen_ != nullptr) {
    // Already frozen: folding the pending delta (if any) into the flat
    // arrays is exactly a refreeze; with an empty delta this is a no-op.
    const Status status = Refreeze();
    COSKQ_CHECK(status.ok()) << status.ToString();
    return;
  }
  COSKQ_CHECK(root_ != nullptr);

  // Breadth-first node order: children of every node end up in a contiguous
  // slot range, in the pointer tree's child order.
  std::vector<const Node*> order;
  order.push_back(root_.get());
  for (size_t i = 0; i < order.size(); ++i) {
    const Node* n = order[i];
    if (!n->is_leaf) {
      for (const auto& child : n->children) {
        order.push_back(child.get());
      }
    }
  }

  COSKQ_CHECK_LE(order.size(),
                 size_t{std::numeric_limits<uint32_t>::max()});
  const uint32_t num_nodes = static_cast<uint32_t>(order.size());
  const int threads = BuildThreads(size_.load(std::memory_order_relaxed));
  // Every slot's term-arena, leaf-entry and child offsets are prefix sums
  // of per-slot counts, so disjoint slot ranges can be written in parallel
  // into exactly the bytes a sequential walk would write.
  const auto for_each_slot = [&](const auto& fn) {
    ParallelForRanges(num_nodes, threads, [&](int, size_t begin, size_t end) {
      for (size_t slot = begin; slot < end; ++slot) {
        fn(static_cast<uint32_t>(slot), order[slot]);
      }
    });
  };
  std::vector<uint64_t> term_begin(size_t{num_nodes} + 1, 0);
  std::vector<uint64_t> leaf_begin(size_t{num_nodes} + 1, 0);
  std::vector<uint64_t> child_begin(size_t{num_nodes} + 1, 0);
  for_each_slot([&](uint32_t slot, const Node* n) {
    COSKQ_CHECK_LE(n->EntryCount(), size_t{65535})
        << "fan-out exceeds FrozenNodeRecord::entry_count";
    uint64_t terms_here = n->terms.size();
    if (n->is_leaf) {
      leaf_begin[slot + 1] = n->objects.size();
      for (ObjectId id : n->objects) {
        terms_here += dataset_->object(id).keywords.size();
      }
    } else {
      child_begin[slot + 1] = n->children.size();
    }
    term_begin[slot + 1] = terms_here;
  });
  for (uint32_t slot = 0; slot < num_nodes; ++slot) {
    term_begin[slot + 1] += term_begin[slot];
    leaf_begin[slot + 1] += leaf_begin[slot];
    child_begin[slot + 1] += child_begin[slot];
  }
  COSKQ_CHECK_LE(term_begin[num_nodes],
                 uint64_t{std::numeric_limits<uint32_t>::max()});
  const uint32_t num_leaf_entries =
      static_cast<uint32_t>(leaf_begin[num_nodes]);
  const uint32_t num_terms = static_cast<uint32_t>(term_begin[num_nodes]);
  COSKQ_CHECK_EQ(child_begin[num_nodes] + 1, uint64_t{num_nodes});

  const FrozenLayout layout = options_.frozen_layout;
  auto store = std::make_unique<FrozenStore>();
  // Zero-filled so section padding bytes (and the level-grouped tail group)
  // are deterministic: snapshots of the same tree are byte-for-byte
  // identical.
  store->owned.assign(
      FrozenStore::BodyBytes(layout, num_nodes, num_leaf_entries, num_terms),
      0);
  uint8_t* body = store->owned.data();
  const BodyLayout lay =
      BodyLayout::Make(layout, num_nodes, num_leaf_entries, num_terms);
  // Mutable mirrors of the FrozenView lane accessors.
  const auto rec_at = [&](uint32_t slot) -> FrozenNodeRecord* {
    return reinterpret_cast<FrozenNodeRecord*>(
        body + lay.rec_off +
        static_cast<size_t>(slot >> kGroupShift) * lay.rec_stride +
        static_cast<size_t>(slot & kGroupMask) * sizeof(FrozenNodeRecord));
  };
  const auto lane_at = [&](size_t lane_off, uint32_t slot) -> double* {
    return reinterpret_cast<double*>(
        body + lane_off +
        static_cast<size_t>(slot >> kGroupShift) * lay.mbr_stride +
        static_cast<size_t>(slot & kGroupMask) * sizeof(double));
  };
  auto* terms = reinterpret_cast<TermId*>(body + lay.terms_off);
  auto* leaf_ids = reinterpret_cast<ObjectId*>(body + lay.leaf_ids_off);
  auto* leaf_x = reinterpret_cast<double*>(body + lay.leaf_x_off);
  auto* leaf_y = reinterpret_cast<double*>(body + lay.leaf_y_off);
  auto* leaf_sigs = reinterpret_cast<uint64_t*>(body + lay.leaf_sigs_off);
  auto* leaf_term_begin =
      reinterpret_cast<uint32_t*>(body + lay.leaf_term_begin_off);
  auto* leaf_term_count =
      reinterpret_cast<uint32_t*>(body + lay.leaf_term_count_off);

  for_each_slot([&](uint32_t slot, const Node* n) {
    uint32_t next_term = static_cast<uint32_t>(term_begin[slot]);
    FrozenNodeRecord rec{};
    rec.id = n->id;
    rec.sig = n->sig;
    rec.term_begin = next_term;
    rec.term_count = static_cast<uint32_t>(n->terms.size());
    std::copy(n->terms.begin(), n->terms.end(), terms + next_term);
    next_term += rec.term_count;
    *lane_at(lay.min_x_off, slot) = n->mbr.min_x;
    *lane_at(lay.min_y_off, slot) = n->mbr.min_y;
    *lane_at(lay.max_x_off, slot) = n->mbr.max_x;
    *lane_at(lay.max_y_off, slot) = n->mbr.max_y;
    if (n->is_leaf) {
      uint32_t next_leaf = static_cast<uint32_t>(leaf_begin[slot]);
      rec.flags = 1;
      rec.entry_begin = next_leaf;
      rec.entry_count = static_cast<uint16_t>(n->objects.size());
      for (ObjectId id : n->objects) {
        const SpatialObject& obj = dataset_->object(id);
        leaf_ids[next_leaf] = id;
        leaf_x[next_leaf] = obj.location.x;
        leaf_y[next_leaf] = obj.location.y;
        leaf_sigs[next_leaf] = obj_sigs_[id];
        leaf_term_begin[next_leaf] = next_term;
        leaf_term_count[next_leaf] =
            static_cast<uint32_t>(obj.keywords.size());
        std::copy(obj.keywords.begin(), obj.keywords.end(),
                  terms + next_term);
        next_term += static_cast<uint32_t>(obj.keywords.size());
        ++next_leaf;
      }
    } else {
      rec.first_child = static_cast<uint32_t>(child_begin[slot]) + 1;
      rec.entry_count = static_cast<uint16_t>(n->children.size());
    }
    *rec_at(slot) = rec;
  });

  store->BindView(layout, body, num_nodes, num_leaf_entries, num_terms,
                  static_cast<uint32_t>(Height()));
  frozen_ = std::move(store);
  RebuildFrozenLive();
}

void IrTree::RebuildFrozenLive() {
  const FrozenView& v = frozen_->view;
  frozen_live_.assign(dataset_->NumObjects(), 0);
  for (uint32_t e = 0; e < v.num_leaf_entries; ++e) {
    frozen_live_[v.leaf_ids[e]] = 1;
  }
}

Status IrTree::Refreeze() {
  std::lock_guard<std::mutex> refreeze_lock(refreeze_mutex_);
  if (frozen_ == nullptr) {
    return Status::InvalidArgument(
        "Refreeze requires a frozen tree (call Freeze() first)");
  }

  // Capture: the delta to fold (d0) and the post-fold live set L0, under the
  // mutation lock so both are one consistent cut. Everything applied after
  // this cut survives into the post-swap delta.
  std::shared_ptr<const DeltaTree> d0;
  std::vector<ObjectId> live;
  {
    std::lock_guard<std::mutex> mutate_lock(mutate_mutex_);
    {
      std::lock_guard<std::mutex> delta_lock(delta_mutex_);
      d0 = delta_;
    }
    if (d0 == nullptr || d0->empty()) {
      return Status::OK();
    }
    live.reserve(size_.load(std::memory_order_relaxed));
    for (ObjectId id = 0; id < frozen_live_.size(); ++id) {
      if (frozen_live_[id] != 0 && !d0->IsTombstoned(id)) {
        live.push_back(id);
      }
    }
    // Inserts are disjoint from the base, so appending and sorting yields
    // the ascending live set.
    live.insert(live.end(), d0->inserts.begin(), d0->inserts.end());
    std::sort(live.begin(), live.end());
  }

  // Build: a from-scratch tree over L0, outside every lock — queries and
  // mutations proceed untouched against the old body while this runs. The
  // dataset records for L0 are immutable (append-only dataset), so the
  // unlocked read is safe. One thread: the serving workers keep the cores.
  // Freeze() also builds the new base's membership bitmap here, unlocked.
  std::unique_ptr<IrTree> fresh(
      new IrTree(dataset_, options_, live, /*build_threads=*/1));
  fresh->Freeze();

  // Swap: splice the new body in and rewrite the delta so that
  // (base − tombstones) ∪ inserts names the same logical set before and
  // after. With B0/B1 the old/new base and (insC, tombC) the current delta:
  //   tombN = (tombC ∖ tomb0) ∪ (ins0 ∖ insC)   — folded-in inserts that
  //            were removed again while the build ran, plus tombstones newer
  //            than the cut (both ⊆ B1);
  //   insN  = (insC ∖ ins0) ∪ (tomb0 ∖ tombC)   — inserts newer than the
  //            cut, plus folded-out tombstones that were resurrected (both
  //            disjoint from B1).
  {
    std::lock_guard<std::mutex> mutate_lock(mutate_mutex_);
    std::shared_ptr<const DeltaTree> cur;
    {
      std::lock_guard<std::mutex> delta_lock(delta_mutex_);
      cur = delta_;
    }
    static const DeltaTree kEmptyDelta;
    const DeltaTree& c = cur != nullptr ? *cur : kEmptyDelta;
    auto next = std::make_shared<DeltaTree>();
    std::vector<ObjectId> part_a;
    std::vector<ObjectId> part_b;
    std::set_difference(c.tombstones.begin(), c.tombstones.end(),
                        d0->tombstones.begin(), d0->tombstones.end(),
                        std::back_inserter(part_a));
    std::set_difference(d0->inserts.begin(), d0->inserts.end(),
                        c.inserts.begin(), c.inserts.end(),
                        std::back_inserter(part_b));
    std::set_union(part_a.begin(), part_a.end(), part_b.begin(), part_b.end(),
                   std::back_inserter(next->tombstones));
    part_a.clear();
    part_b.clear();
    std::set_difference(c.inserts.begin(), c.inserts.end(),
                        d0->inserts.begin(), d0->inserts.end(),
                        std::back_inserter(part_a));
    std::set_difference(d0->tombstones.begin(), d0->tombstones.end(),
                        c.tombstones.begin(), c.tombstones.end(),
                        std::back_inserter(part_b));
    std::set_union(part_a.begin(), part_a.end(), part_b.begin(), part_b.end(),
                   std::back_inserter(next->inserts));
    next->insert_sigs.reserve(next->inserts.size());
    for (ObjectId id : next->inserts) {
      next->insert_sigs.push_back(
          TermSetSignature(dataset_->object(id).keywords));
    }
    next->CheckWellFormed();
    // The logical set is untouched by the swap.
    COSKQ_CHECK_EQ(static_cast<int64_t>(live.size()) + next->LiveDelta(),
                   static_cast<int64_t>(size_.load(std::memory_order_relaxed)));

    // The critical section only exchanges pointers: the old body, pointer
    // tree, signatures and bitmap move into `fresh` and are freed below,
    // after both locks are released, so requests never wait on the frees.
    // The new bitmap may be shorter than a rebuild at swap time would be
    // (objects appended since the build), which LiveInBase already reads
    // as "not in the base" — and an appended object is not.
    std::unique_lock<std::shared_mutex> swap_lock(swap_mutex_);
    std::swap(root_, fresh->root_);
    std::swap(obj_sigs_, fresh->obj_sigs_);
    obj_sig_bits_sum_ = fresh->obj_sig_bits_sum_;
    next_node_id_ = fresh->next_node_id_;
    std::swap(frozen_, fresh->frozen_);
    std::swap(frozen_live_, fresh->frozen_live_);
    PublishDelta(std::move(next));
    epoch_.fetch_add(1, std::memory_order_release);
  }
  fresh.reset();
  refreezes_completed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void IrTree::RefreezeAsync() {
  std::lock_guard<std::mutex> launch_lock(refreeze_launch_mutex_);
  if (refreeze_running_.load(std::memory_order_acquire)) {
    return;
  }
  if (refreeze_thread_.joinable()) {
    refreeze_thread_.join();
  }
  refreeze_running_.store(true, std::memory_order_release);
  refreeze_thread_ = std::thread([this] {
    const Status status = Refreeze();
    COSKQ_CHECK(status.ok()) << status.ToString();
    refreeze_running_.store(false, std::memory_order_release);
  });
}

void IrTree::WaitForRefreeze() {
  std::lock_guard<std::mutex> launch_lock(refreeze_launch_mutex_);
  if (refreeze_thread_.joinable()) {
    refreeze_thread_.join();
  }
}

IrTree::IrTree(const Dataset* dataset, const Options& options,
               std::unique_ptr<internal_index::FrozenStore> store)
    : dataset_(dataset), options_(options), frozen_(std::move(store)) {
  COSKQ_CHECK(dataset != nullptr);
  COSKQ_CHECK(frozen_ != nullptr);
  size_ = frozen_->view.num_leaf_entries;
  next_node_id_ = frozen_->view.num_nodes;
  // leaf_sigs holds the same signature multiset obj_sigs_ would, so the
  // masked-range prune-rate estimate matches a dataset-built tree exactly.
  for (uint32_t i = 0; i < frozen_->view.num_leaf_entries; ++i) {
    obj_sig_bits_sum_ +=
        static_cast<uint64_t>(std::popcount(frozen_->view.leaf_sigs[i]));
  }
  RebuildFrozenLive();
}

ObjectId IrTree::FrozenKeywordNn(const Point& p, TermId t, double* distance,
                                 std::vector<uint32_t>* visit_log,
                                 const DeltaTree* delta) const {
  const FrozenView& v = frozen_->view;
  const KernelOps& kernels = ActiveKernels();
  struct QueueEntry {
    double distance;
    const FrozenNodeRecord* node;  // nullptr for object entries.
    ObjectId id;
    uint32_t aux = 0;  // PrefetchHint(*node); ignored by the comparator.
    bool operator>(const QueueEntry& other) const {
      return distance > other.distance;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  if (size_ > 0 &&
      TermSpanContains(v.node_terms(v.node(0)), v.node(0).term_count, t)) {
    queue.push(QueueEntry{NodeMinDist(v, 0, p), v.node_ptr(0),
                          kInvalidObjectId, PrefetchHint(v.node(0))});
  }
  double dist_buf[kScanChunk];
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (!queue.empty()) {
      // Start pulling the likely next pop while this node is processed.
      PrefetchNextPop(v, queue.top().node, queue.top().aux);
    }
    if (top.node == nullptr) {
      if (distance != nullptr) {
        *distance = top.distance;
      }
      return top.id;
    }
    const FrozenNodeRecord& node = *top.node;
    if (visit_log != nullptr) {
      visit_log->push_back(node.id);
    }
    if (node.is_leaf()) {
      const uint32_t begin = node.entry_begin;
      const uint32_t end = begin + node.entry_count;
      for (uint32_t e = begin; e < end; ++e) {
        if (delta != nullptr && delta->IsTombstoned(v.leaf_ids[e])) {
          continue;
        }
        if (TermSpanContains(v.terms + v.leaf_term_begin[e],
                             v.leaf_term_count[e], t)) {
          queue.push(QueueEntry{
              Distance(p, Point{v.leaf_x[e], v.leaf_y[e]}), nullptr,
              v.leaf_ids[e]});
        }
      }
    } else {
      const uint32_t first = node.first_child;
      const uint32_t count = node.entry_count;
      // Group-aligned chunks: each chunk is contiguous in every lane under
      // both layouts, and chunk boundaries don't affect push order (chunks
      // and survivors both ascend in slot order).
      for (uint32_t c0 = 0; c0 < count;) {
        const uint32_t n = v.span(first + c0, count - c0);
        ScanChildSquaredDistances(kernels, v, first + c0, n, p, dist_buf);
        for (uint32_t i = 0; i < n; ++i) {
          const FrozenNodeRecord& child = v.node(first + c0 + i);
          if (TermSpanContains(v.node_terms(child), child.term_count, t)) {
            queue.push(QueueEntry{std::sqrt(dist_buf[i]), &child,
                                  kInvalidObjectId, PrefetchHint(child)});
          }
        }
        c0 += n;
      }
    }
  }
  if (distance != nullptr) {
    *distance = std::numeric_limits<double>::infinity();
  }
  return kInvalidObjectId;
}

ObjectId IrTree::FrozenKeywordNnMasked(const Point& p, TermId t, int slot,
                                       double* distance,
                                       SearchScratch* scratch,
                                       const DeltaTree* delta) const {
  const FrozenView& v = frozen_->view;
  const KernelOps& kernels = ActiveKernels();
  const uint64_t bit = uint64_t{1} << slot;
  const uint64_t kw_sig = TermSignature(t);
  using internal_index::HeapEntry;
  std::vector<HeapEntry>& heap = scratch->heap();
  heap.clear();
  const auto push = [&heap](HeapEntry entry) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
  };
  std::vector<uint32_t>* visit_log = scratch->visit_log();
  // Node MINDISTs are recomputed from the SoA arrays instead of read through
  // the scratch memo: the scan produces the identical values (same inputs,
  // same arithmetic as the memo's Rect::MinDistance fill), so pruning and
  // heap order are unchanged. Object distances still go through the
  // QueryDistance memo when anchored at the query origin, exactly like the
  // pointer path (same calls, same hit/miss counters).
  const bool from_origin = p == scratch->origin();
  if (size_ > 0 && (v.node(0).sig & kw_sig) != 0 &&
      (scratch->NodeMask(v.node(0).id, v.node_terms(v.node(0)),
                         v.node(0).term_count) &
       bit) != 0) {
    push(HeapEntry{NodeMinDist(v, 0, p), v.node_ptr(0), kInvalidObjectId,
                   PrefetchHint(v.node(0))});
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    const HeapEntry top = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      // Start pulling the likely next pop while this node is processed.
      PrefetchNextPop(v, heap.front().node, heap.front().aux);
    }
    if (top.node == nullptr) {
      if (distance != nullptr) {
        *distance = top.distance;
      }
      return top.id;
    }
    const FrozenNodeRecord& node =
        *static_cast<const FrozenNodeRecord*>(top.node);
    if (visit_log != nullptr) {
      visit_log->push_back(node.id);
    }
    if (node.is_leaf()) {
      const uint32_t begin = node.entry_begin;
      const uint32_t count = node.entry_count;
      // Vectorized signature pass over the contiguous leaf_sigs stripe; the
      // survivors are exactly the entries the scalar `continue` kept, in
      // the same order, so the exact-filter loop below is unchanged.
      std::vector<uint32_t>& sidx = scratch->survivor_idx();
      if (sidx.size() < count) {
        sidx.resize(count);
      }
      const uint32_t n =
          kernels.sig_any_filter(v.leaf_sigs + begin, count, kw_sig,
                                 sidx.data());
      for (uint32_t k = 0; k < n; ++k) {
        const uint32_t e = begin + sidx[k];
        const ObjectId id = v.leaf_ids[e];
        if (delta != nullptr && delta->IsTombstoned(id)) {
          continue;
        }
        uint64_t obj_mask = 0;
        const bool contains =
            scratch->CachedObjectMask(id, &obj_mask)
                ? (obj_mask & bit) != 0
                : TermSpanContains(v.terms + v.leaf_term_begin[e],
                                   v.leaf_term_count[e], t);
        if (contains) {
          const Point location{v.leaf_x[e], v.leaf_y[e]};
          const double d = from_origin
                               ? scratch->QueryDistance(id, location)
                               : Distance(p, location);
          push(HeapEntry{d, nullptr, id});
        }
      }
    } else {
      const uint32_t first = node.first_child;
      const uint32_t count = node.entry_count;
      // Fused kernel: batched squared MINDIST + the Bloom pre-filter in one
      // pass, survivors written to the pooled scratch buffers. The fusion
      // mirrors the scalar short-circuit exactly — signature-pruned
      // children never reached NodeMask (or the term arena) before either.
      std::vector<uint32_t>& sidx = scratch->survivor_idx();
      std::vector<double>& sdist = scratch->survivor_dist();
      if (sidx.size() < count) {
        sidx.resize(count);
      }
      if (sdist.size() < count) {
        sdist.resize(count);
      }
      // Group-aligned chunks keep every kernel input contiguous under both
      // layouts; survivors still ascend in slot order across chunks.
      for (uint32_t c0 = 0; c0 < count;) {
        const uint32_t chunk = v.span(first + c0, count - c0);
        const uint32_t n = kernels.child_scan_sig(
            v.min_x_ptr(first + c0), v.min_y_ptr(first + c0),
            v.max_x_ptr(first + c0), v.max_y_ptr(first + c0),
            v.node_ptr(first + c0), chunk, p.x, p.y, kw_sig, sidx.data(),
            sdist.data());
        for (uint32_t k = 0; k < n; ++k) {
          const FrozenNodeRecord& child = v.node(first + c0 + sidx[k]);
          if ((scratch->NodeMask(child.id, v.node_terms(child),
                                 child.term_count) &
               bit) != 0) {
            push(HeapEntry{std::sqrt(sdist[k]), &child, kInvalidObjectId,
                           PrefetchHint(child)});
          }
        }
        c0 += chunk;
      }
    }
  }
  if (distance != nullptr) {
    *distance = std::numeric_limits<double>::infinity();
  }
  return kInvalidObjectId;
}

void IrTree::FrozenRangeRelevant(const Circle& circle,
                                 const TermSet& query_terms,
                                 std::vector<ObjectId>* out,
                                 std::vector<uint32_t>* visit_log,
                                 const DeltaTree* delta) const {
  if (frozen_->view.num_leaf_entries == 0) {
    return;
  }
  const FrozenView& v = frozen_->view;
  struct Searcher {
    const FrozenView& v;
    const Circle& circle;
    const TermSet& query_terms;
    const DeltaTree* delta;
    std::vector<ObjectId>* out;
    std::vector<uint32_t>* visit_log;

    void Run(uint32_t slot) {
      const FrozenNodeRecord& node = v.node(slot);
      const Rect mbr{v.min_x(slot), v.min_y(slot), v.max_x(slot),
                     v.max_y(slot)};
      if (!circle.Intersects(mbr) ||
          !TermSpanIntersects(v.node_terms(node), node.term_count,
                              query_terms)) {
        return;
      }
      if (visit_log != nullptr) {
        visit_log->push_back(node.id);
      }
      if (node.is_leaf()) {
        const uint32_t begin = node.entry_begin;
        const uint32_t end = begin + node.entry_count;
        for (uint32_t e = begin; e < end; ++e) {
          if (delta != nullptr && delta->IsTombstoned(v.leaf_ids[e])) {
            continue;
          }
          if (circle.Contains(Point{v.leaf_x[e], v.leaf_y[e]}) &&
              TermSpanIntersects(v.terms + v.leaf_term_begin[e],
                                 v.leaf_term_count[e], query_terms)) {
            out->push_back(v.leaf_ids[e]);
          }
        }
        return;
      }
      const uint32_t first = node.first_child;
      const uint32_t last = first + node.entry_count;
      for (uint32_t c = first; c < last; ++c) {
        Run(c);
      }
    }
  };
  Searcher searcher{v, circle, query_terms, delta, out, visit_log};
  searcher.Run(0);
}

void IrTree::FrozenRangeRelevantMasked(const Circle& circle,
                                       const TermSet& query_terms,
                                       uint64_t submask,
                                       std::vector<ObjectId>* out,
                                       SearchScratch* scratch,
                                       const DeltaTree* delta) const {
  if (frozen_->view.num_leaf_entries == 0) {
    return;
  }
  const FrozenView& v = frozen_->view;
  const uint64_t sub_sig = TermSetSignature(query_terms);
  struct Searcher {
    const FrozenView& v;
    const KernelOps& kernels;
    const Circle& circle;
    const TermSet& query_terms;
    uint64_t submask;
    uint64_t sub_sig;
    SearchScratch* scratch;
    const DeltaTree* delta;
    std::vector<ObjectId>* out;
    std::vector<uint32_t>* visit_log;

    void Run(uint32_t slot) {
      const FrozenNodeRecord& node = v.node(slot);
      const Rect mbr{v.min_x(slot), v.min_y(slot), v.max_x(slot),
                     v.max_y(slot)};
      // Same short-circuit order as the pointer path: geometry, signature,
      // then the cached mask when warm, else the exact early-exit merge
      // with no cache fill.
      if (!circle.Intersects(mbr) || (node.sig & sub_sig) == 0) {
        return;
      }
      uint64_t node_mask = 0;
      const bool relevant =
          scratch->CachedNodeMask(node.id, &node_mask)
              ? (node_mask & submask) != 0
              : TermSpanIntersects(v.node_terms(node), node.term_count,
                                   query_terms);
      if (!relevant) {
        return;
      }
      if (visit_log != nullptr) {
        visit_log->push_back(node.id);
      }
      if (node.is_leaf()) {
        const uint32_t begin = node.entry_begin;
        const uint32_t count = node.entry_count;
        // Vectorized signature pass first (the scalar loop tested geometry
        // first): both predicates are pure and the result is their
        // conjunction, so hoisting the signature filter keeps the output —
        // and the visit log, which records nodes only — unchanged.
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
          if (!circle.Contains(Point{v.leaf_x[e], v.leaf_y[e]})) {
            continue;
          }
          uint64_t obj_mask = 0;
          const bool obj_relevant =
              scratch->CachedObjectMask(id, &obj_mask)
                  ? (obj_mask & submask) != 0
                  : TermSpanIntersects(v.terms + v.leaf_term_begin[e],
                                       v.leaf_term_count[e], query_terms);
          if (obj_relevant) {
            out->push_back(id);
          }
        }
        return;
      }
      const uint32_t first = node.first_child;
      const uint32_t last = first + node.entry_count;
      for (uint32_t c = first; c < last; ++c) {
        Run(c);
      }
    }
  };
  Searcher searcher{v,       ActiveKernels(), circle, query_terms,
                    submask, sub_sig,         scratch, delta,
                    out,     scratch->visit_log()};
  searcher.Run(0);
}

void IrTree::CheckFrozenInvariants() const {
  COSKQ_CHECK(frozen_ != nullptr);
  const FrozenView& v = frozen_->view;
  COSKQ_CHECK_GE(v.num_nodes, 1u);

  // Pass 1: BFS structure. Child blocks of internal nodes must tile
  // [1, num_nodes) in slot order; leaf entry blocks must tile
  // [0, num_leaf_entries) in slot order; term spans are in-bounds.
  std::vector<uint32_t> depth(v.num_nodes, 0);
  std::vector<bool> id_seen(v.num_nodes, false);
  uint32_t expected_child = 1;
  uint32_t expected_leaf_entry = 0;
  int leaf_depth = -1;
  size_t object_count = 0;
  for (uint32_t slot = 0; slot < v.num_nodes; ++slot) {
    const FrozenNodeRecord& node = v.node(slot);
    COSKQ_CHECK_LT(node.id, v.num_nodes);
    COSKQ_CHECK(!id_seen[node.id]) << "duplicate preorder id";
    id_seen[node.id] = true;
    COSKQ_CHECK_LE(static_cast<int>(node.entry_count), options_.max_entries);
    if (slot != 0) {
      COSKQ_CHECK_GE(node.entry_count, 1u);
    }
    COSKQ_CHECK_LE(uint64_t{node.term_begin} + node.term_count,
                   uint64_t{v.num_terms});
    if (node.is_leaf()) {
      if (leaf_depth < 0) {
        leaf_depth = static_cast<int>(depth[slot]);
      }
      COSKQ_CHECK_EQ(leaf_depth, static_cast<int>(depth[slot]))
          << "leaves at unequal depth";
      COSKQ_CHECK_EQ(node.entry_begin, expected_leaf_entry);
      expected_leaf_entry += node.entry_count;
      object_count += node.entry_count;
    } else {
      COSKQ_CHECK_EQ(node.first_child, expected_child);
      expected_child += node.entry_count;
      COSKQ_CHECK_LE(expected_child, v.num_nodes);
      for (uint32_t c = node.first_child;
           c < node.first_child + node.entry_count; ++c) {
        depth[c] = depth[slot] + 1;
      }
    }
  }
  COSKQ_CHECK_EQ(expected_child, v.num_nodes);
  COSKQ_CHECK_EQ(expected_leaf_entry, v.num_leaf_entries);
  COSKQ_CHECK_EQ(object_count, static_cast<size_t>(v.num_leaf_entries));
  // Guard on the base count, not size_: a non-empty delta over an empty
  // frozen base leaves the recorded height 0.
  if (v.num_leaf_entries > 0) {
    COSKQ_CHECK_EQ(static_cast<int>(v.height), leaf_depth + 1);
  }

  // Pass 2 (bottom-up, slots in reverse BFS order): every node's MBR, term
  // summary, and signature must equal what its children / leaf entries
  // imply, and leaf entries must match the dataset.
  std::vector<Rect> expected_mbr(v.num_nodes);
  std::vector<TermSet> expected_terms(v.num_nodes);
  for (uint32_t i = v.num_nodes; i-- > 0;) {
    const FrozenNodeRecord& node = v.node(i);
    Rect mbr;
    TermSet terms;
    if (node.is_leaf()) {
      for (uint32_t e = node.entry_begin;
           e < node.entry_begin + node.entry_count; ++e) {
        const ObjectId id = v.leaf_ids[e];
        const SpatialObject& obj = dataset_->object(id);
        COSKQ_CHECK_EQ(v.leaf_x[e], obj.location.x);
        COSKQ_CHECK_EQ(v.leaf_y[e], obj.location.y);
        COSKQ_CHECK_EQ(v.leaf_sigs[e], TermSetSignature(obj.keywords));
        COSKQ_CHECK_EQ(static_cast<size_t>(v.leaf_term_count[e]),
                       obj.keywords.size());
        COSKQ_CHECK(std::equal(obj.keywords.begin(), obj.keywords.end(),
                               v.terms + v.leaf_term_begin[e]))
            << "leaf keyword span mismatch";
        mbr.ExpandToInclude(obj.location);
        TermSetMergeInto(&terms, obj.keywords);
      }
    } else {
      for (uint32_t c = node.first_child;
           c < node.first_child + node.entry_count; ++c) {
        mbr.ExpandToInclude(expected_mbr[c]);
        TermSetMergeInto(&terms, expected_terms[c]);
      }
    }
    COSKQ_CHECK(mbr == Rect(v.min_x(i), v.min_y(i), v.max_x(i), v.max_y(i)))
        << "frozen MBR mismatch";
    COSKQ_CHECK_EQ(terms.size(), static_cast<size_t>(node.term_count));
    COSKQ_CHECK(
        std::equal(terms.begin(), terms.end(), v.terms + node.term_begin))
        << "frozen term summary mismatch";
    COSKQ_CHECK_EQ(node.sig, TermSetSignature(terms));
    expected_mbr[i] = mbr;
    expected_terms[i] = std::move(terms);
  }

  // Cross-check against the pointer tree when both representations exist.
  if (root_ != nullptr) {
    struct Walker {
      const FrozenView& v;
      uint32_t next_leaf_entry = 0;
      void Run(const Node* node, uint32_t slot) {
        const FrozenNodeRecord& rec = v.node(slot);
        COSKQ_CHECK_EQ(rec.id, node->id);
        COSKQ_CHECK_EQ(rec.is_leaf(), node->is_leaf);
        COSKQ_CHECK_EQ(static_cast<size_t>(rec.entry_count),
                       node->EntryCount());
        if (node->is_leaf) {
          for (size_t k = 0; k < node->objects.size(); ++k) {
            COSKQ_CHECK_EQ(v.leaf_ids[rec.entry_begin + k],
                           node->objects[k]);
          }
        } else {
          for (size_t k = 0; k < node->children.size(); ++k) {
            Run(node->children[k].get(),
                rec.first_child + static_cast<uint32_t>(k));
          }
        }
      }
    };
    Walker walker{v};
    walker.Run(root_.get(), 0);
  }
}

}  // namespace coskq
