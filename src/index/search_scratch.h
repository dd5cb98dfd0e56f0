#ifndef COSKQ_INDEX_SEARCH_SCRATCH_H_
#define COSKQ_INDEX_SEARCH_SCRATCH_H_

#include <stdint.h>

#include <vector>

#include "data/object.h"
#include "data/term_set.h"
#include "geo/point.h"
#include "geo/rect.h"
#include "index/query_mask.h"

namespace coskq {

namespace internal_index {

/// Best-first queue entry pooled in SearchScratch. Field layout and
/// comparator mirror the IR-tree's internal QueueEntry exactly, so a pooled
/// std::push_heap/pop_heap loop pops entries in the same order (ties
/// included) as the baseline std::priority_queue.
struct HeapEntry {
  double distance;
  const void* node;  // nullptr for object entries.
  ObjectId id;
  /// Prefetch hint for frozen-tree entries (see kernels.h PrefetchHint):
  /// child-slot or leaf-entry base with the leaf flag in the MSB. Occupies
  /// what was tail padding, is ignored by the comparator, and carries no
  /// traversal semantics — heap order and results are unaffected.
  uint32_t aux = 0;
  bool operator>(const HeapEntry& other) const {
    return distance > other.distance;
  }
};
static_assert(sizeof(HeapEntry) == 24, "aux must fit in former padding");

/// Open-addressing memo of one query's per-id values, keyed by a 32-bit id
/// (an ObjectId or an IR-tree node id). A slot holds an epoch stamp, the
/// id, a valid bit each for the mask and the distance, and both values.
/// A slot is occupied iff its stamp equals the table's epoch, so NextEpoch()
/// empties the table in O(1); entries are never removed within a query.
///
/// Memory follows what a query touches, not the index: the capacity is a
/// power of two kept at most half full (linear probing from a Fibonacci
/// hash of the id), grows by rehashing the live entries when an insert
/// would pass half, and is kept across epochs.
class MemoTable {
 public:
  struct Slot {
    uint64_t epoch = 0;
    uint32_t id = 0;
    bool has_mask = false;
    bool has_distance = false;
    uint64_t mask = 0;
    double distance = 0.0;
  };

  /// Empties the table; capacity is kept.
  void NextEpoch() {
    ++epoch_;
    size_ = 0;
  }

  /// The live slot of `id`, or nullptr. Read-only: never inserts.
  const Slot* Find(uint32_t id) const {
    if (slots_.empty()) {
      return nullptr;
    }
    const Slot& slot = slots_[Probe(id)];
    return slot.epoch == epoch_ ? &slot : nullptr;
  }

  /// The live slot of `id`, inserted with both valid bits clear if absent.
  /// The reference stays valid until the next FindOrInsert.
  Slot& FindOrInsert(uint32_t id) {
    if (!slots_.empty()) {
      const size_t i = Probe(id);
      if (slots_[i].epoch == epoch_) {
        return slots_[i];
      }
      if (2 * (size_ + 1) <= slots_.size()) {
        return Claim(i, id);
      }
    }
    return GrowAndInsert(id);
  }

  /// Live entries this epoch.
  size_t size() const { return size_; }
  /// Slots allocated (a power of two, or 0 before the first insert).
  size_t capacity() const { return slots_.size(); }
  size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  /// Index of `id`'s live slot, or of the empty slot ending its probe run.
  /// Terminates because the table is never more than half full.
  size_t Probe(uint32_t id) const {
    const size_t wrap = slots_.size() - 1;
    size_t i = static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].epoch == epoch_ && slots_[i].id != id) {
      i = (i + 1) & wrap;
    }
    return i;
  }
  /// Occupies the empty slot `i` for `id`, with both valid bits clear.
  Slot& Claim(size_t i, uint32_t id) {
    Slot& slot = slots_[i];
    slot = Slot{};
    slot.epoch = epoch_;
    slot.id = id;
    ++size_;
    return slot;
  }
  /// Doubles the capacity (first allocation: a fixed initial size),
  /// rehashes the live entries, then inserts `id`.
  Slot& GrowAndInsert(uint32_t id);

  std::vector<Slot> slots_;
  /// 64 - log2(capacity): the hash keeps the product's top bits.
  unsigned shift_ = 64;
  uint64_t epoch_ = 1;
  size_t size_ = 0;
};
static_assert(sizeof(MemoTable::Slot) == 32, "two slots per cache line");

}  // namespace internal_index

/// Per-query search state pooled across a batch: query-keyword bitmask
/// caches for IR-tree nodes and objects, memoized query-to-object and
/// query-to-node distances, and reusable traversal buffers. (Pairwise
/// object distances are deliberately NOT memoized: a 2-D Euclidean
/// distance costs less than the table probe that would replace it.) One
/// SearchScratch belongs to exactly one solver instance (and therefore to
/// one thread under the BatchEngine's one-solver-per-worker contract); it is
/// never shared.
///
/// Lifecycle per query:
///   scratch.BeginQuery(q.λ, q.ψ);
///   ... masked traversals / cached distance lookups ...
///   scratch.FinishQuery();   // audits pooled-buffer growth
///
/// The caches are two MemoTables, one keyed by ObjectId and one by node id,
/// so a scratch's memory follows the entries its queries touch, never the
/// size of the index. They are invalidated by a per-query epoch stamp
/// instead of clearing, so BeginQuery is O(1). After the first few queries
/// of a batch every pooled buffer has reached its steady-state capacity and
/// `realloc_events()` stays 0 — the property the batch tests assert.
///
/// With `set_enabled(false)` (the A/B baseline switch) `mask_active()` is
/// false and the distance memo is bypassed: every scratch-aware overload in
/// the index and the solvers then behaves exactly like the baseline path.
class SearchScratch {
 public:
  SearchScratch() = default;

  SearchScratch(const SearchScratch&) = delete;
  SearchScratch& operator=(const SearchScratch&) = delete;

  /// Master switch; disabling reproduces the pre-mask baseline behavior.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Starts a new query: bumps the cache epoch, rebinds the keyword mask,
  /// and resets the per-query counters. Capacities are snapshotted here for
  /// the realloc audit, so memo growth during the query is visible in
  /// realloc_events().
  void BeginQuery(const Point& origin, const TermSet& keywords);

  /// Ends the query: counts pooled buffers whose capacity changed since
  /// BeginQuery into realloc_events() / total_realloc_events().
  void FinishQuery();

  const QueryTermMask& mask() const { return mask_; }

  /// True iff masked traversal applies: scratch enabled and 1..64 query
  /// keywords bound by BeginQuery.
  bool mask_active() const { return enabled_ && mask_.active(); }

  const Point& origin() const { return origin_; }

  /// Cached query-keyword mask of IR-tree node `node_id` (computed from
  /// `node_terms` on first access this query).
  uint64_t NodeMask(uint32_t node_id, const TermSet& node_terms);

  /// Span variant for the frozen IR-tree layout, where a node's term summary
  /// is an arena slice. Cache semantics and computed values are identical to
  /// the TermSet overload (same node id keys the same slot).
  uint64_t NodeMask(uint32_t node_id, const TermId* node_terms, size_t count);

  /// Cached query-keyword mask of object `id` (computed from `keywords` on
  /// first access this query).
  uint64_t ObjectMask(ObjectId id, const TermSet& keywords);

  /// Reads object `id`'s cached mask without computing it: true and sets
  /// `*mask` when the entry is warm this query. Lets traversals use the
  /// cached mask when present but fall back to a cheaper one-shot exact
  /// test (with no cache fill) when cold.
  bool CachedObjectMask(ObjectId id, uint64_t* mask) const;

  /// Same read-only lookup for node masks.
  bool CachedNodeMask(uint32_t node_id, uint64_t* mask) const;

  /// Memoized MinDistance(origin, node MBR), keyed by node id and valid for
  /// this query's epoch. The value is computed with the same
  /// Rect::MinDistance call as the baseline, so reads are bit-identical;
  /// the k per-keyword searches of one NnSet hit this cache k-1 times per
  /// shared node. Only valid for traversals anchored at origin().
  double NodeMinDistance(uint32_t node_id, const Rect& mbr);

  /// Memoized d(origin, o). `location` must be object `id`'s location; the
  /// value is computed with the same Distance() call as the baseline, so
  /// cached reads are bit-identical. Bypasses the memo when disabled.
  double QueryDistance(ObjectId id, const Point& location);

  /// Pooled best-first heap storage. Exclusively owned by one traversal at
  /// a time; traversals clear it on entry.
  std::vector<internal_index::HeapEntry>& heap() { return heap_; }

  /// Pooled object-id buffer (range-query hits etc.). Same ownership rule.
  std::vector<ObjectId>& id_buffer() { return id_buffer_; }

  /// Pooled survivor buffers the SIMD child/leaf scan kernels write into
  /// (indices relative to the scanned range, plus squared distances for
  /// child scans). Exclusively owned by one node/leaf scan at a time: every
  /// scan consumes its survivors before the traversal touches another node,
  /// so a single pair per scratch suffices.
  std::vector<uint32_t>& survivor_idx() { return survivor_idx_; }
  std::vector<double>& survivor_dist() { return survivor_dist_; }

  /// Distance-memo hits/misses of the current query (valid any time between
  /// BeginQuery calls; zero while disabled).
  uint64_t dist_cache_hits() const { return dist_hits_; }
  uint64_t dist_cache_misses() const { return dist_misses_; }

  /// Pooled buffers that changed capacity during the last
  /// BeginQuery..FinishQuery window.
  uint64_t realloc_events() const { return realloc_events_; }
  uint64_t total_realloc_events() const { return total_realloc_events_; }
  uint64_t queries_started() const { return queries_started_; }

  /// Test-only footprint probes: entries the current query put in the
  /// object and node memos, and the bytes both tables hold.
  size_t ObjectEntriesForTesting() const { return objects_.size(); }
  size_t NodeEntriesForTesting() const { return nodes_.size(); }
  size_t MemoBytesForTesting() const {
    return objects_.bytes() + nodes_.bytes();
  }

  /// Test instrumentation: when non-null, masked IR-tree traversals append
  /// the id of every node they expand. Not owned; callers manage lifetime
  /// and clearing.
  void set_visit_log(std::vector<uint32_t>* log) { visit_log_ = log; }
  std::vector<uint32_t>* visit_log() const { return visit_log_; }

 private:
  bool enabled_ = true;
  QueryTermMask mask_;
  Point origin_;

  internal_index::MemoTable objects_;
  internal_index::MemoTable nodes_;

  std::vector<internal_index::HeapEntry> heap_;
  std::vector<ObjectId> id_buffer_;
  std::vector<uint32_t> survivor_idx_;
  std::vector<double> survivor_dist_;

  uint64_t dist_hits_ = 0;
  uint64_t dist_misses_ = 0;
  uint64_t realloc_events_ = 0;
  uint64_t total_realloc_events_ = 0;
  uint64_t queries_started_ = 0;
  std::vector<size_t> capacity_snapshot_;

  std::vector<uint32_t>* visit_log_ = nullptr;
};

}  // namespace coskq

#endif  // COSKQ_INDEX_SEARCH_SCRATCH_H_
