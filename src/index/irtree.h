#ifndef COSKQ_INDEX_IRTREE_H_
#define COSKQ_INDEX_IRTREE_H_

#include <stdint.h>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/object.h"
#include "data/term_set.h"
#include "geo/circle.h"
#include "geo/point.h"
#include "geo/rect.h"
#include "index/delta_tree.h"
#include "index/frozen_layout.h"
#include "util/status.h"

namespace coskq {

class SearchScratch;

namespace internal_index {
class SnapshotAccess;
}  // namespace internal_index

/// Paging / residency statistics of the frozen body (DESIGN.md §14). For a
/// heap-built (non-mmap) tree only the process-wide fields are meaningful.
struct IndexMemoryStats {
  /// Layout of the frozen body ("bfs" until Freeze() ran).
  FrozenLayout layout = FrozenLayout::kBfs;
  /// True for a cold (non-populated) snapshot mapping.
  bool cold = false;
  /// Frozen body size in bytes (0 until frozen).
  uint64_t body_bytes = 0;
  /// Resident bytes of the mapped body (mincore; 0 for heap bodies). For
  /// budget-capped trees this is the last reading the budget enforcement
  /// took, refreshed on its sampling cadence; otherwise sampled on call.
  uint64_t body_resident_bytes = 0;
  /// Memory budget (0 = uncapped) and how many times the enforcement
  /// trimmed the body back under it.
  uint64_t memory_budget_bytes = 0;
  uint64_t budget_trims = 0;
  /// Process-wide counters: resident set (/proc/self/statm) and cumulative
  /// page faults (getrusage) — major faults are the disk reads cold
  /// traversals are judged by.
  uint64_t process_resident_bytes = 0;
  uint64_t major_faults = 0;
  uint64_t minor_faults = 0;
};

/// The IR-tree (Cong et al., VLDB 2009): an R-tree whose every node carries
/// a summary of the keywords present in its subtree, enabling
/// keyword-constrained spatial search — the access method all CoSKQ
/// algorithms in the paper are built on.
///
/// The classical IR-tree attaches a per-node inverted file (term → child
/// entries). This implementation stores a sorted term set per node, which
/// supports exactly the pruning decision the CoSKQ algorithms need ("can
/// this subtree contain an object with term t / with any query term?") with
/// one binary search per node visit; children are then tested via their own
/// summaries. The traversal order and pruned node sets are identical to a
/// per-node inverted file.
///
/// Supported queries:
///  * `KeywordNn(p, t)`        — nearest object containing keyword t.
///  * `NnSet(p, terms)`        — the paper's N(q): per-keyword nearest
///                               neighbors of a query location.
///  * `RangeRelevant(c, ψ)`    — all objects in a closed disk containing at
///                               least one query keyword.
///  * `RelevantStream`         — incremental best-first stream of relevant
///                               objects in ascending distance from a point.
///
/// Live updates (DESIGN.md §13): once Freeze()-d, the tree accepts
/// Insert/Remove concurrently with queries. Mutations land in a small
/// copy-on-write DeltaTree (tombstones for deletes); every query path merges
/// the frozen body with the delta it pinned at entry, and a background
/// Refreeze() periodically folds the delta into a fresh frozen body, swapped
/// in atomically while in-flight queries finish on the old view. Threading
/// contract: queries (any thread, under an implicit or explicit ReadGuard),
/// Insert/Remove (any thread, internally serialized), Refreeze[Async] (one
/// at a time) may all overlap — but a thread holding a ReadGuard must not
/// call Insert/Remove/Refreeze on the same tree (lock-order deadlock with
/// the swap).
class IrTree {
 public:
  struct Options {
    /// Maximum fan-out per node.
    int max_entries = 32;
    /// Physical layout Freeze() emits for the frozen body (and thus for
    /// snapshots saved from this tree). Refreeze() inherits it, and
    /// snapshot-loaded trees adopt the layout recorded in the file so a
    /// later refreeze preserves it. Query results are layout-independent.
    FrozenLayout frozen_layout = FrozenLayout::kBfs;
  };

  /// Builds the tree over all objects of `dataset` with STR bulk loading.
  /// The dataset must outlive the tree; objects may be appended to it while
  /// the tree is alive (Dataset concurrent-append mode), but existing
  /// objects must never change (object ids are stored, object data is
  /// re-read on use).
  IrTree(const Dataset* dataset, const Options& options);
  explicit IrTree(const Dataset* dataset) : IrTree(dataset, Options()) {}

  /// Builds the tree over the given subset of the dataset's objects
  /// (`object_ids` need not be sorted). This is how Refreeze() rebuilds the
  /// frozen body over the post-mutation live set, and how the differential
  /// harness constructs its from-scratch reference trees.
  IrTree(const Dataset* dataset, const Options& options,
         const std::vector<ObjectId>& object_ids);

  /// The subset constructor with the build's thread budget pinned. Builds
  /// that run beside serving threads (Refreeze(), the cluster router's
  /// per-query tree) pass 1, so they never take cores from them. The tree
  /// is the same for any budget.
  IrTree(const Dataset* dataset, const Options& options,
         const std::vector<ObjectId>& object_ids, int build_threads);

  ~IrTree();

  IrTree(const IrTree&) = delete;
  IrTree& operator=(const IrTree&) = delete;

  /// Makes one object of the dataset (by id) live in the index.
  ///
  /// On a Freeze()-d tree (including snapshot-loaded frozen-only trees) the
  /// insert lands in the delta overlay — the frozen body is untouched, the
  /// call is safe concurrently with queries, and a query beginning after
  /// this returns observes the object. Re-inserting a tombstoned id
  /// resurrects it; inserting an id that is already live is
  /// InvalidArgument.
  ///
  /// On a never-frozen pointer tree this is the classic dynamic R-tree
  /// insert (quadratic split), kept for the static evaluation setting; that
  /// path is single-threaded and does not check for duplicates.
  Status Insert(ObjectId id);

  /// Logically deletes one object. Requires a Freeze()-d tree (the delta
  /// layer): an id pending in the delta is dropped from it, an id live in
  /// the frozen base gains a tombstone, anything else is NotFound. Safe
  /// concurrently with queries.
  Status Remove(ObjectId id);

  /// Compacts the pointer tree into the frozen flat representation
  /// (breadth-first node records, structure-of-arrays child MBRs, a term
  /// arena, and packed leaf entries; see frozen_layout.h). All query paths
  /// then run the frozen fast path, which expands the identical node
  /// sequence and returns bit-identical results. On an already-frozen tree
  /// with pending delta mutations this folds the delta synchronously (see
  /// Refreeze); otherwise idempotent. The pointer tree is retained.
  void Freeze();

  /// Rebuilds the frozen body (and pointer tree) over the current logical
  /// live set and swaps it in atomically: the build runs outside all locks
  /// against a captured delta, in-flight queries finish on the old view,
  /// mutations that arrive during the build survive into the new (much
  /// smaller) delta, and `epoch()` advances exactly when the swap is
  /// observable. No-op when the delta is empty. Serialized against itself;
  /// safe concurrently with queries and mutations.
  Status Refreeze();

  /// Launches Refreeze() on a background thread (joining any previously
  /// finished one). At most one refreeze runs at a time; a call while one
  /// is in flight is a no-op.
  void RefreezeAsync();

  /// Blocks until no background refreeze is running.
  void WaitForRefreeze();

  /// True iff the frozen representation exists (after Freeze() or for a
  /// snapshot-loaded tree).
  bool frozen() const { return frozen_ != nullptr; }

  /// A/B switch for benchmarking: when disabled, queries use the pointer
  /// tree even if a frozen view exists. Ignored (stays on) for
  /// snapshot-loaded trees, which have no pointer tree to fall back to, and
  /// whenever the delta is non-empty (the pointer tree only covers the
  /// frozen base).
  void set_frozen_enabled(bool enabled) { frozen_enabled_ = enabled; }
  bool frozen_enabled() const { return frozen_enabled_; }

  /// Pins one consistent view of the index — the current frozen body plus
  /// the delta published at construction time — for the guard's lifetime,
  /// and holds off a concurrent Refreeze() swap. Every public query method
  /// takes one implicitly; wrap multi-query units of work (a solver run, a
  /// stream consumed incrementally) in an explicit guard to make all their
  /// sub-queries observe one index state. Re-entrant per thread; never
  /// mutate the same tree while holding one (see class comment).
  class ReadGuard {
   public:
    explicit ReadGuard(const IrTree* tree) : tree_(tree) {
      tree_->GuardAcquire();
    }
    ~ReadGuard() { tree_->GuardRelease(); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    const IrTree* tree_;
  };

  /// Nearest object containing keyword `t`; kInvalidObjectId if none.
  /// On success `*distance` is the Euclidean distance to it.
  ObjectId KeywordNn(const Point& p, TermId t, double* distance) const;

  /// As above, with every expanded node's id appended to `visit_log` (test
  /// instrumentation for the masked-vs-baseline differential suite).
  ObjectId KeywordNn(const Point& p, TermId t, double* distance,
                     std::vector<uint32_t>* visit_log) const;

  /// Masked fast path: prunes on cached per-node/per-object query-keyword
  /// bitmasks from `scratch` and runs the best-first loop on the scratch's
  /// pooled heap. Falls back to the baseline when `scratch` is null,
  /// disabled, has no active mask, or `t` is not a bound query keyword.
  /// Guaranteed to expand the identical node sequence and return the
  /// identical result as the baseline.
  ObjectId KeywordNn(const Point& p, TermId t, double* distance,
                     SearchScratch* scratch) const;

  /// The nearest-neighbor set N(p) = { NN(p, t) : t ∈ terms }. The result
  /// is deduplicated and sorted by id; ids of keywords with no matching
  /// object are skipped and reported through `missing` when non-null.
  std::vector<ObjectId> NnSet(const Point& p, const TermSet& terms,
                              TermSet* missing) const;

  /// Masked fast path of NnSet; same fallback and bit-identity guarantees
  /// as the KeywordNn overload.
  std::vector<ObjectId> NnSet(const Point& p, const TermSet& terms,
                              TermSet* missing, SearchScratch* scratch) const;

  /// Appends to `out` every object inside the closed disk whose keyword set
  /// intersects `query_terms`. With a non-empty delta, frozen-base matches
  /// come first (traversal order), then delta matches in ascending id order
  /// — the set is exact; callers treat it as unordered.
  void RangeRelevant(const Circle& circle, const TermSet& query_terms,
                     std::vector<ObjectId>* out) const;

  /// As above, logging every expanded node id (test instrumentation).
  void RangeRelevant(const Circle& circle, const TermSet& query_terms,
                     std::vector<ObjectId>* out,
                     std::vector<uint32_t>* visit_log) const;

  /// Masked fast path: requires every member of `query_terms` to be a bound
  /// query keyword (solvers also prune on single keywords or subsets of
  /// q.ψ); otherwise falls back to the baseline. Bit-identical node
  /// expansions and output.
  void RangeRelevant(const Circle& circle, const TermSet& query_terms,
                     std::vector<ObjectId>* out, SearchScratch* scratch) const;

  /// Boolean kNN query (Felipe et al., ICDE 2008): the k objects nearest to
  /// `p` whose keyword sets contain ALL of `required`, in ascending
  /// distance. Subtrees whose term summary misses any required term are
  /// pruned. Returns fewer than k pairs if fewer matching objects exist.
  /// Serves the frozen base only (not delta-aware); requires the pointer
  /// tree.
  std::vector<std::pair<ObjectId, double>> BooleanKnn(
      const Point& p, const TermSet& required, size_t k) const;

  /// Top-k ranked spatial-keyword query (Cong et al., VLDB 2009): ranks
  /// objects by score = alpha * d(p, o)/diag + (1 - alpha) * (1 - rel),
  /// where rel = |o.ψ ∩ terms| / |terms| and `diag` normalizes distances by
  /// the diagonal of the tree's MBR. Lower scores are better. Best-first
  /// with per-subtree score lower bounds (min distance + term-summary
  /// relevance upper bound). Objects sharing no term still qualify (rel 0),
  /// matching the standard formulation. Serves the frozen base only (not
  /// delta-aware); requires the pointer tree.
  std::vector<std::pair<ObjectId, double>> TopkRanked(
      const Point& p, const TermSet& terms, size_t k, double alpha) const;

  /// Incremental best-first stream of relevant objects (objects containing
  /// at least one of the query terms) in ascending distance from `origin`.
  /// The stream holds its own ReadGuard, so it keeps serving one consistent
  /// frozen+delta view even across a concurrent Refreeze() swap.
  class RelevantStream {
   public:
    RelevantStream(const IrTree* tree, const Point& origin,
                   const TermSet& query_terms);

    /// Masked variant: prunes on the scratch's cached bitmasks when the
    /// mask is active and covers `query_terms`; baseline otherwise. The
    /// stream keeps its own queue (only the mask caches are shared), so it
    /// may be interleaved with other masked traversals on the same scratch.
    RelevantStream(const IrTree* tree, const Point& origin,
                   const TermSet& query_terms, SearchScratch* scratch);
    ~RelevantStream();

    RelevantStream(const RelevantStream&) = delete;
    RelevantStream& operator=(const RelevantStream&) = delete;

    /// Next relevant object and its distance, or nullopt when exhausted.
    std::optional<std::pair<ObjectId, double>> Next();

   private:
    struct Impl;
    /// Declared before impl_: destroyed after it, so the pinned view stays
    /// valid for the Impl's whole lifetime.
    ReadGuard guard_;
    std::unique_ptr<Impl> impl_;
  };

  /// Logical live object count: frozen base − tombstones + delta inserts.
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  int Height() const;
  size_t NodeCount() const;

  /// One past the largest node id in the tree. Node ids are dense
  /// (renumbered in preorder after every structural change). SearchScratch
  /// does not use this limit: its per-node memo is a table keyed by node id
  /// and sized by the nodes a query touches. Stable while a ReadGuard is
  /// held.
  uint32_t node_id_limit() const { return next_node_id_; }

  /// Monotone counter bumped by every Refreeze() swap; a query observing
  /// epoch N runs entirely against the N-th frozen body.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Pending delta mutations (inserts + tombstones); what the server's
  /// refreeze threshold watches.
  size_t delta_size() const;

  uint64_t mutations_applied() const {
    return mutations_applied_.load(std::memory_order_relaxed);
  }
  uint64_t refreezes_completed() const {
    return refreezes_completed_.load(std::memory_order_relaxed);
  }

  /// Paging / residency statistics (see IndexMemoryStats). Cheap except for
  /// the mincore body walk on uncapped mmap-loaded trees; safe concurrently
  /// with queries.
  IndexMemoryStats MemoryStats() const;

  /// Validates structural invariants: MBR containment, term-summary
  /// soundness (node terms = union of children), uniform leaf depth, object
  /// count, and the delta-overlay invariants (sortedness, tombstones ⊆
  /// frozen base, inserts disjoint from it). Aborts on violation;
  /// test-only.
  void CheckInvariants() const;

  const Dataset& dataset() const { return *dataset_; }

 private:
  struct Node;
  friend struct RelevantStreamImplAccess;
  /// Snapshot save/load (snapshot.cc) reads the frozen store and constructs
  /// frozen-only trees through the private constructor below.
  friend class internal_index::SnapshotAccess;

  /// Constructs a frozen-only tree (no pointer tree) around a loaded
  /// snapshot store. Only reachable via LoadSnapshot.
  IrTree(const Dataset* dataset, const Options& options,
         std::unique_ptr<internal_index::FrozenStore> store);

  /// Threads a build over `entries` objects may use: build_threads_, or 1
  /// below the size where starting threads costs more than it saves.
  int BuildThreads(size_t entries) const;
  void BulkLoad(std::vector<ObjectId> ids);
  void AssignNodeIds();

  // ReadGuard plumbing (see irtree.cc for the per-thread slot table).
  void GuardAcquire() const;
  void GuardRelease() const;
  /// The delta pinned by this thread's innermost ReadGuard on this tree
  /// (null when the delta was empty at pin time). Only callable under a
  /// guard — every public query path is.
  const DeltaTree* PinnedDelta() const;

  /// Copies the published delta (or makes a fresh one) for copy-on-write
  /// editing; caller holds mutate_mutex_.
  std::shared_ptr<DeltaTree> CopyDeltaLocked() const;
  /// Publishes `delta` (null when empty) for future queries to pin.
  void PublishDelta(std::shared_ptr<const DeltaTree> delta) const;
  /// True iff `id` is live in the frozen base (ignoring tombstones).
  bool LiveInBase(ObjectId id) const {
    return id < frozen_live_.size() && frozen_live_[id] != 0;
  }
  /// Rebuilds frozen_live_ from the frozen view's packed leaf ids.
  void RebuildFrozenLive();
  /// The classic dynamic R-tree insert on the pointer tree (pre-freeze).
  Status InsertPointer(ObjectId id);

  /// True iff queries should take the frozen fast path. A frozen-only tree
  /// always does (there is no pointer tree to fall back to), and so does
  /// any query that pinned a non-empty delta (the pointer tree only covers
  /// the frozen base).
  bool UseFrozen(const DeltaTree* delta) const {
    return frozen_ != nullptr &&
           (frozen_enabled_ || root_ == nullptr || delta != nullptr);
  }

  // Frozen fast paths (irtree_frozen.cc). Each mirrors the corresponding
  // pointer-tree traversal exactly: same child visit order, same pruning
  // predicates, same heap discipline, same distance arithmetic — so results,
  // costs, and node-visit logs are bit-identical. `delta` (nullable) only
  // suppresses tombstoned leaf entries; delta-insert candidates are merged
  // by the callers in irtree.cc.
  ObjectId FrozenKeywordNn(const Point& p, TermId t, double* distance,
                           std::vector<uint32_t>* visit_log,
                           const DeltaTree* delta) const;
  ObjectId FrozenKeywordNnMasked(const Point& p, TermId t, int slot,
                                 double* distance, SearchScratch* scratch,
                                 const DeltaTree* delta) const;
  void FrozenRangeRelevant(const Circle& circle, const TermSet& query_terms,
                           std::vector<ObjectId>* out,
                           std::vector<uint32_t>* visit_log,
                           const DeltaTree* delta) const;
  void FrozenRangeRelevantMasked(const Circle& circle,
                                 const TermSet& query_terms, uint64_t submask,
                                 std::vector<ObjectId>* out,
                                 SearchScratch* scratch,
                                 const DeltaTree* delta) const;
  /// Structural validation of the frozen arrays against the dataset (used
  /// by CheckInvariants for snapshot-loaded trees, and to cross-check the
  /// frozen view against the pointer tree after Freeze()).
  void CheckFrozenInvariants() const;

  const Dataset* dataset_;
  Options options_;
  /// Thread budget of the STR bulk load and Freeze() (DESIGN.md §17):
  /// HardwareThreads() unless the constructor pinned it (1 for Refreeze()'s
  /// rebuild and the router's per-query tree). Every build is identical
  /// for any value.
  int build_threads_ = 1;
  std::unique_ptr<Node> root_;
  /// Per-object one-bit Bloom signatures (see term_signature.h), indexed by
  /// ObjectId; the O(1) definite-negative pre-filter the masked traversals
  /// apply before the exact cached-mask test. Covers the frozen base only —
  /// delta inserts carry their signatures in DeltaTree::insert_sigs.
  std::vector<uint64_t> obj_sigs_;
  /// Total set bits across the object signatures (leaf_sigs for a
  /// snapshot-loaded tree — the same multiset). The mean density feeds the
  /// masked-range prune-rate estimate in RangeRelevant: dense signatures
  /// (keyword-heavy corpora) make the Bloom pre-filter worthless, and the
  /// dispatcher then takes the plain scan instead. Frozen-base-only; the
  /// estimate ignores the (bounded-size) delta.
  uint64_t obj_sig_bits_sum_ = 0;
  /// Logical live count (atomic: mutators bump it while queries read it;
  /// queries use it only for emptiness checks and the prune-rate estimate,
  /// where momentary staleness is harmless).
  std::atomic<size_t> size_{0};
  uint32_t next_node_id_ = 0;
  /// Frozen flat representation (see frozen_layout.h); null until Freeze().
  std::unique_ptr<internal_index::FrozenStore> frozen_;
  bool frozen_enabled_ = true;
  /// Membership bitmap of the frozen base, indexed by ObjectId. Written
  /// only while holding both mutate_mutex_ and the unique swap lock (or
  /// before serving starts); read by mutators under mutate_mutex_ and by
  /// queries under their shared guard.
  std::vector<uint8_t> frozen_live_;

  // --- Live-update state (DESIGN.md §13). Lock order: refreeze_mutex_ →
  // mutate_mutex_ → swap_mutex_(unique) → delta_mutex_; readers take
  // swap_mutex_(shared) → delta_mutex_ only.
  /// Readers hold it shared for a guard's lifetime; the refreeze swap takes
  /// it unique, so a swap waits out in-flight queries and queries never see
  /// a half-swapped body.
  mutable std::shared_mutex swap_mutex_;
  /// Protects the delta_ pointer (publish/pin).
  mutable std::mutex delta_mutex_;
  /// Serializes mutators (Insert/Remove) and the refreeze swap.
  mutable std::mutex mutate_mutex_;
  /// Serializes whole Refreeze() runs.
  std::mutex refreeze_mutex_;
  /// The published delta overlay; null ⇔ empty. Queries pin it via
  /// shared_ptr under delta_mutex_; mutators replace it copy-on-write.
  mutable std::shared_ptr<const DeltaTree> delta_;

  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> mutations_applied_{0};
  std::atomic<uint64_t> refreezes_completed_{0};

  /// Background refreeze (RefreezeAsync); launch serialized by
  /// refreeze_launch_mutex_, joined by the destructor.
  std::mutex refreeze_launch_mutex_;
  std::thread refreeze_thread_;
  std::atomic<bool> refreeze_running_{false};
};

}  // namespace coskq

#endif  // COSKQ_INDEX_IRTREE_H_
