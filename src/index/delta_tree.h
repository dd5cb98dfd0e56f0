#ifndef COSKQ_INDEX_DELTA_TREE_H_
#define COSKQ_INDEX_DELTA_TREE_H_

#include <stdint.h>

#include <vector>

#include "data/object.h"

namespace coskq {

/// The mutable overlay of a frozen IR-tree (the LSM-flavored "delta" of the
/// live-update design, DESIGN.md §13). A frozen tree absorbs Insert/Remove
/// into one of these instead of touching the flat arrays:
///
///   * `inserts`     — ids live in the delta but absent from the frozen base,
///                     sorted ascending; `insert_sigs[i]` is the Bloom term
///                     signature of `inserts[i]` (the delta-side twin of the
///                     frozen body's leaf signatures).
///   * `tombstones`  — ids live in the frozen base but logically deleted,
///                     sorted ascending.
///
/// Invariants (validated by IrTree::CheckInvariants):
///   inserts ∩ frozen_live = ∅, tombstones ⊆ frozen_live, and the logical
///   live set is (frozen_live − tombstones) ∪ inserts.
///
/// Instances are immutable once published: IrTree mutators copy-on-write a
/// new DeltaTree under its mutation lock and publish it through a
/// shared_ptr, so a query pins one consistent delta for its whole lifetime
/// with a single atomic refcount bump and no per-access synchronization.
/// The structure is deliberately a pair of sorted arrays, not a tree: deltas
/// are bounded by the refreeze threshold (a few thousand entries), where a
/// linear candidate scan + binary-search tombstone probe beats any pointer
/// structure and keeps the merged path trivially bit-stable.
class DeltaTree {
 public:
  std::vector<ObjectId> inserts;
  std::vector<uint64_t> insert_sigs;
  std::vector<ObjectId> tombstones;

  bool empty() const { return inserts.empty() && tombstones.empty(); }

  /// Number of pending mutations (what the refreeze threshold compares).
  size_t size() const { return inserts.size() + tombstones.size(); }

  /// Net change to the logical object count vs the frozen base.
  int64_t LiveDelta() const {
    return static_cast<int64_t>(inserts.size()) -
           static_cast<int64_t>(tombstones.size());
  }

  bool IsTombstoned(ObjectId id) const;
  bool IsInserted(ObjectId id) const;

  // Copy-on-write editing helpers (callers hold the IrTree mutation lock;
  // each returns false when the operation does not apply to this delta).
  /// Adds `id` (with signature `sig`) to the sorted insert set. Pre:
  /// !IsInserted(id).
  void AddInsert(ObjectId id, uint64_t sig);
  /// Removes `id` from the insert set; false if it was not inserted.
  bool EraseInsert(ObjectId id);
  /// Adds `id` to the sorted tombstone set. Pre: !IsTombstoned(id).
  void AddTombstone(ObjectId id);
  /// Removes `id` from the tombstone set; false if it was not tombstoned.
  bool EraseTombstone(ObjectId id);

  /// Aborts unless both arrays are strictly sorted and parallel-sized.
  void CheckWellFormed() const;
};

}  // namespace coskq

#endif  // COSKQ_INDEX_DELTA_TREE_H_
