#ifndef COSKQ_INDEX_FROZEN_LAYOUT_H_
#define COSKQ_INDEX_FROZEN_LAYOUT_H_

#include <stddef.h>
#include <stdint.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "data/object.h"
#include "data/term_set.h"

namespace coskq {

/// Physical placement of the frozen body's node region (DESIGN.md §14).
/// Both layouts keep the same BFS *slot numbering* — slot k means the same
/// node either way, children stay a contiguous slot range, and every
/// traversal visits identical nodes in identical order — they differ only in
/// where slot k's bytes live:
///
///  * kBfs: the snapshot-v1 byte layout. Five flat sections (records, then
///    the four MBR lanes), each a plain array indexed by slot.
///  * kLevelGrouped: slots are tiled into groups of 64; each group is one
///    4096-byte page holding its 64 records AND their four MBR lanes.
///    A parent's child block (fan-out <= 64 after a level-grouped freeze
///    touches at most 2 groups) is then 1-2 page faults on a cold mapping
///    instead of 5 (records + 4 scattered MBR sections).
///
/// The layout id is carried in the snapshot header (v2+); v1 snapshots are
/// implicitly kBfs.
enum class FrozenLayout : uint32_t {
  kBfs = 0,
  kLevelGrouped = 1,
};

/// "bfs" / "level-grouped".
const char* FrozenLayoutName(FrozenLayout layout);

/// Parses FrozenLayoutName output (also accepts "lg"). Returns false and
/// leaves *out untouched on an unknown name.
bool FrozenLayoutFromName(const std::string& name, FrozenLayout* out);

namespace internal_index {

/// One node of the frozen (flat) IR-tree. Nodes are numbered in
/// breadth-first "slot" order (root = slot 0), so the children of any node
/// occupy a contiguous slot range and the per-child MINDIST scan reads
/// contiguous stretches of the structure-of-arrays MBR lanes.
///
/// The record is a fixed 32-byte POD written verbatim (little-endian) into
/// index snapshots, so its layout is part of the snapshot format: any field
/// change requires a snapshot version bump (see snapshot.h).
struct FrozenNodeRecord {
  /// Dense preorder id. Visit logs and the per-node caches of SearchScratch
  /// are keyed by this id, not by the storage order (BFS slots), so both
  /// body layouts, and the traversals' recorded goldens, agree on them.
  uint32_t id;
  /// Internal nodes: slot of the first child; children occupy
  /// [first_child, first_child + entry_count). Unused (0) for leaves.
  uint32_t first_child;
  /// Leaves: index of the first entry in the leaf-entry arrays; entries
  /// occupy [entry_begin, entry_begin + entry_count). Unused (0) otherwise.
  uint32_t entry_begin;
  /// Number of children (internal) or leaf entries (leaf).
  uint16_t entry_count;
  /// Bit 0: leaf. Remaining bits reserved (zero).
  uint16_t flags;
  /// Term-summary span [term_begin, term_begin + term_count) in the arena:
  /// the node's sorted keyword-union summary.
  uint32_t term_begin;
  uint32_t term_count;
  /// One-bit Bloom signature of the term summary (see term_signature.h).
  uint64_t sig;

  bool is_leaf() const { return (flags & 1u) != 0; }
};

static_assert(sizeof(FrozenNodeRecord) == 32,
              "FrozenNodeRecord is part of the snapshot format");
static_assert(std::is_trivially_copyable<FrozenNodeRecord>::value,
              "FrozenNodeRecord must be memcpy-safe");

/// Node-region tiling: 64 slots per group. One level-grouped group is
/// 64 records (2048 B) + 4 MBR lanes of 64 doubles (512 B each) = exactly
/// 4096 B — one page on every platform we target.
inline constexpr uint32_t kGroupShift = 6;
inline constexpr uint32_t kGroupSlots = 1u << kGroupShift;  // 64
inline constexpr uint32_t kGroupMask = kGroupSlots - 1;
inline constexpr size_t kGroupBytes =
    kGroupSlots * sizeof(FrozenNodeRecord) + 4 * kGroupSlots * sizeof(double);
static_assert(kGroupBytes == 4096, "one level-grouped group is one page");

/// Byte offsets of every section inside a frozen body, for either layout.
/// The node region (records + MBR lanes) is addressed through per-lane
/// (offset, stride) descriptors with the single formula
///
///   addr = body + lane_off + (slot >> kGroupShift) * stride
///               + (slot & kGroupMask) * element_size
///
/// kBfs is the degenerate case (each lane its own flat section; stride =
/// bytes of 64 elements), kLevelGrouped the paged case (all lanes share
/// stride kGroupBytes and interleave within each group). The term arena and
/// the leaf-entry arrays are flat contiguous sections in both layouts.
struct BodyLayout {
  FrozenLayout layout = FrozenLayout::kBfs;

  // Node region: [0, node_region_bytes).
  size_t node_region_bytes = 0;
  size_t rec_off = 0;
  size_t rec_stride = 0;
  size_t min_x_off = 0;
  size_t min_y_off = 0;
  size_t max_x_off = 0;
  size_t max_y_off = 0;
  size_t mbr_stride = 0;  // shared by the four MBR lanes

  // Flat tail sections (each 8-byte aligned).
  size_t terms_off = 0;
  size_t leaf_ids_off = 0;
  size_t leaf_x_off = 0;
  size_t leaf_y_off = 0;
  size_t leaf_sigs_off = 0;
  size_t leaf_term_begin_off = 0;
  size_t leaf_term_count_off = 0;

  size_t total_bytes = 0;

  static BodyLayout Make(FrozenLayout layout, uint32_t num_nodes,
                         uint32_t num_leaf_entries, uint32_t num_terms);
};

/// The frozen IR-tree: every array the flat traversals touch, resolved
/// against one contiguous 8-byte-aligned body buffer laid out exactly like
/// the body of an index snapshot (see snapshot.cc), so saving is a single
/// write and loading can point straight into an mmap.
///
/// Node records and their MBR lanes are reached through the inline slot
/// accessors below (layout-dependent placement); the term arena and the
/// leaf-entry arrays stay plain flat pointers:
///  * terms[...]                      — term arena: node summaries and leaf
///    objects' keyword sets as sorted spans.
///  * leaf_ids/leaf_x/leaf_y/leaf_sigs/leaf_term_begin/leaf_term_count[i]
///    — leaf entries packed in traversal order: object id, location,
///    Bloom signature, and keyword span, so a leaf scan never touches the
///    Dataset.
struct FrozenView {
  /// Start of the body buffer (node region is at offset 0).
  const uint8_t* body = nullptr;

  // Node-region lane descriptors (see BodyLayout).
  size_t rec_off = 0;
  size_t rec_stride = 0;
  size_t min_x_off = 0;
  size_t min_y_off = 0;
  size_t max_x_off = 0;
  size_t max_y_off = 0;
  size_t mbr_stride = 0;

  const TermId* terms = nullptr;
  const ObjectId* leaf_ids = nullptr;
  const double* leaf_x = nullptr;
  const double* leaf_y = nullptr;
  const uint64_t* leaf_sigs = nullptr;
  const uint32_t* leaf_term_begin = nullptr;
  const uint32_t* leaf_term_count = nullptr;

  uint32_t num_nodes = 0;
  uint32_t num_leaf_entries = 0;
  uint32_t num_terms = 0;
  uint32_t height = 0;

  FrozenLayout layout = FrozenLayout::kBfs;
  /// True when the body is a cold (non-populated) mapping; traversals swap
  /// the blind cache-line prefetch for page-granular madvise hints.
  bool cold = false;

  /// Pointer to slot's record; *contiguous* only for span(slot, n) records.
  const FrozenNodeRecord* node_ptr(uint32_t slot) const {
    return reinterpret_cast<const FrozenNodeRecord*>(
        body + rec_off +
        static_cast<size_t>(slot >> kGroupShift) * rec_stride +
        static_cast<size_t>(slot & kGroupMask) * sizeof(FrozenNodeRecord));
  }
  const FrozenNodeRecord& node(uint32_t slot) const { return *node_ptr(slot); }

  const double* min_x_ptr(uint32_t slot) const { return lane(min_x_off, slot); }
  const double* min_y_ptr(uint32_t slot) const { return lane(min_y_off, slot); }
  const double* max_x_ptr(uint32_t slot) const { return lane(max_x_off, slot); }
  const double* max_y_ptr(uint32_t slot) const { return lane(max_y_off, slot); }
  double min_x(uint32_t slot) const { return *min_x_ptr(slot); }
  double min_y(uint32_t slot) const { return *min_y_ptr(slot); }
  double max_x(uint32_t slot) const { return *max_x_ptr(slot); }
  double max_y(uint32_t slot) const { return *max_y_ptr(slot); }

  /// How many slots starting at `slot` (capped at `remaining`) are
  /// guaranteed contiguous in every node lane: the rest of slot's group.
  /// Chunking scans by span() makes kernel calls layout-agnostic.
  uint32_t span(uint32_t slot, uint32_t remaining) const {
    const uint32_t in_group = kGroupSlots - (slot & kGroupMask);
    return remaining < in_group ? remaining : in_group;
  }

  const TermId* node_terms(const FrozenNodeRecord& n) const {
    return terms + n.term_begin;
  }

 private:
  const double* lane(size_t lane_off, uint32_t slot) const {
    return reinterpret_cast<const double*>(
        body + lane_off +
        static_cast<size_t>(slot >> kGroupShift) * mbr_stride +
        static_cast<size_t>(slot & kGroupMask) * sizeof(double));
  }
};

/// Owns the storage behind a FrozenView: either a heap buffer (written by
/// the IR-tree build or by a read-based snapshot load) or an mmap of a
/// snapshot file. Exactly one of the two is active.
struct FrozenStore {
  FrozenStore() = default;
  ~FrozenStore();

  FrozenStore(const FrozenStore&) = delete;
  FrozenStore& operator=(const FrozenStore&) = delete;

  FrozenView view;

  /// Allocates the zero-filled heap body `owned` (8-byte aligned) and
  /// returns it. calloc hands a large body out as fresh kernel-zeroed
  /// pages, so nothing is zero-filled twice.
  uint8_t* Allocate(size_t bytes);

  struct FreeDeleter {
    void operator()(uint8_t* p) const;
  };
  /// Heap-owned body buffer (layout identical to the snapshot body).
  std::unique_ptr<uint8_t[], FreeDeleter> owned;

  /// When loaded via mmap: base and length of the whole mapped file (the
  /// body starts at the snapshot header region size). Unmapped on
  /// destruction.
  void* mapped = nullptr;
  size_t mapped_size = 0;

  /// Start and length of the body inside `owned` or `mapped`. SaveSnapshot
  /// writes exactly these bytes.
  const uint8_t* body = nullptr;
  size_t body_bytes = 0;

  FrozenLayout layout = FrozenLayout::kBfs;

  /// Out-of-core mode (cold mmap loads only): when memory_budget_bytes is
  /// non-zero, readers periodically sample the body's resident pages via
  /// mincore and madvise(MADV_DONTNEED) the non-node tail back to the
  /// kernel whenever residency exceeds the budget. Purely advisory — the
  /// mapping is read-only and file-backed, so dropped pages refault from
  /// the snapshot; results never change, only paging behavior.
  uint64_t memory_budget_bytes = 0;
  std::atomic<uint64_t> budget_trims{0};
  std::atomic<uint64_t> budget_resident_bytes{0};

  /// Cheap call sites invoke this on every read-guard acquire; it samples
  /// residency only every kBudgetCheckPeriod-th call and lets one thread at
  /// a time do the trim.
  void MaybeEnforceBudget();

  /// Body size in bytes for the given layout and array counts.
  static size_t BodyBytes(FrozenLayout layout, uint32_t num_nodes,
                          uint32_t num_leaf_entries, uint32_t num_terms);

  /// Points `view` at the arrays inside `body_bytes_ptr` (which must hold
  /// BodyBytes bytes, 8-byte aligned), records the counts, and remembers
  /// the body extent for SaveSnapshot.
  void BindView(FrozenLayout layout, const uint8_t* body_bytes_ptr,
                uint32_t num_nodes, uint32_t num_leaf_entries,
                uint32_t num_terms, uint32_t height);

 private:
  std::atomic<uint32_t> budget_ticker_{0};
  std::mutex trim_mutex_;
};

}  // namespace internal_index
}  // namespace coskq

#endif  // COSKQ_INDEX_FROZEN_LAYOUT_H_
