// STR bulk load straight into the frozen body (DESIGN.md §11, §17).
//
// The build tiles bottom-up with Sort-Tile-Recursive (StrTile): the leaf
// level over object locations, each upper level over the MBR centers of the
// level below, until one node is left. Each node's MBR and sorted keyword
// union are computed once, as its level is tiled; the unions go to a
// per-level scratch arena, because where a union lands in the body depends
// on the sizes of every level. A top-down pass then numbers the nodes (BFS
// slots for storage, preorder ids for visit logs and the scratch memo) and
// writes the body slot by slot. Every value the body holds is computed from
// the tiling alone, so the body is byte-identical for any thread count.

#include <stdlib.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <mutex>
#include <span>
#include <vector>

#include "index/frozen_layout.h"
#include "index/irtree.h"
#include "index/quadratic_split.h"
#include "index/term_signature.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/scratch_array.h"

namespace coskq {

using internal_index::BodyLayout;
using internal_index::FrozenNodeRecord;
using internal_index::FrozenStore;
using internal_index::kGroupMask;
using internal_index::kGroupShift;
using internal_index::StrRecord;
using internal_index::StrTile;

namespace {

/// Smaller builds stay on the calling thread: starting threads would cost
/// more than the work.
constexpr size_t kMinParallelBuild = size_t{1} << 14;

/// Build arrays below this many bytes stay on the heap instead of in a
/// ScratchArray, so a small build makes no mmap/munmap calls. It is below
/// glibc's default mmap threshold, so such a block never changes it.
constexpr size_t kHeapArrayBytes = size_t{64} << 10;

/// A build temporary of `n` elements: heap-backed when small, else its own
/// mapping, which goes straight back to the kernel (see ScratchArray).
template <typename T>
class BuildArray {
 public:
  BuildArray() = default;
  explicit BuildArray(size_t n) {
    if (n * sizeof(T) < kHeapArrayBytes) {
      small_.resize(n);
      data_ = small_.data();
    } else {
      large_ = ScratchArray<T>(n);
      data_ = large_.data();
    }
  }
  T* data() const { return data_; }
  T& operator[](size_t i) const { return data_[i]; }

 private:
  std::vector<T> small_;
  ScratchArray<T> large_;
  T* data_ = nullptr;
};

/// Sorted, duplicate-free union of term spans, computed without
/// allocating: Add() sets one bit per member in a bitmap over the term
/// universe and one per touched word in a summary bitmap, and Drain() walks
/// only the touched words, in order, into storage the caller sized,
/// clearing them. One instance per worker thread, constructed by the thread
/// that starts them.
class TermUnion {
 public:
  explicit TermUnion(TermId universe)
      : bits_((static_cast<size_t>(universe) + 63) / 64, 0),
        touched_((bits_.size() + 63) / 64, 0) {}

  void Add(const TermId* terms, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const size_t w = terms[i] / 64;
      bits_[w] |= uint64_t{1} << (terms[i] % 64);
      touched_[w / 64] |= uint64_t{1} << (w % 64);
    }
  }

  /// Writes the union of everything added since the last call to `out`
  /// and returns its size.
  uint32_t Drain(TermId* out) {
    uint32_t n = 0;
    for (size_t t = 0; t < touched_.size(); ++t) {
      for (uint64_t words = touched_[t]; words != 0; words &= words - 1) {
        const size_t w = t * 64 + static_cast<size_t>(std::countr_zero(words));
        for (uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1) {
          out[n++] = static_cast<TermId>(
              w * 64 + static_cast<size_t>(std::countr_zero(bits)));
        }
        bits_[w] = 0;
      }
      touched_[t] = 0;
    }
    return n;
  }

 private:
  std::vector<uint64_t> bits_;
  std::vector<uint64_t> touched_;
};

/// One tiled level, its nodes in tile order.
struct Level {
  /// Node g covers entries [begin(g), ends[g]) of the level's tiled order:
  /// objects for the leaf level, nodes of the level below otherwise.
  std::vector<size_t> ends;
  /// Upper levels: the tiled order, as tile indices into the level below.
  std::vector<uint32_t> children;
  std::vector<Rect> mbrs;
  /// Node g's keyword union is terms[term_off[g], +term_count[g]). The
  /// span reserved for it, up to term_off[g + 1], holds the sum of its
  /// entries' set sizes, which for a leaf is its objects' keyword total.
  std::vector<uint64_t> term_off;
  std::vector<uint32_t> term_count;
  BuildArray<TermId> terms;
  /// Nodes in the node's subtree, and its preorder id.
  std::vector<uint32_t> subtree;
  std::vector<uint32_t> ids;

  size_t size() const { return ends.size(); }
  size_t begin(size_t g) const { return g == 0 ? 0 : ends[g - 1]; }
};

}  // namespace

int IrTree::BuildThreads(size_t entries) const {
  return entries >= kMinParallelBuild ? build_threads_ : 1;
}

void IrTree::Build(const std::vector<ObjectId>& ids) {
  COSKQ_CHECK_LE(options_.max_entries, 65535)
      << "fan-out exceeds FrozenNodeRecord::entry_count";
  COSKQ_CHECK_LE(ids.size(), size_t{std::numeric_limits<uint32_t>::max()});
  const size_t n = ids.size();
  const size_t cap = static_cast<size_t>(options_.max_entries);
  const int threads = BuildThreads(n);

  // The leaf records, weighted by keyword count, the keyword total, and
  // the term universe (one past the largest keyword id), over ranges of ids.
  BuildArray<StrRecord> records(n);
  uint64_t total_keywords = 0;
  TermId universe = 0;
  std::mutex totals_mutex;
  ParallelForRanges(n, threads, [&](int, size_t begin, size_t end) {
    uint64_t range_keywords = 0;
    TermId range_universe = 0;
    for (size_t i = begin; i < end; ++i) {
      const SpatialObject& obj = dataset_->object(ids[i]);
      records[i] = StrRecord{obj.location.x, obj.location.y, ids[i],
                             static_cast<uint32_t>(obj.keywords.size())};
      range_keywords += obj.keywords.size();
      if (!obj.keywords.empty()) {
        range_universe = std::max(range_universe, obj.keywords.back() + 1);
      }
    }
    std::lock_guard<std::mutex> lock(totals_mutex);
    total_keywords += range_keywords;
    universe = std::max(universe, range_universe);
  });
  std::vector<TermUnion> unions;
  unions.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    unions.emplace_back(universe);
  }

  // Tiles `tiled` into a new level and computes every node's MBR and term
  // union: fill_node(level, g, &mbr, &term_union) folds node g's entries
  // in. Only this thread allocates; the workers write into storage it
  // sized, one node per slot (DESIGN.md §17).
  std::vector<Level> levels;
  levels.reserve(64);
  const auto tile_level = [&](std::span<StrRecord> tiled,
                              const auto& fill_node) {
    // Upper levels are small: they run on this thread.
    const int level_threads = BuildThreads(tiled.size());
    Level level;
    level.ends = StrTile(tiled, cap, level_threads);
    const size_t nodes = level.size();
    level.term_off.assign(nodes + 1, 0);
    ParallelForRanges(nodes, level_threads, [&](int, size_t first,
                                                size_t last) {
      for (size_t g = first; g < last; ++g) {
        uint64_t bound = 0;
        for (size_t i = level.begin(g); i < level.ends[g]; ++i) {
          bound += tiled[i].weight;
        }
        level.term_off[g + 1] = bound;
      }
    });
    for (size_t g = 0; g < nodes; ++g) {
      level.term_off[g + 1] += level.term_off[g];
    }
    level.terms = BuildArray<TermId>(level.term_off[nodes]);
    level.mbrs.resize(nodes);
    level.term_count.resize(nodes);
    ParallelForRanges(
        nodes, level_threads, [&](int worker, size_t first, size_t last) {
          TermUnion& term_union = unions[static_cast<size_t>(worker)];
          for (size_t g = first; g < last; ++g) {
            Rect mbr;
            fill_node(level, g, &mbr, &term_union);
            level.mbrs[g] = mbr;
            level.term_count[g] =
                term_union.Drain(level.terms.data() + level.term_off[g]);
          }
        });
    levels.push_back(std::move(level));
  };

  if (n == 0) {
    // One empty leaf, as the root of an empty tree.
    Level empty;
    empty.ends = {0};
    empty.mbrs = {Rect()};
    empty.term_off = {0, 0};
    empty.term_count = {0};
    levels.push_back(std::move(empty));
  }
  // Leaf level: STR tiling over object locations. A leaf's objects'
  // keywords are first gathered, in entry order, into leaf_keywords at the
  // leaf's term_off (its reserved span holds exactly their total): the
  // scattered Dataset reads then overlap, and the union and the body write
  // both read the gathered copy sequentially.
  BuildArray<TermId> leaf_keywords(total_keywords);
  if (n > 0) {
    tile_level(std::span<StrRecord>(records.data(), n),
               [&](const Level& level, size_t g, Rect* mbr,
                   TermUnion* term_union) {
                 TermId* const gathered =
                     leaf_keywords.data() + level.term_off[g];
                 TermId* next = gathered;
                 for (size_t i = level.begin(g); i < level.ends[g]; ++i) {
                   const StrRecord& r = records[i];
                   mbr->ExpandToInclude(Point{r.x, r.y});
                   const TermSet& kw = dataset_->object(r.entry).keywords;
                   next = std::copy(kw.begin(), kw.end(), next);
                 }
                 term_union->Add(gathered,
                                 static_cast<size_t>(next - gathered));
               });
  }
  // Upper levels: STR tiling over child MBR centers, weighted by the
  // children's union sizes.
  while (levels.back().size() > 1) {
    const size_t below_index = levels.size() - 1;
    const size_t count = levels[below_index].size();
    BuildArray<StrRecord> up(count);
    for (size_t i = 0; i < count; ++i) {
      const Level& below = levels[below_index];
      const Point center = below.mbrs[i].Center();
      up[i] = StrRecord{center.x, center.y, static_cast<uint32_t>(i),
                        below.term_count[i]};
    }
    tile_level(std::span<StrRecord>(up.data(), count),
               [&](const Level& level, size_t g, Rect* mbr,
                   TermUnion* term_union) {
                 const Level& below = levels[below_index];
                 for (size_t i = level.begin(g); i < level.ends[g]; ++i) {
                   const uint32_t c = up[i].entry;
                   mbr->ExpandToInclude(below.mbrs[c]);
                   term_union->Add(below.terms.data() + below.term_off[c],
                                   below.term_count[c]);
                 }
               });
    std::vector<uint32_t>& children = levels.back().children;
    children.resize(count);
    for (size_t i = 0; i < count; ++i) {
      children[i] = up[i].entry;
    }
  }

  // Preorder ids: subtree sizes bottom-up, then each child's id is its
  // parent's plus one plus the sizes of its elder siblings.
  const size_t height = levels.size();
  for (size_t l = 0; l < height; ++l) {
    Level& level = levels[l];
    level.subtree.assign(level.size(), 1);
    level.ids.resize(level.size());
    if (l == 0) {
      continue;
    }
    const Level& below = levels[l - 1];
    for (size_t g = 0; g < level.size(); ++g) {
      for (size_t i = level.begin(g); i < level.ends[g]; ++i) {
        level.subtree[g] += below.subtree[level.children[i]];
      }
    }
  }
  levels.back().ids[0] = 0;
  for (size_t l = height - 1; l > 0; --l) {
    const Level& level = levels[l];
    Level& below = levels[l - 1];
    for (size_t g = 0; g < level.size(); ++g) {
      uint32_t next = level.ids[g] + 1;
      for (size_t i = level.begin(g); i < level.ends[g]; ++i) {
        below.ids[level.children[i]] = next;
        next += below.subtree[level.children[i]];
      }
    }
  }

  // BFS slots, root first: each level's nodes in the order their parents
  // list them, so every child block is a contiguous slot range. Per slot:
  // the node's tile index, its first child slot or first leaf entry, and
  // its term-arena offset (its union, then a leaf's objects' keywords).
  size_t num_nodes = 0;
  for (const Level& level : levels) {
    num_nodes += level.size();
  }
  COSKQ_CHECK_LE(num_nodes, size_t{std::numeric_limits<uint32_t>::max()});
  std::vector<uint32_t> slot_node(num_nodes);
  std::vector<uint32_t> slot_first(num_nodes, 0);
  std::vector<uint64_t> slot_terms(num_nodes + 1, 0);
  std::vector<size_t> level_base(height + 1, 0);
  size_t base = 0;
  uint32_t next_leaf_entry = 0;
  for (size_t l = height; l-- > 0;) {
    const Level& level = levels[l];
    level_base[l] = base;
    const size_t level_end = base + level.size();
    size_t next_slot = level_end;
    for (size_t s = base; s < level_end; ++s) {
      const uint32_t g = slot_node[s];
      slot_terms[s + 1] = level.term_count[g];
      if (l == 0) {
        slot_first[s] = next_leaf_entry;
        next_leaf_entry += static_cast<uint32_t>(level.ends[g] - level.begin(g));
        slot_terms[s + 1] += level.term_off[g + 1] - level.term_off[g];
      } else {
        slot_first[s] = static_cast<uint32_t>(next_slot);
        for (size_t i = level.begin(g); i < level.ends[g]; ++i) {
          slot_node[next_slot++] = level.children[i];
        }
      }
    }
    base = level_end;
  }
  for (size_t s = 0; s < num_nodes; ++s) {
    slot_terms[s + 1] += slot_terms[s];
  }
  COSKQ_CHECK_LE(slot_terms[num_nodes],
                 uint64_t{std::numeric_limits<uint32_t>::max()});
  const uint32_t num_slots = static_cast<uint32_t>(num_nodes);
  const uint32_t num_leaf_entries = static_cast<uint32_t>(n);
  const uint32_t num_terms = static_cast<uint32_t>(slot_terms[num_nodes]);

  // The body: kernel-zeroed storage (section padding and the level-grouped
  // tail group stay zero, so snapshots of the same tree are byte-for-byte
  // identical), first touched by the workers that fill disjoint slot
  // ranges of it.
  const FrozenLayout layout = options_.frozen_layout;
  const BodyLayout lay =
      BodyLayout::Make(layout, num_slots, num_leaf_entries, num_terms);
  auto store = std::make_unique<FrozenStore>();
  uint8_t* body = store->Allocate(lay.total_bytes);
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

  ParallelForRanges(num_nodes, threads, [&](int, size_t first, size_t last) {
    for (size_t s = first; s < last; ++s) {
      const uint32_t slot = static_cast<uint32_t>(s);
      size_t l = 0;
      while (l + 1 < height && level_base[l] > s) {
        ++l;
      }
      const Level& level = levels[l];
      const uint32_t g = slot_node[s];
      FrozenNodeRecord rec{};
      rec.id = level.ids[g];
      rec.term_begin = static_cast<uint32_t>(slot_terms[s]);
      rec.term_count = level.term_count[g];
      rec.entry_count =
          static_cast<uint16_t>(level.ends[g] - level.begin(g));
      const TermId* summary = level.terms.data() + level.term_off[g];
      std::copy(summary, summary + rec.term_count, terms + rec.term_begin);
      rec.sig = TermSpanSignature(summary, rec.term_count);
      const Rect& mbr = level.mbrs[g];
      *lane_at(lay.min_x_off, slot) = mbr.min_x;
      *lane_at(lay.min_y_off, slot) = mbr.min_y;
      *lane_at(lay.max_x_off, slot) = mbr.max_x;
      *lane_at(lay.max_y_off, slot) = mbr.max_y;
      if (l == 0) {
        rec.flags = 1;
        rec.entry_begin = slot_first[s];
        uint32_t e = rec.entry_begin;
        uint32_t next_term = rec.term_begin + rec.term_count;
        const TermId* kw = leaf_keywords.data() + level.term_off[g];
        for (size_t i = level.begin(g); i < level.ends[g]; ++i, ++e) {
          const StrRecord& r = records[i];
          leaf_ids[e] = r.entry;
          leaf_x[e] = r.x;
          leaf_y[e] = r.y;
          leaf_sigs[e] = TermSpanSignature(kw, r.weight);
          leaf_term_begin[e] = next_term;
          leaf_term_count[e] = r.weight;
          std::copy(kw, kw + r.weight, terms + next_term);
          next_term += r.weight;
          kw += r.weight;
        }
      } else {
        rec.first_child = slot_first[s];
      }
      *rec_at(slot) = rec;
    }
  });

  store->BindView(layout, body, num_slots, num_leaf_entries, num_terms,
                  n == 0 ? 0 : static_cast<uint32_t>(height));
  Adopt(std::move(store));
}

}  // namespace coskq
