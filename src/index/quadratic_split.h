#ifndef COSKQ_INDEX_QUADRATIC_SPLIT_H_
#define COSKQ_INDEX_QUADRATIC_SPLIT_H_

// Internal header shared by the R-tree and IR-tree implementations.

#include <stddef.h>
#include <stdint.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace coskq {
namespace internal_index {

inline double RectEnlargement(const Rect& rect, const Rect& addition) {
  return Rect::Union(rect, addition).Area() - rect.Area();
}

/// Guttman's quadratic node split over abstract entries. `get_rect` maps an
/// entry to its bounding rectangle. Produces two groups, each with at least
/// `min_entries` entries.
template <typename Entry, typename GetRect>
void QuadraticSplit(std::vector<Entry> all, int min_entries,
                    std::vector<Entry>* group_a, std::vector<Entry>* group_b,
                    const GetRect& get_rect) {
  const size_t n = all.size();
  COSKQ_CHECK_GE(static_cast<int>(n), 2 * min_entries);

  // PickSeeds: the pair wasting the most area if grouped together.
  size_t seed_a = 0;
  size_t seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const Rect ri = get_rect(all[i]);
      const Rect rj = get_rect(all[j]);
      const double waste = Rect::Union(ri, rj).Area() - ri.Area() - rj.Area();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  group_a->clear();
  group_b->clear();
  Rect mbr_a = get_rect(all[seed_a]);
  Rect mbr_b = get_rect(all[seed_b]);
  group_a->push_back(std::move(all[seed_a]));
  group_b->push_back(std::move(all[seed_b]));

  std::vector<Entry> rest;
  rest.reserve(n - 2);
  for (size_t i = 0; i < n; ++i) {
    if (i != seed_a && i != seed_b) {
      rest.push_back(std::move(all[i]));
    }
  }

  while (!rest.empty()) {
    const size_t remaining = rest.size();
    // Force-assign when one group must take everything left to reach the
    // minimum fill.
    if (group_a->size() + remaining == static_cast<size_t>(min_entries)) {
      for (Entry& e : rest) {
        mbr_a.ExpandToInclude(get_rect(e));
        group_a->push_back(std::move(e));
      }
      break;
    }
    if (group_b->size() + remaining == static_cast<size_t>(min_entries)) {
      for (Entry& e : rest) {
        mbr_b.ExpandToInclude(get_rect(e));
        group_b->push_back(std::move(e));
      }
      break;
    }
    // PickNext: the entry with the strongest preference for one group.
    size_t best_index = 0;
    double best_preference = -1.0;
    double best_da = 0.0;
    double best_db = 0.0;
    for (size_t i = 0; i < rest.size(); ++i) {
      const Rect r = get_rect(rest[i]);
      const double da = RectEnlargement(mbr_a, r);
      const double db = RectEnlargement(mbr_b, r);
      const double preference = std::abs(da - db);
      if (preference > best_preference) {
        best_preference = preference;
        best_index = i;
        best_da = da;
        best_db = db;
      }
    }
    Entry chosen = std::move(rest[best_index]);
    rest.erase(rest.begin() + static_cast<ptrdiff_t>(best_index));
    const Rect r = get_rect(chosen);
    bool to_a;
    if (best_da != best_db) {
      to_a = best_da < best_db;
    } else if (mbr_a.Area() != mbr_b.Area()) {
      to_a = mbr_a.Area() < mbr_b.Area();
    } else {
      to_a = group_a->size() <= group_b->size();
    }
    if (to_a) {
      mbr_a.ExpandToInclude(r);
      group_a->push_back(std::move(chosen));
    } else {
      mbr_b.ExpandToInclude(r);
      group_b->push_back(std::move(chosen));
    }
  }
}

/// One Sort-Tile-Recursive sort record: an entry's center, read once, and
/// the entry's index.
struct StrRecord {
  double x;
  double y;
  uint32_t entry;
};

/// Sort-Tile-Recursive grouping: sorts `records` by x, cuts them into
/// ceil(sqrt(groups)) vertical slabs, sorts each slab by y, and returns the
/// end offsets of the consecutive groups of at most `cap` records, in tile
/// order. Used by the IR-tree bulk load.
///
/// Sorting contiguous keyed records makes std::sort see exactly the
/// comparison outcomes it saw when it sorted entry ids through a key
/// lookup, so it produces the same permutation, without a cache miss per
/// comparison. The slab sorts touch disjoint ranges and run on up to
/// `threads` threads; the result does not depend on the thread count.
inline std::vector<size_t> StrTile(std::span<StrRecord> records, size_t cap,
                                   int threads) {
  COSKQ_CHECK_GT(cap, 0u);
  std::vector<size_t> group_ends;
  const size_t n = records.size();
  if (n == 0) {
    return group_ends;
  }
  const size_t group_count = (n + cap - 1) / cap;
  const size_t slab_count = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(group_count))));
  const size_t slab_size = (n + slab_count - 1) / slab_count;

  std::sort(records.begin(), records.end(),
            [](const StrRecord& a, const StrRecord& b) { return a.x < b.x; });
  ParallelFor((n + slab_size - 1) / slab_size, threads, [&](size_t slab) {
    const size_t begin = slab * slab_size;
    const size_t end = std::min(n, begin + slab_size);
    std::sort(records.begin() + static_cast<ptrdiff_t>(begin),
              records.begin() + static_cast<ptrdiff_t>(end),
              [](const StrRecord& a, const StrRecord& b) { return a.y < b.y; });
  });
  for (size_t slab_begin = 0; slab_begin < n; slab_begin += slab_size) {
    const size_t slab_end = std::min(n, slab_begin + slab_size);
    for (size_t begin = slab_begin; begin < slab_end; begin += cap) {
      group_ends.push_back(std::min(slab_end, begin + cap));
    }
  }
  return group_ends;
}

}  // namespace internal_index
}  // namespace coskq

#endif  // COSKQ_INDEX_QUADRATIC_SPLIT_H_
