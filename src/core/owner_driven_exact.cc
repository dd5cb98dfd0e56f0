#include "core/owner_driven_exact.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/candidates.h"
#include "core/nn_set.h"
#include "core/owner_driven_appro.h"
#include "index/rtree.h"
#include "util/logging.h"
#include "util/timer.h"

namespace coskq {

namespace {

// Absolute slack applied to the triangle-inequality lower bound d_LB, the
// one bound whose derivation mixes independently rounded distances. All
// other bounds compare identically computed quantities and need no slack.
double TriangleSlack(double scale) { return 1e-9 * (scale + 1.0); }

// A candidate pairwise-owner pair (indices into the candidate array).
struct PairCand {
  uint32_t i;
  uint32_t j;
  double d_ij;
  double cost_lb;
};

// findBestFeasibleSet (the per-owner-triplet subroutine): the best feasible
// set containing the owner triplet plus extras drawn from a prefix of the
// pair's lens members, beating *cur_cost. One finder lives per solver and
// is rebound per query (BeginQuery) and per pair (BeginPair), so its
// per-keyword lists and cost tracker keep their capacity across the batch.
//
// Two interchangeable search modes: the baseline walks sorted TermSets; the
// masked mode (active query bitmask covering all keywords) tracks uncovered
// keywords as a uint64. Bit k of every mask is the k-th query keyword in
// sorted order and set bits are consumed in ascending order, so branch
// selection — "uncovered keyword with the fewest in-prefix candidates",
// first minimum winning — is identical in both modes.
class BestSetFinder {
 public:
  BestSetFinder(const Dataset& dataset, CostType type)
      : dataset_(dataset), tracker_(&dataset, Point{}, type) {}

  void BeginQuery(const CoskqQuery& query, SearchScratch* scratch,
                  std::vector<ObjectId>* cur_set, double* cur_cost,
                  SolveStats* stats) {
    query_ = &query;
    scratch_ = scratch;
    masked_ = scratch != nullptr && scratch->mask_active() &&
              scratch->mask().num_keywords() == query.keywords.size();
    cur_set_ = cur_set;
    cur_cost_ = cur_cost;
    stats_ = stats;
    tracker_.Reset(query.location, scratch);
    if (lists_.size() < query.keywords.size()) {
      lists_.resize(query.keywords.size());
    }
  }

  // Per-query-keyword candidate lists over the lens, in lens (distance
  // from q) order. `lens_mask` parallels `lens` in masked mode (unused
  // otherwise).
  void BeginPair(const std::vector<Candidate>& lens,
                 const std::vector<uint64_t>& lens_mask) {
    lens_ = &lens;
    lens_mask_ = &lens_mask;
    const size_t num_kw = query_->keywords.size();
    for (size_t k = 0; k < num_kw; ++k) {
      lists_[k].clear();
    }
    if (masked_) {
      for (uint32_t i = 0; i < lens.size(); ++i) {
        uint64_t m = lens_mask[i];
        while (m != 0) {
          const int k = std::countr_zero(m);
          m &= m - 1;
          lists_[static_cast<size_t>(k)].push_back(i);
        }
      }
    } else {
      for (uint32_t i = 0; i < lens.size(); ++i) {
        const TermSet& kw = dataset_.object(lens[i].id).keywords;
        for (size_t k = 0; k < num_kw; ++k) {
          if (TermSetContains(kw, query_->keywords[k])) {
            lists_[k].push_back(i);
          }
        }
      }
    }
  }

  // `base` is the (deduplicated) owner triplet; extras come from
  // lens[0, prefix_end).
  void Run(const std::vector<ObjectId>& base, uint32_t prefix_end) {
    prefix_end_ = prefix_end;
    if (masked_) {
      uint64_t covered = 0;
      for (ObjectId id : base) {
        tracker_.Push(id);
        covered |= scratch_->ObjectMask(id, dataset_.object(id).keywords);
      }
      DfsMask(scratch_->mask().full_mask() & ~covered);
    } else {
      TermSet covered;
      for (ObjectId id : base) {
        tracker_.Push(id);
        TermSetMergeInto(&covered, dataset_.object(id).keywords);
      }
      Dfs(TermSetDifference(query_->keywords, covered));
    }
    for (size_t i = 0; i < base.size(); ++i) {
      tracker_.Pop();
    }
  }

 private:
  // Index into lists_ for a (query) keyword.
  size_t KeywordSlot(TermId t) const {
    const auto it = std::lower_bound(query_->keywords.begin(),
                                     query_->keywords.end(), t);
    COSKQ_DCHECK(it != query_->keywords.end() && *it == t);
    return static_cast<size_t>(it - query_->keywords.begin());
  }

  size_t PrefixCount(const std::vector<uint32_t>& list) const {
    return static_cast<size_t>(
        std::lower_bound(list.begin(), list.end(), prefix_end_) -
        list.begin());
  }

  void Dfs(const TermSet& uncovered) {
    if (tracker_.cost() >= *cur_cost_) {
      return;  // Cost is monotone under Push: no superset can be better.
    }
    if (uncovered.empty()) {
      ++stats_->sets_evaluated;
      *cur_cost_ = tracker_.cost();
      *cur_set_ = tracker_.ids();
      return;
    }
    // Branch on the uncovered keyword with the fewest candidates (counted
    // within the active prefix).
    size_t best_slot = query_->keywords.size();
    size_t best_count = 0;
    for (TermId t : uncovered) {
      const size_t slot = KeywordSlot(t);
      const size_t count = PrefixCount(lists_[slot]);
      if (count == 0) {
        return;  // Uncoverable within the region.
      }
      if (best_slot == query_->keywords.size() || count < best_count) {
        best_slot = slot;
        best_count = count;
      }
    }
    for (uint32_t index : lists_[best_slot]) {
      if (index >= prefix_end_) {
        break;  // Lists ascend in lens position.
      }
      const ObjectId id = (*lens_)[index].id;
      if (tracker_.Contains(id)) {
        continue;  // Already chosen (would not cover the branch keyword).
      }
      tracker_.Push(id);
      Dfs(TermSetDifference(uncovered, dataset_.object(id).keywords));
      tracker_.Pop();
    }
  }

  void DfsMask(uint64_t uncovered) {
    if (tracker_.cost() >= *cur_cost_) {
      return;
    }
    if (uncovered == 0) {
      ++stats_->sets_evaluated;
      *cur_cost_ = tracker_.cost();
      *cur_set_ = tracker_.ids();
      return;
    }
    const size_t num_kw = query_->keywords.size();
    size_t best_slot = num_kw;
    size_t best_count = 0;
    for (uint64_t m = uncovered; m != 0; m &= m - 1) {
      const size_t slot = static_cast<size_t>(std::countr_zero(m));
      const size_t count = PrefixCount(lists_[slot]);
      if (count == 0) {
        return;
      }
      if (best_slot == num_kw || count < best_count) {
        best_slot = slot;
        best_count = count;
      }
    }
    for (uint32_t index : lists_[best_slot]) {
      if (index >= prefix_end_) {
        break;
      }
      const ObjectId id = (*lens_)[index].id;
      if (tracker_.Contains(id)) {
        continue;
      }
      tracker_.Push(id);
      DfsMask(uncovered & ~(*lens_mask_)[index]);
      tracker_.Pop();
    }
  }

  const Dataset& dataset_;
  const CoskqQuery* query_ = nullptr;
  SearchScratch* scratch_ = nullptr;
  bool masked_ = false;
  const std::vector<Candidate>* lens_ = nullptr;
  const std::vector<uint64_t>* lens_mask_ = nullptr;
  std::vector<ObjectId>* cur_set_ = nullptr;
  double* cur_cost_ = nullptr;
  SolveStats* stats_ = nullptr;
  uint32_t prefix_end_ = 0;
  SetCostTracker tracker_;
  std::vector<std::vector<uint32_t>> lists_;  // Per query keyword.
};

}  // namespace

// Enumeration buffers pooled across Solve calls (zero steady-state
// allocations once every buffer has reached its high-water capacity).
struct OwnerDrivenExact::Workspace {
  Workspace(const Dataset& dataset, CostType type) : finder(dataset, type) {}

  std::vector<Candidate> cands;
  std::vector<uint64_t> kw_mask;
  std::vector<std::vector<uint32_t>> kw_lists;
  std::vector<size_t> rare_slots;
  std::vector<PairCand> pairs;
  std::vector<ObjectId> hits;
  std::vector<ObjectId> lens_ids;
  std::vector<Candidate> lens;
  std::vector<uint64_t> lens_mask;
  std::vector<ObjectId> base;
  BestSetFinder finder;
};

OwnerDrivenExact::OwnerDrivenExact(const CoskqContext& context, CostType type,
                                   const Options& options)
    : CoskqSolver(context),
      type_(type),
      options_(options),
      ws_(std::make_unique<Workspace>(*context.dataset, type)) {
  scratch_.set_enabled(options_.use_query_masks);
  if (options_.seed_with_appro) {
    OwnerDrivenAppro::Options appro_options;
    appro_options.use_query_masks = options_.use_query_masks;
    seeder_ =
        std::make_unique<OwnerDrivenAppro>(context, type, appro_options);
  }
}

OwnerDrivenExact::~OwnerDrivenExact() = default;

std::string OwnerDrivenExact::name() const {
  std::string result(CostTypeName(type_));
  result += "-Exact";
  if (!options_.use_pair_distance_bounds || !options_.use_cost_lb_ordering ||
      !options_.use_owner_ring_bounds) {
    result += "[-";
    if (!options_.use_pair_distance_bounds) result += "d";
    if (!options_.use_cost_lb_ordering) result += "o";
    if (!options_.use_owner_ring_bounds) result += "r";
    result += "]";
  }
  return result;
}

CoskqResult OwnerDrivenExact::Solve(const CoskqQuery& query) {
  WallTimer timer;
  SolveStats stats;
  scratch_.BeginQuery(query.location, query.keywords);
  const auto finalize = [&](CoskqResult result) {
    scratch_.FinishQuery();
    result.stats.dist_cache_hits = scratch_.dist_cache_hits();
    result.stats.dist_cache_misses = scratch_.dist_cache_misses();
    result.stats.scratch_reallocs = scratch_.realloc_events();
    result.stats.elapsed_ms = timer.ElapsedMillis();
    return result;
  };
  if (query.keywords.empty()) {
    return finalize(MakeResult(query, {}, stats));
  }

  const NnSetInfo nn = ComputeNnSet(context_, query, &scratch_);
  if (!nn.feasible) {
    return finalize(Infeasible(stats));
  }
  std::vector<ObjectId> cur_set = nn.set;
  double cur_cost =
      EvaluateCost(type_, dataset(), query.location, cur_set, &scratch_);
  const double d_f = nn.max_dist;
  // The deadline is checked before each seeder anchor, each step-1 circle
  // search and each step-2 pair. Once it has passed, expired() sets
  // stats.truncated and the incumbent is returned.
  const auto expired = [&] {
    if (options_.deadline_ms > 0.0 &&
        timer.ElapsedMillis() > options_.deadline_ms) {
      stats.truncated = true;
    }
    return stats.truncated;
  };

  // Optional incumbent seeding: the approximate answer is feasible and
  // usually near-optimal, which tightens every bound below before the
  // expensive enumeration starts (exactness is unaffected).
  if (seeder_ != nullptr) {
    CoskqResult seeded = seeder_->Solve(query, timer, options_.deadline_ms);
    if (seeded.feasible && seeded.cost < cur_cost) {
      cur_cost = seeded.cost;
      cur_set = std::move(seeded.set);
    }
    if (seeded.stats.truncated) {
      stats.truncated = true;
      return finalize(MakeResult(query, std::move(cur_set), stats));
    }
  }

  // Step 0: every member of a better-than-incumbent set lies within
  // C(q, curCost); fetch those relevant objects once (tiny relative slack
  // guards the squared-distance boundary test) and spatially index them for
  // the radius-bounded pair and lens retrievals below.
  RelevantCandidatesInDisk(context_, query, cur_cost * (1.0 + 1e-12),
                           &scratch_, &ws_->cands);
  const std::vector<Candidate>& cands = ws_->cands;
  stats.candidates = cands.size();

  RTree cand_tree;
  {
    std::vector<RTree::Item> items;
    items.reserve(cands.size());
    for (uint32_t i = 0; i < cands.size(); ++i) {
      items.push_back(RTree::Item{i, cands[i].location});
    }
    cand_tree.BulkLoad(std::move(items));
  }
  const double radius_slack = 1e-9 * (cur_cost + 1.0);

  // Per-candidate coverage bitmasks over (the first 64 of) the query
  // keywords: every member of a set with pairwise owners (o_i, o_j) lies in
  // their lens, so a pair whose lens does not cover the query keywords can
  // be skipped before any per-pair work. With more than 64 query keywords
  // the check degrades to a (still valid) necessary condition on the first
  // 64. In masked mode the per-object masks come from the scratch cache.
  const size_t num_kw = query.keywords.size();
  const bool masked = scratch_.mask_active();
  const size_t mask_bits = std::min<size_t>(64, num_kw);
  const uint64_t full_mask =
      mask_bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << mask_bits) - 1);
  std::vector<uint64_t>& kw_mask = ws_->kw_mask;
  kw_mask.assign(cands.size(), 0);
  std::vector<std::vector<uint32_t>>& kw_lists = ws_->kw_lists;
  if (kw_lists.size() < num_kw) {
    kw_lists.resize(num_kw);
  }
  for (size_t k = 0; k < num_kw; ++k) {
    kw_lists[k].clear();
  }
  if (masked) {
    for (uint32_t i = 0; i < cands.size(); ++i) {
      const uint64_t mask = scratch_.ObjectMask(
          cands[i].id, dataset().object(cands[i].id).keywords);
      kw_mask[i] = mask;
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        kw_lists[static_cast<size_t>(std::countr_zero(m))].push_back(i);
      }
    }
  } else {
    for (uint32_t i = 0; i < cands.size(); ++i) {
      const TermSet& kw = dataset().object(cands[i].id).keywords;
      for (size_t k = 0; k < num_kw; ++k) {
        if (TermSetContains(kw, query.keywords[k])) {
          if (k < mask_bits) {
            kw_mask[i] |= uint64_t{1} << k;
          }
          kw_lists[k].push_back(i);
        }
      }
    }
  }
  // The rarest query keywords' candidate lists, for the cheap per-pair
  // viability check below (any feasible set with pairwise owners (o_i, o_j)
  // must cover each keyword from inside the lens C(o_i,d_ij) ∩ C(o_j,d_ij)).
  std::vector<size_t>& rare_slots = ws_->rare_slots;
  rare_slots.resize(num_kw);
  for (size_t k = 0; k < rare_slots.size(); ++k) {
    rare_slots[k] = k;
  }
  std::sort(rare_slots.begin(), rare_slots.end(), [&](size_t a, size_t b) {
    return kw_lists[a].size() < kw_lists[b].size();
  });
  rare_slots.resize(std::min<size_t>(3, rare_slots.size()));

  const auto pair_dist = [&](uint32_t i, uint32_t j) {
    return Distance(cands[i].location, cands[j].location);
  };

  // Step 1: generate candidate pairwise-owner pairs. Pairs (i, i) cover the
  // singleton / duplicate-location cases; distinct pairs are retrieved per
  // left endpoint i through a radius-bounded circle query (the incumbent
  // caps the pairwise owner distance at curCost - max(d_i, d_f) for MaxSum
  // and curCost for Dia), so the quadratic scan disappears whenever the
  // incumbent is tight.
  std::vector<PairCand>& pairs = ws_->pairs;
  pairs.clear();
  const double slack = TriangleSlack(d_f);
  const auto consider_pair = [&](uint32_t i, uint32_t j, double d_ij) {
    if (options_.use_pair_distance_bounds) {
      // d_LB: triangle inequality against the query distance owner.
      const double d_lb = d_f - std::min(cands[i].dist_q, cands[j].dist_q);
      if (d_ij < d_lb - slack) {
        return;
      }
      // d_UB: the pair already forces cost >= curCost.
      if (type_ == CostType::kMaxSum && d_f + d_ij >= cur_cost) {
        return;
      }
      if (type_ == CostType::kDia && d_ij >= cur_cost) {
        return;
      }
    }
    const double owner_floor =
        std::max({cands[i].dist_q, cands[j].dist_q, d_f});
    const double cost_lb = type_ == CostType::kMaxSum
                               ? d_ij + owner_floor
                               : std::max(d_ij, owner_floor);
    if (cost_lb >= cur_cost) {
      return;
    }
    pairs.push_back(PairCand{i, j, d_ij, cost_lb});
  };

  for (uint32_t i = 0; i < cands.size(); ++i) {
    consider_pair(i, i, 0.0);
  }
  if (options_.use_pair_distance_bounds) {
    std::vector<ObjectId>& hits = ws_->hits;
    for (uint32_t i = 0; i < cands.size() && !expired(); ++i) {
      // Any pair kept by consider_pair satisfies
      // d_ij < curCost - max(d_i, d_f) (MaxSum) resp. d_ij < curCost (Dia).
      const double cap = type_ == CostType::kMaxSum
                             ? cur_cost - std::max(cands[i].dist_q, d_f)
                             : cur_cost;
      if (cap <= 0.0) {
        continue;
      }
      hits.clear();
      cand_tree.Search(Circle(cands[i].location, cap + radius_slack), &hits);
      for (ObjectId j : hits) {
        if (j > i) {
          consider_pair(i, j, pair_dist(i, j));
        }
      }
    }
  } else {
    for (uint32_t i = 0; i < cands.size() && !expired(); ++i) {
      for (uint32_t j = i + 1; j < cands.size(); ++j) {
        consider_pair(i, j, pair_dist(i, j));
      }
    }
  }
  if (stats.truncated) {
    return finalize(MakeResult(query, std::move(cur_set), stats));
  }

  if (options_.use_cost_lb_ordering) {
    std::sort(pairs.begin(), pairs.end(),
              [](const PairCand& a, const PairCand& b) {
                return a.cost_lb < b.cost_lb;
              });
  }

  // Step 2: per pair, retrieve the lens members, enumerate query-owner
  // candidates in ascending distance from q, and run findBestFeasibleSet
  // over the corresponding lens prefix.
  BestSetFinder& finder = ws_->finder;
  finder.BeginQuery(query, &scratch_, &cur_set, &cur_cost, &stats);
  std::vector<ObjectId>& lens_ids = ws_->lens_ids;
  std::vector<Candidate>& lens = ws_->lens;
  std::vector<uint64_t>& lens_mask = ws_->lens_mask;
  for (const PairCand& pair : pairs) {
    if (expired()) {
      break;
    }
    if (pair.cost_lb >= cur_cost) {
      if (options_.use_cost_lb_ordering) {
        break;  // Pairs are sorted: nothing later can beat the incumbent.
      }
      continue;
    }
    ++stats.pairs_examined;
    const Candidate& oi = cands[pair.i];
    const Candidate& oj = cands[pair.j];

    // Cheap viability precheck: each of the rarest keywords needs at least
    // one candidate inside the lens. This skips most pairs without touching
    // the candidate R-tree. As a bonus, the *nearest-to-q* in-lens cover of
    // each rare keyword lower-bounds the query-owner distance: the final
    // set covers the keyword from inside both the lens and the query-owner
    // disk, so d(o_m, q) >= min_{r in lens ∩ R_t} d(r, q).
    bool viable = true;
    double owner_floor2 = 0.0;
    for (size_t slot : rare_slots) {
      double nearest = std::numeric_limits<double>::infinity();
      for (uint32_t idx : kw_lists[slot]) {
        const Candidate& cand = cands[idx];
        if (cand.dist_q >= nearest) {
          continue;  // kw_lists ascend in dist_q; no improvement possible.
        }
        if (pair_dist(idx, pair.i) <= pair.d_ij &&
            pair_dist(idx, pair.j) <= pair.d_ij) {
          nearest = cand.dist_q;
          break;  // Ascending dist_q: the first hit is the minimum.
        }
      }
      if (nearest == std::numeric_limits<double>::infinity()) {
        viable = false;
        break;
      }
      owner_floor2 = std::max(owner_floor2, nearest);
    }
    if (!viable) {
      continue;
    }
    const double sharpened_lb =
        type_ == CostType::kMaxSum
            ? pair.d_ij + std::max(pair.cost_lb - pair.d_ij, owner_floor2)
            : std::max(pair.cost_lb, owner_floor2);
    if (sharpened_lb >= cur_cost) {
      continue;
    }

    // Objects that may coexist with the pairwise owners (o_i, o_j): the
    // lens C(o_i, d_ij) ∩ C(o_j, d_ij), sorted by distance from q.
    lens_ids.clear();
    cand_tree.Search(Circle(oi.location, pair.d_ij + radius_slack),
                     &lens_ids);
    lens.clear();
    uint64_t lens_cover = 0;
    for (ObjectId idx : lens_ids) {
      const Candidate& cand = cands[idx];
      if (pair_dist(idx, pair.i) <= pair.d_ij &&
          pair_dist(idx, pair.j) <= pair.d_ij) {
        lens.push_back(cand);
        lens_cover |= kw_mask[idx];
      }
    }
    if ((lens_cover & full_mask) != full_mask) {
      continue;  // The lens cannot host any feasible set.
    }
    // Cheap pre-check: skip the sort and the per-pair keyword lists when no
    // lens member can serve as the query distance owner of an improving set.
    if (options_.use_owner_ring_bounds) {
      const double r_lb = std::max({oi.dist_q, oj.dist_q, d_f});
      bool any_owner = false;
      for (const Candidate& cand : lens) {
        if (cand.dist_q < r_lb) {
          continue;
        }
        const double predicted = type_ == CostType::kMaxSum
                                     ? cand.dist_q + pair.d_ij
                                     : std::max(cand.dist_q, pair.d_ij);
        if (predicted < cur_cost) {
          any_owner = true;
          break;
        }
      }
      if (!any_owner) {
        continue;
      }
    }
    std::sort(lens.begin(), lens.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.dist_q != b.dist_q) {
                  return a.dist_q < b.dist_q;
                }
                return a.id < b.id;
              });
    lens_mask.clear();
    if (masked) {
      lens_mask.reserve(lens.size());
      for (const Candidate& cand : lens) {
        lens_mask.push_back(scratch_.ObjectMask(
            cand.id, dataset().object(cand.id).keywords));
      }
    }

    finder.BeginPair(lens, lens_mask);
    uint32_t prefix_end = 0;
    for (uint32_t mi = 0; mi < lens.size(); ++mi) {
      const Candidate& om = lens[mi];
      if (options_.use_owner_ring_bounds) {
        // r_LB: the query owner is at least as far as o_i, o_j, and d_f.
        if (om.dist_q < std::max({oi.dist_q, oj.dist_q, d_f})) {
          continue;
        }
        // r_UB: predicted cost with this owner already meets the incumbent;
        // later owners are farther, so stop.
        const double predicted = type_ == CostType::kMaxSum
                                     ? om.dist_q + pair.d_ij
                                     : std::max(om.dist_q, pair.d_ij);
        if (predicted >= cur_cost) {
          break;
        }
      }
      // Extras must stay inside the query-owner disk C(q, d(o_m, q)):
      // exactly the lens prefix up to o_m's distance.
      while (prefix_end < lens.size() &&
             lens[prefix_end].dist_q <= om.dist_q) {
        ++prefix_end;
      }

      std::vector<ObjectId>& base = ws_->base;
      base.assign({oi.id, oj.id, om.id});
      std::sort(base.begin(), base.end());
      base.erase(std::unique(base.begin(), base.end()), base.end());
      finder.Run(base, prefix_end);
    }
  }

  return finalize(MakeResult(query, std::move(cur_set), stats));
}

}  // namespace coskq
