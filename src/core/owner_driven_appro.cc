#include "core/owner_driven_appro.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/nn_set.h"
#include "util/logging.h"
#include "util/timer.h"

namespace coskq {

OwnerDrivenAppro::OwnerDrivenAppro(const CoskqContext& context, CostType type,
                                   const Options& options)
    : CoskqSolver(context), type_(type), options_(options) {
  scratch_.set_enabled(options_.use_query_masks);
}

std::string OwnerDrivenAppro::name() const {
  std::string result(CostTypeName(type_));
  result += "-Appro";
  return result;
}

CoskqResult OwnerDrivenAppro::Solve(const CoskqQuery& query) {
  return Solve(query, WallTimer(), 0.0);
}

CoskqResult OwnerDrivenAppro::Solve(const CoskqQuery& query,
                                    const WallTimer& clock,
                                    double deadline_ms) {
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

  RelevantCandidatesInDisk(context_, query, cur_cost * (1.0 + 1e-12),
                           &scratch_, &cands_);
  const std::vector<Candidate>& cands = cands_;
  stats.candidates = cands.size();

  // Per-query-keyword candidate lists; indices into `cands` in ascending
  // distance order (cands is distance-sorted). In masked mode the coverage
  // tests collapse to bit probes of the cached per-object masks; set bits
  // ascend in keyword order, so the lists come out identical to the
  // baseline's TermSet scan.
  const size_t num_kw = query.keywords.size();
  const bool masked = scratch_.mask_active();
  if (lists_.size() < num_kw) {
    lists_.resize(num_kw);
  }
  for (size_t k = 0; k < num_kw; ++k) {
    lists_[k].clear();
  }
  if (masked) {
    for (uint32_t idx = 0; idx < cands.size(); ++idx) {
      const uint64_t mask = scratch_.ObjectMask(
          cands[idx].id, dataset().object(cands[idx].id).keywords);
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        lists_[static_cast<size_t>(std::countr_zero(m))].push_back(idx);
      }
    }
  } else {
    for (uint32_t idx = 0; idx < cands.size(); ++idx) {
      const TermSet& kw = dataset().object(cands[idx].id).keywords;
      for (size_t k = 0; k < num_kw; ++k) {
        if (TermSetContains(kw, query.keywords[k])) {
          lists_[k].push_back(idx);
        }
      }
    }
  }

  // Pooled per-anchor buffers.
  nn_dist_.assign(num_kw, 0.0);
  nn_index_.assign(num_kw, kInvalidObjectId);

  size_t prefix_end = 0;  // cands[0, prefix_end) have dist_q <= o.dist_q.
  for (size_t idx = 0; idx < cands.size(); ++idx) {
    if (deadline_ms > 0.0 && clock.ElapsedMillis() > deadline_ms) {
      stats.truncated = true;
      break;
    }
    const Candidate& o = cands[idx];
    while (prefix_end < cands.size() &&
           cands[prefix_end].dist_q <= o.dist_q) {
      ++prefix_end;
    }
    if (o.dist_q < d_f) {
      continue;  // Cannot be the query distance owner of a feasible set.
    }
    if (o.dist_q >= cur_cost) {
      break;  // Everything farther costs at least the incumbent.
    }

    // For each keyword not covered by the anchor o, find the candidate in
    // the disk prefix nearest to o that covers it. Adding objects never
    // shrinks the candidate pool, so these per-keyword nearest neighbors
    // stay valid for the whole greedy construction.
    const TermSet& anchor_kw = dataset().object(o.id).keywords;
    const uint64_t anchor_mask =
        masked ? scratch_.ObjectMask(o.id, anchor_kw) : 0;
    bool failed = false;
    for (size_t k = 0; k < num_kw && !failed; ++k) {
      const bool anchor_covers =
          masked ? ((anchor_mask >> k) & 1) != 0
                 : TermSetContains(anchor_kw, query.keywords[k]);
      if (anchor_covers) {
        nn_index_[k] = kInvalidObjectId;  // Covered by the anchor itself.
        continue;
      }
      double best_d = std::numeric_limits<double>::infinity();
      uint32_t best = kInvalidObjectId;
      for (uint32_t cand_idx : lists_[k]) {
        if (cand_idx >= prefix_end) {
          break;  // List indices ascend with distance from q.
        }
        const double d = Distance(cands[cand_idx].location, o.location);
        if (d < best_d) {
          best_d = d;
          best = cand_idx;
        }
      }
      if (best == kInvalidObjectId) {
        // N(q) lies inside every C(q, d(o,q)) with d(o,q) >= d_f, so every
        // keyword always has a candidate; reaching here indicates a bug.
        COSKQ_DCHECK(false) << "greedy construction found no candidate";
        failed = true;
        break;
      }
      nn_dist_[k] = best_d;
      nn_index_[k] = best;
    }
    if (failed) {
      continue;
    }

    // Greedy assembly: repeatedly take the uncovered keyword whose nearest
    // cover (w.r.t. o) is closest; one object may cover several keywords.
    greedy_set_.assign(1, o.id);
    covered_.assign(num_kw, 0);
    for (size_t k = 0; k < num_kw; ++k) {
      covered_[k] = nn_index_[k] == kInvalidObjectId ? 1 : 0;
    }
    while (true) {
      size_t pick = num_kw;
      for (size_t k = 0; k < num_kw; ++k) {
        if (covered_[k] == 0 &&
            (pick == num_kw || nn_dist_[k] < nn_dist_[pick])) {
          pick = k;
        }
      }
      if (pick == num_kw) {
        break;  // All keywords covered.
      }
      const Candidate& chosen = cands[nn_index_[pick]];
      greedy_set_.push_back(chosen.id);
      const TermSet& chosen_kw = dataset().object(chosen.id).keywords;
      if (masked) {
        const uint64_t chosen_mask = scratch_.ObjectMask(chosen.id, chosen_kw);
        for (uint64_t m = chosen_mask; m != 0; m &= m - 1) {
          covered_[static_cast<size_t>(std::countr_zero(m))] = 1;
        }
      } else {
        for (size_t k = 0; k < num_kw; ++k) {
          if (covered_[k] == 0 &&
              TermSetContains(chosen_kw, query.keywords[k])) {
            covered_[k] = 1;
          }
        }
      }
    }

    ++stats.sets_evaluated;
    const double cost =
        EvaluateCost(type_, dataset(), query.location, greedy_set_, &scratch_);
    if (cost < cur_cost) {
      cur_cost = cost;
      cur_set = greedy_set_;
    }
  }

  return finalize(MakeResult(query, std::move(cur_set), stats));
}

}  // namespace coskq
