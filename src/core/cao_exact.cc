#include "core/cao_exact.h"

#include <algorithm>
#include <bit>

#include "core/nn_set.h"
#include "util/logging.h"
#include "util/timer.h"

namespace coskq {

namespace {

// Branch-and-bound cover search over a fixed candidate pool.
class CoverSearch {
 public:
  CoverSearch(const Dataset& dataset, const CoskqQuery& query, CostType type,
              const std::vector<Candidate>& cands, SearchScratch* scratch,
              std::vector<ObjectId>* cur_set, double* cur_cost,
              SolveStats* stats, const WallTimer* timer, double deadline_ms)
      : dataset_(dataset),
        cands_(cands),
        cur_set_(cur_set),
        cur_cost_(cur_cost),
        stats_(stats),
        timer_(timer),
        deadline_ms_(deadline_ms),
        tracker_(&dataset, query.location, type, scratch) {
    // Per-keyword candidate lists. In masked mode the membership tests
    // collapse to bit probes of the cached per-candidate masks; bit k of a
    // mask is the k-th query keyword in sorted order, which is exactly the
    // iteration order of query.keywords, so both paths build identical
    // lists (and the branch choice below, keyed on list sizes with first
    // minimum winning, is identical too).
    lists_.reserve(query.keywords.size());
    for (TermId t : query.keywords) {
      lists_.push_back(KeywordList{t, {}});
    }
    if (scratch != nullptr && scratch->mask_active()) {
      for (uint32_t i = 0; i < cands.size(); ++i) {
        const uint64_t mask = scratch->ObjectMask(
            cands[i].id, dataset.object(cands[i].id).keywords);
        for (uint64_t m = mask; m != 0; m &= m - 1) {
          lists_[static_cast<size_t>(std::countr_zero(m))].indices.push_back(
              i);
        }
      }
    } else {
      for (size_t k = 0; k < lists_.size(); ++k) {
        for (uint32_t i = 0; i < cands.size(); ++i) {
          if (dataset.object(cands[i].id).ContainsTerm(lists_[k].term)) {
            lists_[k].indices.push_back(i);  // cands_ is distance-sorted.
          }
        }
      }
    }
  }

  void Run(const TermSet& keywords) { Dfs(keywords); }

 private:
  struct KeywordList {
    TermId term;
    std::vector<uint32_t> indices;
  };

  void Dfs(const TermSet& uncovered) {
    if (stats_->truncated) {
      return;
    }
    if (deadline_ms_ > 0.0 && (++nodes_ & 1023) == 0 &&
        timer_->ElapsedMillis() > deadline_ms_) {
      stats_->truncated = true;
      return;
    }
    if (tracker_.cost() >= *cur_cost_) {
      return;  // Monotone cost: no extension can beat the incumbent.
    }
    if (uncovered.empty()) {
      ++stats_->sets_evaluated;
      *cur_cost_ = tracker_.cost();
      *cur_set_ = tracker_.ids();
      return;
    }
    const KeywordList* best_list = nullptr;
    for (const KeywordList& list : lists_) {
      if (!TermSetContains(uncovered, list.term)) {
        continue;
      }
      if (best_list == nullptr ||
          list.indices.size() < best_list->indices.size()) {
        best_list = &list;
      }
    }
    COSKQ_CHECK(best_list != nullptr);
    if (best_list->indices.empty()) {
      return;  // Uncoverable within the candidate pool.
    }
    for (uint32_t index : best_list->indices) {
      const Candidate& cand = cands_[index];
      if (cand.dist_q >= *cur_cost_) {
        break;  // Distance-sorted: the rest is at least as far.
      }
      tracker_.Push(cand.id);
      Dfs(TermSetDifference(uncovered, dataset_.object(cand.id).keywords));
      tracker_.Pop();
    }
  }

  const Dataset& dataset_;
  const std::vector<Candidate>& cands_;
  std::vector<ObjectId>* cur_set_;
  double* cur_cost_;
  SolveStats* stats_;
  const WallTimer* timer_;
  double deadline_ms_;
  uint64_t nodes_ = 0;
  SetCostTracker tracker_;
  std::vector<KeywordList> lists_;
};

}  // namespace

CaoExact::CaoExact(const CoskqContext& context, CostType type,
                   const Options& options)
    : CoskqSolver(context), type_(type), options_(options) {
  scratch_.set_enabled(options_.use_query_masks);
}

std::string CaoExact::name() const {
  std::string result = "Cao-Exact-";
  result += CostTypeName(type_);
  return result;
}

CoskqResult CaoExact::Solve(const CoskqQuery& query) {
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

  RelevantCandidatesInDisk(context_, query, cur_cost * (1.0 + 1e-12),
                           &scratch_, &cands_);
  stats.candidates = cands_.size();

  CoverSearch search(dataset(), query, type_, cands_, &scratch_, &cur_set,
                     &cur_cost, &stats, &timer, options_.deadline_ms);
  search.Run(query.keywords);

  return finalize(MakeResult(query, std::move(cur_set), stats));
}

}  // namespace coskq
