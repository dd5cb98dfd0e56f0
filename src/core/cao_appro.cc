#include "core/cao_appro.h"

#include <algorithm>

#include "core/nn_set.h"
#include "geo/circle.h"
#include "util/timer.h"

namespace coskq {

CaoAppro1::CaoAppro1(const CoskqContext& context, CostType type,
                     const Options& options)
    : CoskqSolver(context), type_(type), options_(options) {
  scratch_.set_enabled(options_.use_query_masks);
}

std::string CaoAppro1::name() const {
  std::string result = "Cao-Appro1-";
  result += CostTypeName(type_);
  return result;
}

CoskqResult CaoAppro1::Solve(const CoskqQuery& query) {
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
  stats.candidates = nn.set.size();
  stats.sets_evaluated = 1;
  return finalize(MakeResult(query, nn.set, stats));
}

CaoAppro2::CaoAppro2(const CoskqContext& context, CostType type,
                     const Options& options)
    : CoskqSolver(context), type_(type), options_(options) {
  scratch_.set_enabled(options_.use_query_masks);
}

std::string CaoAppro2::name() const {
  std::string result = "Cao-Appro2-";
  result += CostTypeName(type_);
  return result;
}

CoskqResult CaoAppro2::Solve(const CoskqQuery& query) {
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
  stats.sets_evaluated = 1;

  // The farthest keyword t_f: the query keyword whose NN is farthest.
  TermId t_f = query.keywords.front();
  double far_dist = -1.0;
  for (TermId t : query.keywords) {
    double d = 0.0;
    index().KeywordNn(query.location, t, &d, &scratch_);
    if (d > far_dist) {
      far_dist = d;
      t_f = t;
    }
  }

  // Anchor candidates: objects containing t_f within C(q, curCost). Every
  // feasible set has a t_f-covering member, so anchors outside the disk
  // cannot yield a better set.
  anchor_ids_.clear();
  index().RangeRelevant(Circle(query.location, cur_cost), TermSet{t_f},
                        &anchor_ids_, &scratch_);
  stats.candidates = anchor_ids_.size();

  anchors_.clear();
  anchors_.reserve(anchor_ids_.size());
  for (ObjectId id : anchor_ids_) {
    const Point& p = dataset().object(id).location;
    anchors_.push_back(Candidate{id, p, scratch_.QueryDistance(id, p)});
  }
  std::sort(anchors_.begin(), anchors_.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.dist_q < b.dist_q;
            });

  for (const Candidate& anchor : anchors_) {
    if (anchor.dist_q >= cur_cost) {
      break;
    }
    candidate_set_.assign(1, anchor.id);
    const TermSet missing = TermSetDifference(
        query.keywords, dataset().object(anchor.id).keywords);
    bool ok = true;
    for (TermId t : missing) {
      double d = 0.0;
      // Anchored at the candidate object, not at q: the masked overload
      // deliberately computes traversal distances directly (only d(q, ·)
      // goes through the memo), so this call is safe and bit-identical.
      const ObjectId id = index().KeywordNn(anchor.location, t, &d, &scratch_);
      if (id == kInvalidObjectId) {
        ok = false;
        break;
      }
      candidate_set_.push_back(id);
    }
    if (!ok) {
      continue;
    }
    ++stats.sets_evaluated;
    const double cost =
        EvaluateCost(type_, dataset(), query.location, candidate_set_,
                     &scratch_);
    if (cost < cur_cost) {
      cur_cost = cost;
      cur_set = candidate_set_;
    }
  }

  return finalize(MakeResult(query, std::move(cur_set), stats));
}

}  // namespace coskq
