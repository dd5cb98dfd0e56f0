#ifndef COSKQ_CORE_OWNER_DRIVEN_APPRO_H_
#define COSKQ_CORE_OWNER_DRIVEN_APPRO_H_

#include <stdint.h>

#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/cost.h"
#include "core/solver.h"
#include "index/search_scratch.h"
#include "util/timer.h"

namespace coskq {

/// The paper's approximate algorithms, MaxSum-Appro and Dia-Appro, in one
/// engine. The search keeps the query-distance-owner iteration of the exact
/// algorithm but replaces best-set construction with a cheap greedy:
///
///   1. Seed the incumbent with N(q).
///   2. Stream relevant objects o in ascending d(o, q) through the ring
///      d_f <= d(o, q) < curCost (objects closer than d_f cannot be the
///      query distance owner of any feasible set; objects at curCost or
///      farther cannot improve the incumbent).
///   3. For each o, greedily build a feasible set inside the disk
///      C(q, d(o, q)): repeatedly add the object *nearest to o* that covers
///      an uncovered keyword, which keeps the pairwise spread small.
///   4. Cost the set exactly; keep the best.
///
/// Guarantees: cost(answer) <= 1.375 · OPT for MaxSum and <= sqrt(3) · OPT
/// for Dia (the geometry of the owner disk ∩ query disk bounds the spread of
/// the greedy set relative to any optimal set sharing the same owner).
///
/// With `use_query_masks` (default) traversals, coverage tests, and cost
/// evaluations run through the solver's private SearchScratch (bitmasks +
/// distance memo + pooled buffers); results are bit-identical either way.
class OwnerDrivenAppro : public CoskqSolver {
 public:
  struct Options {
    /// Query-scoped keyword bitmasks + scratch-pooled buffers + distance
    /// memo; identical results, A/B switch for the hot-path benchmark.
    bool use_query_masks = true;
  };

  OwnerDrivenAppro(const CoskqContext& context, CostType type,
                   const Options& options);
  OwnerDrivenAppro(const CoskqContext& context, CostType type)
      : OwnerDrivenAppro(context, type, Options()) {}

  CoskqResult Solve(const CoskqQuery& query) override;
  std::string name() const override;
  CostType cost_type() const override { return type_; }

 private:
  friend class OwnerDrivenExact;

  /// Solve as the exact solver's incumbent seeder: once `clock` reads past
  /// `deadline_ms` (0 = none), the anchor loop stops and the incumbent
  /// comes back with stats.truncated set. Standalone solves pass no
  /// deadline.
  CoskqResult Solve(const CoskqQuery& query, const WallTimer& clock,
                    double deadline_ms);

  CostType type_;
  Options options_;
  /// Per-solver scratch and enumeration buffers pooled across Solve calls;
  /// one solver instance serves one thread.
  SearchScratch scratch_;
  std::vector<Candidate> cands_;
  std::vector<std::vector<uint32_t>> lists_;
  std::vector<double> nn_dist_;
  std::vector<uint32_t> nn_index_;
  std::vector<ObjectId> greedy_set_;
  std::vector<uint8_t> covered_;
};

}  // namespace coskq

#endif  // COSKQ_CORE_OWNER_DRIVEN_APPRO_H_
