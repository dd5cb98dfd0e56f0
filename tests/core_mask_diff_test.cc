// Differential property suite for the query-mask hot path, over seeds 0-49
// and both cost functions: every solver must produce *bit-identical* answers
// with masks on and off, and the masked index traversals the solvers lean on
// must expand identical node sequences. This is the enforcement mechanism
// behind the "provably identical pruning" claim — any divergence, even a
// tie broken differently, fails loudly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/solvers.h"
#include "geo/circle.h"
#include "index/irtree.h"
#include "index/search_scratch.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

// Solver registry names under differential test (the brute-force oracle has
// no masked path and is exercised elsewhere).
const char* const kSolverNames[] = {
    "maxsum-exact",      "dia-exact",        "maxsum-appro",
    "dia-appro",         "cao-exact-maxsum", "cao-exact-dia",
    "cao-appro1-maxsum", "cao-appro1-dia",   "cao-appro2-maxsum",
    "cao-appro2-dia",
};

class MaskDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    const uint64_t seed = GetParam();
    dataset_ = test::MakeRandomDataset(150, 25, 3.0, seed + 1);
    tree_ = std::make_unique<IrTree>(&dataset_);
    context_ = CoskqContext{&dataset_, tree_.get()};
    for (int i = 0; i < 3; ++i) {
      queries_.push_back(test::MakeRandomQuery(dataset_, 3 + i,
                                               seed * 1000 + i));
    }
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> tree_;
  CoskqContext context_;
  std::vector<CoskqQuery> queries_;
};

TEST_P(MaskDiffTest, EverySolverBitIdenticalWithMasksOnAndOff) {
  SolverOptions masked_options;
  masked_options.use_query_masks = true;
  SolverOptions baseline_options;
  baseline_options.use_query_masks = false;
  for (const char* name : kSolverNames) {
    auto masked = MakeSolver(name, context_, masked_options);
    auto baseline = MakeSolver(name, context_, baseline_options);
    ASSERT_NE(masked, nullptr) << name;
    ASSERT_NE(baseline, nullptr) << name;
    for (size_t i = 0; i < queries_.size(); ++i) {
      SCOPED_TRACE(std::string(name) + " query " + std::to_string(i));
      const CoskqResult want = baseline->Solve(queries_[i]);
      const CoskqResult got = masked->Solve(queries_[i]);
      EXPECT_EQ(got.feasible, want.feasible);
      EXPECT_EQ(got.set, want.set);
      EXPECT_EQ(got.cost, want.cost);  // Bit-identical, no tolerance.
      EXPECT_EQ(got.stats.candidates, want.stats.candidates);
      EXPECT_EQ(got.stats.sets_evaluated, want.stats.sets_evaluated);
      EXPECT_EQ(got.stats.pairs_examined, want.stats.pairs_examined);
      // The baseline path must never touch the distance memo.
      EXPECT_EQ(want.stats.dist_cache_hits, 0u);
      EXPECT_EQ(want.stats.dist_cache_misses, 0u);
    }
  }
}

TEST_P(MaskDiffTest, MaskedSolversActuallyUseTheDistanceMemo) {
  SolverOptions options;
  options.use_query_masks = true;
  uint64_t touches = 0;
  for (const char* name : {"maxsum-exact", "dia-exact", "maxsum-appro"}) {
    auto solver = MakeSolver(name, context_, options);
    for (const CoskqQuery& q : queries_) {
      const CoskqResult r = solver->Solve(q);
      touches += r.stats.dist_cache_hits + r.stats.dist_cache_misses;
    }
  }
  EXPECT_GT(touches, 0u) << "masked solvers never consulted the memo";
}

TEST_P(MaskDiffTest, NnSetVisitSequencesIdenticalToBaseline) {
  SearchScratch scratch;
  for (const CoskqQuery& q : queries_) {
    // The baseline expansion trace: per-keyword KeywordNn logs concatenated
    // in sorted keyword order, exactly how NnSet issues them.
    std::vector<uint32_t> base_log;
    for (TermId t : q.keywords) {
      double d = 0.0;
      tree_->KeywordNn(q.location, t, &d, &base_log);
    }

    scratch.BeginQuery(q.location, q.keywords);
    std::vector<uint32_t> mask_log;
    scratch.set_visit_log(&mask_log);
    TermSet base_missing;
    TermSet mask_missing;
    const std::vector<ObjectId> want =
        tree_->NnSet(q.location, q.keywords, &base_missing);
    const std::vector<ObjectId> got =
        tree_->NnSet(q.location, q.keywords, &mask_missing, &scratch);
    scratch.set_visit_log(nullptr);
    scratch.FinishQuery();

    EXPECT_EQ(got, want);
    EXPECT_EQ(mask_missing, base_missing);
    EXPECT_EQ(mask_log, base_log) << "NnSet expansion order diverged";
  }
}

TEST_P(MaskDiffTest, RangeRelevantVisitSequencesIdenticalToBaseline) {
  SearchScratch scratch;
  Rng rng(GetParam() + 77);
  for (const CoskqQuery& q : queries_) {
    const double radius = 0.1 + 0.4 * rng.UniformDouble();
    const Circle circle(q.location, radius);

    std::vector<ObjectId> base_out;
    std::vector<uint32_t> base_log;
    tree_->RangeRelevant(circle, q.keywords, &base_out, &base_log);

    scratch.BeginQuery(q.location, q.keywords);
    std::vector<ObjectId> mask_out;
    std::vector<uint32_t> mask_log;
    scratch.set_visit_log(&mask_log);
    tree_->RangeRelevant(circle, q.keywords, &mask_out, &scratch);
    scratch.set_visit_log(nullptr);
    scratch.FinishQuery();

    EXPECT_EQ(mask_out, base_out);
    EXPECT_EQ(mask_log, base_log) << "RangeRelevant expansion diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskDiffTest, ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace coskq
