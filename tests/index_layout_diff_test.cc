// Differential suite for the frozen body layouts, over seeds 0-49: the
// level-grouped (page-local) layout must be *bit-identical* to the bfs
// layout on every query path (KeywordNn, NnSet, RangeRelevant,
// RelevantStream — baseline and masked) and every registry solver, down to
// node-visit logs and distance-memo counters. Both layouts keep the same
// BFS slot numbering; only the physical byte placement differs, so any
// divergence here is a layout-addressing bug, never a legitimate
// traversal difference.
//
// Every check runs once per supported SIMD kernel (scalar always, plus
// sse2/avx2 where the hardware has them): the bfs-side expectation is
// computed under the same kernel the level-grouped side runs, so kernel
// and layout are varied independently.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/solvers.h"
#include "geo/circle.h"
#include "index/irtree.h"
#include "index/kernels.h"
#include "index/search_scratch.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

/// Runs `fn` once per supported kernel table with that table forced
/// process-wide, then restores the previous selection.
template <typename Fn>
void ForEachKernel(Fn&& fn) {
  using internal_index::ActiveKernelName;
  using internal_index::SelectKernels;
  using internal_index::SupportedKernelNames;
  const std::string before = ActiveKernelName();
  for (const std::string& kernel : SupportedKernelNames()) {
    ASSERT_TRUE(SelectKernels(kernel).ok()) << kernel;
    SCOPED_TRACE("kernel=" + kernel);
    fn();
  }
  ASSERT_TRUE(SelectKernels(before).ok());
}

const char* const kSolverNames[] = {
    "maxsum-exact",      "dia-exact",        "maxsum-appro",
    "dia-appro",         "cao-exact-maxsum", "cao-exact-dia",
    "cao-appro1-maxsum", "cao-appro1-dia",   "cao-appro2-maxsum",
    "cao-appro2-dia",
};

class LayoutDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    const uint64_t seed = GetParam();
    dataset_ = test::MakeRandomDataset(150, 25, 3.0, seed + 1);

    IrTree::Options bfs_options;
    bfs_options.frozen_layout = FrozenLayout::kBfs;
    bfs_ = std::make_unique<IrTree>(&dataset_, bfs_options);
    ASSERT_EQ(bfs_->MemoryStats().layout, FrozenLayout::kBfs);

    IrTree::Options lg_options;
    lg_options.frozen_layout = FrozenLayout::kLevelGrouped;
    lg_ = std::make_unique<IrTree>(&dataset_, lg_options);
    ASSERT_EQ(lg_->MemoryStats().layout, FrozenLayout::kLevelGrouped);

    bfs_context_ = CoskqContext{&dataset_, bfs_.get()};
    lg_context_ = CoskqContext{&dataset_, lg_.get()};
    for (int i = 0; i < 3; ++i) {
      queries_.push_back(
          test::MakeRandomQuery(dataset_, 3 + i, seed * 1000 + i));
    }
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> bfs_;
  std::unique_ptr<IrTree> lg_;
  CoskqContext bfs_context_;
  CoskqContext lg_context_;
  std::vector<CoskqQuery> queries_;
};

TEST_P(LayoutDiffTest, BothLayoutsPassInvariants) {
  bfs_->CheckInvariants();
  lg_->CheckInvariants();
  // Same logical tree shape regardless of physical placement.
  EXPECT_EQ(lg_->NodeCount(), bfs_->NodeCount());
  EXPECT_EQ(lg_->Height(), bfs_->Height());
}

TEST_P(LayoutDiffTest, KeywordNnVisitSequencesIdentical) {
  Rng rng(GetParam() + 11);
  for (int trial = 0; trial < 20; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    const TermId t = static_cast<TermId>(rng.UniformUint64(25));
    ForEachKernel([&] {
      double want_d = 0.0;
      std::vector<uint32_t> want_log;
      const ObjectId want = bfs_->KeywordNn(p, t, &want_d, &want_log);
      double got_d = 0.0;
      std::vector<uint32_t> got_log;
      const ObjectId got = lg_->KeywordNn(p, t, &got_d, &got_log);
      EXPECT_EQ(got, want);
      EXPECT_EQ(got_d, want_d);  // Bit-identical, no tolerance.
      EXPECT_EQ(got_log, want_log) << "KeywordNn expansion order diverged";
    });
  }
}

TEST_P(LayoutDiffTest, MaskedNnSetVisitSequencesIdentical) {
  SearchScratch scratch;
  for (const CoskqQuery& q : queries_) {
    ForEachKernel([&] {
      std::vector<uint32_t> want_log;
      std::vector<ObjectId> want;
      TermSet want_missing;
      scratch.BeginQuery(q.location, q.keywords);
      scratch.set_visit_log(&want_log);
      want = bfs_->NnSet(q.location, q.keywords, &want_missing, &scratch);
      scratch.set_visit_log(nullptr);
      scratch.FinishQuery();

      std::vector<uint32_t> got_log;
      std::vector<ObjectId> got;
      TermSet got_missing;
      scratch.BeginQuery(q.location, q.keywords);
      scratch.set_visit_log(&got_log);
      got = lg_->NnSet(q.location, q.keywords, &got_missing, &scratch);
      scratch.set_visit_log(nullptr);
      scratch.FinishQuery();

      EXPECT_EQ(got, want);
      EXPECT_EQ(got_missing, want_missing);
      EXPECT_EQ(got_log, want_log) << "masked NnSet expansion diverged";
    });
  }
}

TEST_P(LayoutDiffTest, RangeRelevantVisitSequencesIdentical) {
  SearchScratch scratch;
  Rng rng(GetParam() + 77);
  for (const CoskqQuery& q : queries_) {
    const double radius = 0.1 + 0.4 * rng.UniformDouble();
    const Circle circle(q.location, radius);
    ForEachKernel([&] {
      // Baseline (unmasked) with visit logs.
      std::vector<ObjectId> want_out;
      std::vector<uint32_t> want_log;
      bfs_->RangeRelevant(circle, q.keywords, &want_out, &want_log);
      std::vector<ObjectId> got_out;
      std::vector<uint32_t> got_log;
      lg_->RangeRelevant(circle, q.keywords, &got_out, &got_log);
      EXPECT_EQ(got_out, want_out);
      EXPECT_EQ(got_log, want_log) << "RangeRelevant expansion diverged";

      // Masked with visit logs through the scratch.
      scratch.BeginQuery(q.location, q.keywords);
      std::vector<ObjectId> want_mout;
      std::vector<uint32_t> want_mlog;
      scratch.set_visit_log(&want_mlog);
      bfs_->RangeRelevant(circle, q.keywords, &want_mout, &scratch);
      scratch.set_visit_log(nullptr);
      scratch.FinishQuery();

      scratch.BeginQuery(q.location, q.keywords);
      std::vector<ObjectId> got_mout;
      std::vector<uint32_t> got_mlog;
      scratch.set_visit_log(&got_mlog);
      lg_->RangeRelevant(circle, q.keywords, &got_mout, &scratch);
      scratch.set_visit_log(nullptr);
      scratch.FinishQuery();

      EXPECT_EQ(got_mout, want_mout);
      EXPECT_EQ(got_mlog, want_mlog) << "masked RangeRelevant diverged";
    });
  }
}

TEST_P(LayoutDiffTest, RelevantStreamDrainsIdentically) {
  SearchScratch scratch;
  for (const CoskqQuery& q : queries_) {
    ForEachKernel([&] {
      // Unmasked streams.
      std::vector<std::pair<ObjectId, double>> want;
      {
        IrTree::RelevantStream stream(bfs_.get(), q.location, q.keywords);
        while (auto next = stream.Next()) {
          want.push_back(*next);
        }
      }
      std::vector<std::pair<ObjectId, double>> got;
      {
        IrTree::RelevantStream stream(lg_.get(), q.location, q.keywords);
        while (auto next = stream.Next()) {
          got.push_back(*next);
        }
      }
      EXPECT_EQ(got, want) << "RelevantStream order/content diverged";

      // Masked streams (scratch caches shared within each drain).
      want.clear();
      got.clear();
      scratch.BeginQuery(q.location, q.keywords);
      {
        IrTree::RelevantStream stream(bfs_.get(), q.location, q.keywords,
                                      &scratch);
        while (auto next = stream.Next()) {
          want.push_back(*next);
        }
      }
      scratch.FinishQuery();
      scratch.BeginQuery(q.location, q.keywords);
      {
        IrTree::RelevantStream stream(lg_.get(), q.location, q.keywords,
                                      &scratch);
        while (auto next = stream.Next()) {
          got.push_back(*next);
        }
      }
      scratch.FinishQuery();
      EXPECT_EQ(got, want) << "masked RelevantStream diverged";
    });
  }
}

TEST_P(LayoutDiffTest, EverySolverBitIdenticalAcrossLayouts) {
  for (const bool use_masks : {false, true}) {
    SolverOptions options;
    options.use_query_masks = use_masks;
    for (const char* name : kSolverNames) {
      auto bfs_solver = MakeSolver(name, bfs_context_, options);
      auto lg_solver = MakeSolver(name, lg_context_, options);
      ASSERT_NE(bfs_solver, nullptr) << name;
      ASSERT_NE(lg_solver, nullptr) << name;
      for (size_t i = 0; i < queries_.size(); ++i) {
        SCOPED_TRACE(std::string(name) +
                     (use_masks ? " masked" : " baseline") + " query " +
                     std::to_string(i));
        ForEachKernel([&] {
          const CoskqResult want = bfs_solver->Solve(queries_[i]);
          const CoskqResult got = lg_solver->Solve(queries_[i]);
          EXPECT_EQ(got.feasible, want.feasible);
          EXPECT_EQ(got.set, want.set);
          EXPECT_EQ(got.cost, want.cost);  // Bit-identical, no tolerance.
          EXPECT_EQ(got.stats.candidates, want.stats.candidates);
          EXPECT_EQ(got.stats.sets_evaluated, want.stats.sets_evaluated);
          EXPECT_EQ(got.stats.pairs_examined, want.stats.pairs_examined);
          EXPECT_EQ(got.stats.dist_cache_hits, want.stats.dist_cache_hits);
          EXPECT_EQ(got.stats.dist_cache_misses,
                    want.stats.dist_cache_misses);
        });
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutDiffTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace coskq
