// Golden suite for the frozen IR-tree, over seeds 0-49: every query path
// (KeywordNn, NnSet, RangeRelevant, RelevantStream — baseline and masked)
// and every registry solver must reproduce, bit for bit, the digests the
// pointer-tree traversals recorded before the tree lost that representation
// (index_frozen_goldens.inc): answers, distance and cost bits, node-visit
// logs and distance-memo counters. The STR build writes the frozen body
// directly, so these goldens are what pins its child order and preorder ids.
//
// Since the frozen traversals dispatch through the SIMD kernel table
// (kernels.h), every check runs once per supported kernel (scalar always,
// plus sse2/avx2 where the hardware has them) via ForEachKernel. Brute force
// stays the answer oracle: the answers behind each digest are also checked
// against a scan of the dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "frozen_golden_digests.h"
#include "index/kernels.h"

namespace coskq {
namespace {

using test::FrozenGolden;
using test::GoldenFixture;
using test::kGoldenSolverNames;
using test::kGoldenSolvers;

const FrozenGolden kGoldens[] = {
#include "index_frozen_goldens.inc"
};

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

class FrozenDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_EQ(std::size(kGoldens), 50u);
    fixture_ = std::make_unique<GoldenFixture>(GetParam());
    golden_ = &kGoldens[GetParam()];
    ASSERT_EQ(golden_->seed, GetParam());
  }

  const Dataset& dataset() const { return fixture_->dataset; }
  IrTree& tree() const { return *fixture_->tree; }

  std::unique_ptr<GoldenFixture> fixture_;
  const FrozenGolden* golden_ = nullptr;
};

TEST_P(FrozenDiffTest, FreezeIsIdempotentAndPassesInvariants) {
  tree().CheckInvariants();
  const uint64_t epoch = tree().epoch();
  tree().Freeze();  // Nothing to fold: the tree is born frozen.
  tree().CheckInvariants();
  EXPECT_EQ(tree().epoch(), epoch);
  EXPECT_EQ(tree().size(), dataset().NumObjects());
}

TEST_P(FrozenDiffTest, KeywordNnVisitSequencesIdentical) {
  ForEachKernel([&] {
    EXPECT_EQ(test::KeywordNnDigest(*fixture_), golden_->keyword_nn);
  });
  // The answers behind the digest against a scan of the dataset.
  Rng rng(GetParam() + 11);
  for (int trial = 0; trial < 20; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    const TermId t = static_cast<TermId>(rng.UniformUint64(25));
    double want = std::numeric_limits<double>::infinity();
    for (const SpatialObject& obj : dataset().objects()) {
      if (obj.ContainsTerm(t)) {
        want = std::min(want, Distance(p, obj.location));
      }
    }
    double got = 0.0;
    tree().KeywordNn(p, t, &got);
    EXPECT_EQ(got, want);
  }
}

TEST_P(FrozenDiffTest, MaskedNnSetVisitSequencesIdentical) {
  ForEachKernel([&] {
    EXPECT_EQ(test::MaskedNnSetDigest(*fixture_), golden_->masked_nn_set);
  });
}

TEST_P(FrozenDiffTest, RangeRelevantVisitSequencesIdentical) {
  ForEachKernel([&] {
    const std::pair<uint64_t, uint64_t> got = test::RangeDigests(*fixture_);
    EXPECT_EQ(got.first, golden_->range) << "RangeRelevant diverged";
    EXPECT_EQ(got.second, golden_->masked_range)
        << "masked RangeRelevant diverged";
  });
  Rng rng(GetParam() + 77);
  for (const CoskqQuery& q : fixture_->queries) {
    const Circle circle(q.location, 0.1 + 0.4 * rng.UniformDouble());
    std::vector<ObjectId> got;
    tree().RangeRelevant(circle, q.keywords, &got);
    std::sort(got.begin(), got.end());
    std::vector<ObjectId> want;
    for (const SpatialObject& obj : dataset().objects()) {
      if (circle.Contains(obj.location) && obj.ContainsAnyOf(q.keywords)) {
        want.push_back(obj.id);
      }
    }
    EXPECT_EQ(got, want);
  }
}

TEST_P(FrozenDiffTest, RelevantStreamDrainsIdentically) {
  ForEachKernel([&] {
    const std::pair<uint64_t, uint64_t> got = test::StreamDigests(*fixture_);
    EXPECT_EQ(got.first, golden_->stream) << "RelevantStream diverged";
    EXPECT_EQ(got.second, golden_->masked_stream)
        << "masked RelevantStream diverged";
  });
}

TEST_P(FrozenDiffTest, EverySolverBitIdenticalFrozenVsPointer) {
  ForEachKernel([&] {
    for (int masks = 0; masks < 2; ++masks) {
      for (size_t s = 0; s < kGoldenSolvers; ++s) {
        EXPECT_EQ(test::SolverDigest(*fixture_, kGoldenSolverNames[s],
                                     masks == 1),
                  golden_->solvers[masks][s])
            << kGoldenSolverNames[s] << (masks == 1 ? " masked" : "");
      }
    }
  });
}

TEST(FrozenInsertTest, InsertLandsInDeltaAndQueriesStayCorrect) {
  // Mutating a tree never invalidates its frozen body: the mutation lands
  // in the delta overlay, re-inserting a live object is a clean error, and
  // queries observe the delta.
  Dataset ds = test::MakeRandomDataset(200, 20, 3.0, 7);
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < 180; ++id) {
    base.push_back(id);
  }
  IrTree tree(&ds, IrTree::Options(), base);

  // Re-inserting a live object is rejected.
  EXPECT_FALSE(tree.Insert(0).ok());
  EXPECT_EQ(tree.delta_size(), 0u);
  tree.CheckInvariants();

  // Inserting a not-yet-live object goes to the delta and is immediately
  // visible at its exact location.
  ASSERT_TRUE(tree.Insert(190).ok());
  EXPECT_EQ(tree.delta_size(), 1u);
  tree.CheckInvariants();
  double d = 0.0;
  const TermSet& kw = ds.object(190).keywords;
  ASSERT_FALSE(kw.empty());
  const ObjectId nn = tree.KeywordNn(ds.object(190).location, kw[0], &d);
  EXPECT_EQ(nn, 190u);
  EXPECT_EQ(d, 0.0);

  // Freeze() folds the delta into a fresh frozen body.
  tree.Freeze();
  EXPECT_EQ(tree.delta_size(), 0u);
  EXPECT_EQ(tree.size(), 181u);
  tree.CheckInvariants();
  d = 0.0;
  EXPECT_EQ(tree.KeywordNn(ds.object(190).location, kw[0], &d), 190u);
  EXPECT_EQ(d, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenDiffTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace coskq
