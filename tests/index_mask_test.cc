// The query-keyword bitmask layer (QueryTermMask + SearchScratch) and the
// masked IR-tree traversals. The contract under test is strict bit-identity:
// a masked traversal must expand exactly the same node sequence and return
// exactly the same objects and distances as the baseline — not merely an
// equivalent answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "index/irtree.h"
#include "index/query_mask.h"
#include "index/search_scratch.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

TEST(QueryTermMaskTest, InactiveBeforeResetAndForEmptyOrHugeQueries) {
  QueryTermMask mask;
  EXPECT_FALSE(mask.active());
  EXPECT_EQ(mask.full_mask(), 0u);

  mask.Reset(TermSet{});
  EXPECT_FALSE(mask.active());

  TermSet huge;
  for (TermId t = 0; t < 65; ++t) {
    huge.push_back(t);
  }
  mask.Reset(huge);
  EXPECT_FALSE(mask.active());

  // Exactly 64 keywords is the largest active query.
  huge.pop_back();
  mask.Reset(huge);
  EXPECT_TRUE(mask.active());
  EXPECT_EQ(mask.full_mask(), ~uint64_t{0});
}

TEST(QueryTermMaskTest, SlotsFollowSortedKeywordOrder) {
  QueryTermMask mask;
  mask.Reset(TermSet{3, 7, 19});
  EXPECT_TRUE(mask.active());
  EXPECT_EQ(mask.full_mask(), 0b111u);
  EXPECT_EQ(mask.SlotOf(3), 0);
  EXPECT_EQ(mask.SlotOf(7), 1);
  EXPECT_EQ(mask.SlotOf(19), 2);
  EXPECT_EQ(mask.SlotOf(5), -1);
  EXPECT_EQ(mask.SlotOf(20), -1);
}

TEST(QueryTermMaskTest, MaskOfAgreesWithTermSetContainsOnRandomSets) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    TermSet query;
    const size_t nq = 1 + rng.UniformUint64(10);
    for (size_t i = 0; i < nq; ++i) {
      query.push_back(static_cast<TermId>(rng.UniformUint64(40)));
    }
    NormalizeTermSet(&query);
    QueryTermMask mask;
    mask.Reset(query);
    ASSERT_TRUE(mask.active());

    TermSet terms;
    const size_t nt = rng.UniformUint64(12);
    for (size_t i = 0; i < nt; ++i) {
      terms.push_back(static_cast<TermId>(rng.UniformUint64(40)));
    }
    NormalizeTermSet(&terms);

    const uint64_t got = mask.MaskOf(terms);
    for (size_t k = 0; k < query.size(); ++k) {
      const bool bit = (got >> k) & 1;
      EXPECT_EQ(bit, TermSetContains(terms, query[k]))
          << "trial " << trial << " slot " << k;
    }
    EXPECT_EQ(got & ~mask.full_mask(), 0u);
  }
}

TEST(QueryTermMaskTest, SubmaskOfAcceptsExactlyTheQuerySubsets) {
  QueryTermMask mask;
  mask.Reset(TermSet{2, 5, 9});
  uint64_t submask = 0;
  EXPECT_TRUE(mask.SubmaskOf(TermSet{5}, &submask));
  EXPECT_EQ(submask, 0b010u);
  EXPECT_TRUE(mask.SubmaskOf(TermSet{2, 9}, &submask));
  EXPECT_EQ(submask, 0b101u);
  EXPECT_TRUE(mask.SubmaskOf(TermSet{2, 5, 9}, &submask));
  EXPECT_EQ(submask, 0b111u);
  // Any non-query member disqualifies the set.
  EXPECT_FALSE(mask.SubmaskOf(TermSet{2, 6}, &submask));
  EXPECT_FALSE(mask.SubmaskOf(TermSet{1}, &submask));
}

TEST(SearchScratchTest, QueryDistanceMatchesPlainDistanceAndMemoizes) {
  Dataset ds = test::MakeRandomDataset(100, 20, 3.0, 77);
  SearchScratch scratch;
  const Point q{0.3, 0.7};
  scratch.BeginQuery(q, TermSet{0, 1});
  for (ObjectId id = 0; id < ds.NumObjects(); ++id) {
    const Point& p = ds.object(id).location;
    const double want = Distance(q, p);
    EXPECT_EQ(scratch.QueryDistance(id, p), want);  // miss, then
    EXPECT_EQ(scratch.QueryDistance(id, p), want);  // hit
  }
  EXPECT_EQ(scratch.dist_cache_misses(), ds.NumObjects());
  EXPECT_EQ(scratch.dist_cache_hits(), ds.NumObjects());

  // A new query invalidates every memoized distance by epoch, not by wipe.
  const Point q2{0.9, 0.1};
  scratch.BeginQuery(q2, TermSet{0, 1});
  const Point& p0 = ds.object(0).location;
  EXPECT_EQ(scratch.QueryDistance(0, p0), Distance(q2, p0));
  EXPECT_EQ(scratch.dist_cache_hits(), 0u);
}

TEST(SearchScratchTest, NodeMinDistanceMatchesRectMinDistance) {
  Dataset ds = test::MakeRandomDataset(60, 15, 3.0, 78);
  SearchScratch scratch;
  const Point q{0.5, 0.5};
  scratch.BeginQuery(q, TermSet{0});
  const Rect mbr(0.1, 0.2, 0.3, 0.4);
  const double want = mbr.MinDistance(q);
  EXPECT_EQ(scratch.NodeMinDistance(7, mbr), want);  // miss, then
  EXPECT_EQ(scratch.NodeMinDistance(7, mbr), want);  // epoch-stamped hit

  // A new query origin invalidates the memo by epoch.
  const Point q2{0.9, 0.9};
  scratch.BeginQuery(q2, TermSet{0});
  EXPECT_EQ(scratch.NodeMinDistance(7, mbr), mbr.MinDistance(q2));
}

TEST(SearchScratchTest, CachedMaskProbesAreReadOnly) {
  Dataset ds = test::MakeRandomDataset(60, 15, 3.0, 78);
  SearchScratch scratch;
  scratch.BeginQuery(Point{0.5, 0.5}, ds.object(3).keywords);
  uint64_t mask = ~uint64_t{0};
  // Cold probes report a miss and must not populate the slot.
  EXPECT_FALSE(scratch.CachedObjectMask(3, &mask));
  EXPECT_FALSE(scratch.CachedObjectMask(3, &mask));
  EXPECT_FALSE(scratch.CachedNodeMask(0, &mask));

  // A filling lookup warms the slot; the probe then returns the same mask.
  const uint64_t filled = scratch.ObjectMask(3, ds.object(3).keywords);
  EXPECT_TRUE(scratch.CachedObjectMask(3, &mask));
  EXPECT_EQ(mask, filled);
}

TEST(SearchScratchTest, DisabledScratchBypassesMaskAndMemo) {
  Dataset ds = test::MakeRandomDataset(50, 10, 3.0, 79);
  SearchScratch scratch;
  scratch.set_enabled(false);
  scratch.BeginQuery(Point{0.2, 0.2}, TermSet{0, 1, 2});
  EXPECT_FALSE(scratch.mask_active());
  const Point& p = ds.object(3).location;
  EXPECT_EQ(scratch.QueryDistance(3, p), Distance(Point{0.2, 0.2}, p));
  EXPECT_EQ(scratch.dist_cache_hits(), 0u);
  EXPECT_EQ(scratch.dist_cache_misses(), 0u);
}

TEST(SearchScratchTest, NoReallocationsOnceWarm) {
  Dataset ds = test::MakeRandomDataset(200, 25, 3.0, 80);
  IrTree tree(&ds);
  std::vector<CoskqQuery> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(test::MakeRandomQuery(ds, 4, 100 + i));
  }
  // First pass grows every pooled buffer to the workload's high-water mark;
  // replaying the identical workload must then be allocation-free.
  SearchScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    for (const CoskqQuery& q : queries) {
      scratch.BeginQuery(q.location, q.keywords);
      TermSet missing;
      tree.NnSet(q.location, q.keywords, &missing, &scratch);
      std::vector<ObjectId>& hits = scratch.id_buffer();
      hits.clear();
      tree.RangeRelevant(Circle(q.location, 0.4), q.keywords, &hits,
                         &scratch);
      scratch.FinishQuery();
      if (pass == 1) {
        EXPECT_EQ(scratch.realloc_events(), 0u)
            << "warm replay reallocated";
      }
    }
  }
  EXPECT_EQ(scratch.queries_started(), 20u);
}

// The differential core: identical expansions and answers across the whole
// masked surface, over several seeds.
class MaskedTraversalTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(500, 30, 3.5, GetParam());
    tree_ = std::make_unique<IrTree>(&dataset_);
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> tree_;
};

TEST_P(MaskedTraversalTest, KeywordNnExpandsIdenticalNodeSequences) {
  Rng rng(GetParam() + 1);
  SearchScratch scratch;
  for (int trial = 0; trial < 30; ++trial) {
    const CoskqQuery q = test::MakeRandomQuery(dataset_, 3 + trial % 4,
                                               GetParam() * 100 + trial);
    scratch.BeginQuery(q.location, q.keywords);
    ASSERT_TRUE(scratch.mask_active());
    for (TermId t : q.keywords) {
      std::vector<uint32_t> base_log;
      double base_d = 0.0;
      const ObjectId base_id =
          tree_->KeywordNn(q.location, t, &base_d, &base_log);

      std::vector<uint32_t> mask_log;
      scratch.set_visit_log(&mask_log);
      double mask_d = 0.0;
      const ObjectId mask_id =
          tree_->KeywordNn(q.location, t, &mask_d, &scratch);
      scratch.set_visit_log(nullptr);

      EXPECT_EQ(mask_id, base_id);
      EXPECT_EQ(mask_d, base_d);  // Bit-identical, not just approximately.
      EXPECT_EQ(mask_log, base_log) << "node expansion order diverged";
    }
    scratch.FinishQuery();
  }
}

TEST_P(MaskedTraversalTest, KeywordNnFallsBackForNonQueryKeywords) {
  SearchScratch scratch;
  const CoskqQuery q =
      test::MakeRandomQuery(dataset_, 3, GetParam() * 7 + 3);
  scratch.BeginQuery(q.location, q.keywords);
  // A keyword outside q.ψ must still be answered (via the baseline path).
  TermId outside = 0;
  while (TermSetContains(q.keywords, outside)) {
    ++outside;
  }
  double base_d = 0.0;
  double mask_d = 0.0;
  const ObjectId base_id = tree_->KeywordNn(q.location, outside, &base_d);
  const ObjectId mask_id =
      tree_->KeywordNn(q.location, outside, &mask_d, &scratch);
  EXPECT_EQ(mask_id, base_id);
  EXPECT_EQ(mask_d, base_d);
}

TEST_P(MaskedTraversalTest, NnSetBitIdenticalIncludingMissingKeywords) {
  SearchScratch scratch;
  Dataset ds = dataset_.Clone();
  // Plant a keyword no object carries so `missing` reporting is exercised.
  const TermId ghost = ds.mutable_vocabulary().GetOrAdd("ghost-term");
  IrTree tree(&ds);
  for (int trial = 0; trial < 20; ++trial) {
    CoskqQuery q = test::MakeRandomQuery(ds, 4, GetParam() * 31 + trial);
    if (trial % 3 == 0) {
      q.keywords.push_back(ghost);
      NormalizeTermSet(&q.keywords);
    }
    TermSet base_missing;
    const std::vector<ObjectId> base =
        tree.NnSet(q.location, q.keywords, &base_missing);

    scratch.BeginQuery(q.location, q.keywords);
    TermSet mask_missing;
    const std::vector<ObjectId> masked =
        tree.NnSet(q.location, q.keywords, &mask_missing, &scratch);
    scratch.FinishQuery();

    EXPECT_EQ(masked, base);
    EXPECT_EQ(mask_missing, base_missing);
  }
}

TEST_P(MaskedTraversalTest, RangeRelevantBitIdenticalOnFullAndSubQueries) {
  SearchScratch scratch;
  Rng rng(GetParam() + 9);
  for (int trial = 0; trial < 25; ++trial) {
    const CoskqQuery q = test::MakeRandomQuery(dataset_, 3 + trial % 3,
                                               GetParam() * 13 + trial);
    scratch.BeginQuery(q.location, q.keywords);
    const double radius = 0.05 + 0.5 * rng.UniformDouble();
    const Circle circle(q.location, radius);

    // Full q.ψ and the single-keyword subsets the solvers actually issue.
    std::vector<TermSet> probes = {q.keywords};
    for (TermId t : q.keywords) {
      probes.push_back(TermSet{t});
    }
    for (const TermSet& probe : probes) {
      std::vector<ObjectId> base_out;
      std::vector<uint32_t> base_log;
      tree_->RangeRelevant(circle, probe, &base_out, &base_log);

      std::vector<ObjectId> mask_out;
      std::vector<uint32_t> mask_log;
      scratch.set_visit_log(&mask_log);
      tree_->RangeRelevant(circle, probe, &mask_out, &scratch);
      scratch.set_visit_log(nullptr);

      EXPECT_EQ(mask_out, base_out);
      EXPECT_EQ(mask_log, base_log) << "node expansion order diverged";
    }
    scratch.FinishQuery();
  }
}

TEST_P(MaskedTraversalTest, RelevantStreamYieldsIdenticalSequences) {
  SearchScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    const CoskqQuery q = test::MakeRandomQuery(dataset_, 4,
                                               GetParam() * 17 + trial);
    scratch.BeginQuery(q.location, q.keywords);
    IrTree::RelevantStream base(tree_.get(), q.location, q.keywords);
    IrTree::RelevantStream masked(tree_.get(), q.location, q.keywords,
                                  &scratch);
    while (true) {
      const auto want = base.Next();
      const auto got = masked.Next();
      ASSERT_EQ(got.has_value(), want.has_value());
      if (!want.has_value()) {
        break;
      }
      EXPECT_EQ(got->first, want->first);
      EXPECT_EQ(got->second, want->second);
    }
    scratch.FinishQuery();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedTraversalTest,
                         ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace coskq
