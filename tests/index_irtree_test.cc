#include "index/irtree.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <limits>

#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

// Brute-force keyword NN over the dataset.
ObjectId BruteKeywordNn(const Dataset& ds, const Point& p, TermId t,
                        double* dist) {
  ObjectId best = kInvalidObjectId;
  double best_d = std::numeric_limits<double>::infinity();
  for (const SpatialObject& obj : ds.objects()) {
    if (!obj.ContainsTerm(t)) {
      continue;
    }
    const double d = Distance(p, obj.location);
    if (d < best_d) {
      best_d = d;
      best = obj.id;
    }
  }
  *dist = best_d;
  return best;
}

TEST(IrTreeTest, EmptyDataset) {
  Dataset ds;
  IrTree tree(&ds);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Height(), 0);
  double d = 0.0;
  EXPECT_EQ(tree.KeywordNn(Point{0, 0}, 0, &d), kInvalidObjectId);
  tree.CheckInvariants();
}

TEST(IrTreeTest, BulkLoadInvariants) {
  Dataset ds = test::MakeRandomDataset(2000, 100, 4.0, 11);
  IrTree tree(&ds);
  EXPECT_EQ(tree.size(), 2000u);
  tree.CheckInvariants();
  EXPECT_GT(tree.Height(), 1);
}

class IrTreeKeywordNnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IrTreeKeywordNnTest, MatchesBruteForce) {
  Dataset ds = test::MakeRandomDataset(800, 80, 4.0, GetParam());
  IrTree tree(&ds);
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 60; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    const TermId t = static_cast<TermId>(rng.UniformUint64(80));
    double got_d = 0.0;
    double want_d = 0.0;
    const ObjectId got = tree.KeywordNn(p, t, &got_d);
    const ObjectId want = BruteKeywordNn(ds, p, t, &want_d);
    if (want == kInvalidObjectId) {
      EXPECT_EQ(got, kInvalidObjectId);
      continue;
    }
    ASSERT_NE(got, kInvalidObjectId);
    // Distances must match exactly (ties may pick a different witness).
    EXPECT_DOUBLE_EQ(got_d, want_d);
    EXPECT_TRUE(ds.object(got).ContainsTerm(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrTreeKeywordNnTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(IrTreeTest, NnSetCoversEveryKeywordWithNearest) {
  Dataset ds = test::MakeRandomDataset(600, 50, 3.5, 31);
  IrTree tree(&ds);
  Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    const CoskqQuery q = test::MakeRandomQuery(ds, 5, 33 + trial);
    TermSet missing;
    const auto set = tree.NnSet(q.location, q.keywords, &missing);
    EXPECT_TRUE(missing.empty());
    for (TermId t : q.keywords) {
      double want_d = 0.0;
      BruteKeywordNn(ds, q.location, t, &want_d);
      // Some member of the NN set containing t must be at the NN distance.
      double best = std::numeric_limits<double>::infinity();
      for (ObjectId id : set) {
        if (ds.object(id).ContainsTerm(t)) {
          best = std::min(best, Distance(q.location, ds.object(id).location));
        }
      }
      EXPECT_DOUBLE_EQ(best, want_d);
    }
  }
}

TEST(IrTreeTest, NnSetReportsMissingKeywords) {
  Dataset ds;
  ds.AddObject(Point{0, 0}, {"a"});
  IrTree tree(&ds);
  TermSet query{0, 42};  // "a" and an unknown term.
  TermSet missing;
  const auto set = tree.NnSet(Point{0, 0}, query, &missing);
  EXPECT_EQ(set, (std::vector<ObjectId>{0}));
  EXPECT_EQ(missing, (TermSet{42}));
}

class IrTreeRangeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IrTreeRangeTest, RangeRelevantMatchesBruteForce) {
  Dataset ds = test::MakeRandomDataset(700, 60, 4.0, GetParam());
  IrTree tree(&ds);
  Rng rng(GetParam() + 900);
  for (int trial = 0; trial < 25; ++trial) {
    const Circle circle(Point{rng.UniformDouble(), rng.UniformDouble()},
                        rng.UniformDouble(0.02, 0.5));
    TermSet terms;
    for (int k = 0; k < 3; ++k) {
      terms.push_back(static_cast<TermId>(rng.UniformUint64(60)));
    }
    NormalizeTermSet(&terms);
    std::vector<ObjectId> got;
    tree.RangeRelevant(circle, terms, &got);
    std::sort(got.begin(), got.end());
    std::vector<ObjectId> want;
    for (const SpatialObject& obj : ds.objects()) {
      if (circle.Contains(obj.location) && obj.ContainsAnyOf(terms)) {
        want.push_back(obj.id);
      }
    }
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrTreeRangeTest,
                         ::testing::Values(41, 42, 43));

TEST(IrTreeTest, RelevantStreamIsSortedAndComplete) {
  Dataset ds = test::MakeRandomDataset(500, 40, 4.0, 55);
  IrTree tree(&ds);
  Rng rng(56);
  for (int trial = 0; trial < 10; ++trial) {
    const Point origin{rng.UniformDouble(), rng.UniformDouble()};
    TermSet terms{static_cast<TermId>(rng.UniformUint64(40)),
                  static_cast<TermId>(rng.UniformUint64(40))};
    NormalizeTermSet(&terms);
    IrTree::RelevantStream stream(&tree, origin, terms);
    std::vector<ObjectId> got;
    double last = -1.0;
    while (auto next = stream.Next()) {
      EXPECT_GE(next->second, last);
      last = next->second;
      EXPECT_DOUBLE_EQ(next->second,
                       Distance(origin, ds.object(next->first).location));
      EXPECT_TRUE(ds.object(next->first).ContainsAnyOf(terms));
      got.push_back(next->first);
    }
    std::sort(got.begin(), got.end());
    std::vector<ObjectId> want;
    for (const SpatialObject& obj : ds.objects()) {
      if (obj.ContainsAnyOf(terms)) {
        want.push_back(obj.id);
      }
    }
    EXPECT_EQ(got, want);
  }
}

TEST(IrTreeTest, DynamicInsertMatchesBulk) {
  // Every object inserted one at a time through the delta overlay, into a
  // tree built over none of them, answers like the bulk-loaded tree; a
  // duplicate insert is rejected; and folding the delta rebuilds exactly
  // the bulk tree, down to node-visit logs.
  Dataset ds = test::MakeRandomDataset(300, 30, 3.0, 61);
  const IrTree::Options options{8};
  IrTree bulk(&ds, options);
  IrTree dynamic(&ds, options, std::vector<ObjectId>());
  EXPECT_EQ(dynamic.size(), 0u);
  for (const SpatialObject& obj : ds.objects()) {
    ASSERT_TRUE(dynamic.Insert(obj.id).ok());
  }
  dynamic.CheckInvariants();
  EXPECT_EQ(dynamic.size(), ds.NumObjects());
  EXPECT_EQ(dynamic.Insert(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.size(), ds.NumObjects());

  Rng rng(62);
  const auto same_answers = [&](bool same_visits) {
    for (int trial = 0; trial < 30; ++trial) {
      const Point p{rng.UniformDouble(), rng.UniformDouble()};
      const TermId t = static_cast<TermId>(rng.UniformUint64(30));
      double d_bulk = 0.0;
      double d_dyn = 0.0;
      std::vector<uint32_t> log_bulk;
      std::vector<uint32_t> log_dyn;
      const ObjectId a = bulk.KeywordNn(p, t, &d_bulk, &log_bulk);
      const ObjectId b = dynamic.KeywordNn(p, t, &d_dyn, &log_dyn);
      EXPECT_EQ(a == kInvalidObjectId, b == kInvalidObjectId);
      if (a != kInvalidObjectId) {
        EXPECT_EQ(d_bulk, d_dyn);
      }
      if (same_visits) {
        EXPECT_EQ(a, b);
        EXPECT_EQ(log_bulk, log_dyn);
      }
    }
  };
  same_answers(/*same_visits=*/false);
  dynamic.Freeze();
  EXPECT_EQ(dynamic.delta_size(), 0u);
  dynamic.CheckInvariants();
  EXPECT_EQ(dynamic.NodeCount(), bulk.NodeCount());
  EXPECT_EQ(dynamic.Height(), bulk.Height());
  same_answers(/*same_visits=*/true);
}

TEST(IrTreeTest, RefreezeAfterMutationsFoldsDeltaRepeatedly) {
  // Mutate through the delta, then Freeze(): each fold must drain
  // the delta, bump the epoch, and leave queries identical to a brute-force
  // scan of the live set. Two full cycles catch state leaking across folds.
  Dataset ds = test::MakeRandomDataset(260, 30, 3.0, 81);
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < 200; ++id) {
    base.push_back(id);
  }
  IrTree tree(&ds, IrTree::Options(), base);
  std::vector<bool> live(ds.NumObjects(), false);
  for (ObjectId id : base) {
    live[id] = true;
  }

  Rng rng(82);
  for (int cycle = 0; cycle < 2; ++cycle) {
    const uint64_t epoch_before = tree.epoch();
    int mutated = 0;
    for (int op = 0; op < 25; ++op) {
      const ObjectId id = static_cast<ObjectId>(rng.UniformUint64(ds.NumObjects()));
      if (live[id]) {
        ASSERT_TRUE(tree.Remove(id).ok());
        live[id] = false;
      } else {
        ASSERT_TRUE(tree.Insert(id).ok());
        live[id] = true;
      }
      ++mutated;
    }
    ASSERT_GT(mutated, 0);
    EXPECT_GT(tree.delta_size(), 0u);
    tree.Freeze();  // Re-Freeze folds the delta in place.
    EXPECT_EQ(tree.delta_size(), 0u);
    EXPECT_EQ(tree.epoch(), epoch_before + 1);
    tree.CheckInvariants();
    const size_t want_size =
        static_cast<size_t>(std::count(live.begin(), live.end(), true));
    EXPECT_EQ(tree.size(), want_size);

    // Post-fold queries match a brute-force scan restricted to the live set.
    for (int trial = 0; trial < 20; ++trial) {
      const Point p{rng.UniformDouble(), rng.UniformDouble()};
      const TermId t = static_cast<TermId>(rng.UniformUint64(30));
      ObjectId want = kInvalidObjectId;
      double want_d = std::numeric_limits<double>::infinity();
      for (const SpatialObject& obj : ds.objects()) {
        if (!live[obj.id] || !obj.ContainsTerm(t)) {
          continue;
        }
        const double d = Distance(p, obj.location);
        if (d < want_d) {
          want_d = d;
          want = obj.id;
        }
      }
      double got_d = 0.0;
      const ObjectId got = tree.KeywordNn(p, t, &got_d);
      if (want == kInvalidObjectId) {
        EXPECT_EQ(got, kInvalidObjectId);
      } else {
        ASSERT_NE(got, kInvalidObjectId);
        EXPECT_DOUBLE_EQ(got_d, want_d);
        EXPECT_TRUE(live[got]);
        EXPECT_TRUE(ds.object(got).ContainsTerm(t));
      }
    }
  }
}

TEST(IrTreeTest, NodeCountGrowsWithData) {
  Dataset small = test::MakeRandomDataset(50, 20, 3.0, 71);
  Dataset large = test::MakeRandomDataset(5000, 20, 3.0, 72);
  IrTree t1(&small);
  IrTree t2(&large);
  EXPECT_LT(t1.NodeCount(), t2.NodeCount());
  EXPECT_LE(t1.Height(), t2.Height());
}

TEST(IrTreeFootprintTest, ConstructionKeepsOnlyTheBodyAndLiveBitmap) {
  // A built tree holds its frozen body, one membership byte per object and
  // a few fixed-size members; every build temporary is gone once the
  // constructor returns. mallinfo2 counts the heap in use, mapped blocks
  // included, so this is exact in an optimized build; sanitizers and debug
  // builds bring their own allocator behavior.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "heap accounting runs in optimized, unsanitized builds";
#else
  const Dataset ds = test::MakeRandomDataset(200000, 2000, 3.0, 91);
  const auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const size_t before = heap_in_use();
  const IrTree tree(&ds);
  const size_t grown = heap_in_use() - before;
  EXPECT_LE(grown, tree.MemoryStats().body_bytes + ds.NumObjects() +
                       (size_t{1} << 20));
#endif
}

}  // namespace
}  // namespace coskq
