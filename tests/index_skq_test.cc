// Tests for the IR-tree's classical spatial-keyword queries (boolean kNN
// and top-k ranked retrieval), validated against brute-force scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "index/irtree.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

std::vector<std::pair<ObjectId, double>> BruteBooleanKnn(
    const Dataset& ds, const Point& p, const TermSet& required, size_t k) {
  std::vector<std::pair<ObjectId, double>> all;
  for (const SpatialObject& obj : ds.objects()) {
    if (TermSetIsSubset(required, obj.keywords)) {
      all.emplace_back(obj.id, Distance(p, obj.location));
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second < b.second;
    }
    return a.first < b.first;
  });
  if (all.size() > k) {
    all.resize(k);
  }
  return all;
}

double BruteScore(const SpatialObject& obj, const Point& p,
                  const TermSet& terms, double alpha, double diag) {
  const double rel =
      static_cast<double>(TermSetIntersectionSize(obj.keywords, terms)) /
      static_cast<double>(terms.size());
  return alpha * Distance(p, obj.location) / diag +
         (1.0 - alpha) * (1.0 - rel);
}

class BooleanKnnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BooleanKnnTest, MatchesBruteForce) {
  Dataset ds = test::MakeRandomDataset(600, 30, 4.0, GetParam());
  IrTree tree(&ds);
  Rng rng(GetParam() + 77);
  for (int trial = 0; trial < 25; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    TermSet required;
    const size_t num_required = 1 + rng.UniformUint64(2);
    for (size_t i = 0; i < num_required; ++i) {
      required.push_back(static_cast<TermId>(rng.UniformUint64(30)));
    }
    NormalizeTermSet(&required);
    const size_t k = 1 + rng.UniformUint64(8);
    const auto got = tree.BooleanKnn(p, required, k);
    const auto want = BruteBooleanKnn(ds, p, required, k);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // Distances match exactly; ties may differ in witness.
      EXPECT_DOUBLE_EQ(got[i].second, want[i].second);
      EXPECT_TRUE(TermSetIsSubset(required, ds.object(got[i].first).keywords));
    }
    // Ascending distances.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(got[i - 1].second, got[i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BooleanKnnTest,
                         ::testing::Values(61, 62, 63));

TEST(BooleanKnnTest, NoMatchingObject) {
  Dataset ds;
  ds.AddObject(Point{0, 0}, {"a"});
  ds.AddObject(Point{1, 1}, {"b"});
  IrTree tree(&ds);
  // No single object has both keywords.
  TermSet both{ds.vocabulary().Find("a"), ds.vocabulary().Find("b")};
  NormalizeTermSet(&both);
  EXPECT_TRUE(tree.BooleanKnn(Point{0, 0}, both, 3).empty());
}

TEST(BooleanKnnTest, EmptyRequirementIsPlainKnn) {
  Dataset ds = test::MakeRandomDataset(100, 10, 3.0, 64);
  IrTree tree(&ds);
  const auto got = tree.BooleanKnn(Point{0.5, 0.5}, {}, 5);
  ASSERT_EQ(got.size(), 5u);
  const auto want = BruteBooleanKnn(ds, Point{0.5, 0.5}, {}, 5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(got[i].second, want[i].second);
  }
}

class TopkRankedTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(TopkRankedTest, MatchesBruteForceScores) {
  const auto [seed, alpha] = GetParam();
  Dataset ds = test::MakeRandomDataset(500, 25, 4.0, seed);
  IrTree tree(&ds);
  const Rect mbr = ds.mbr();
  const double diag =
      Distance(Point{mbr.min_x, mbr.min_y}, Point{mbr.max_x, mbr.max_y});
  Rng rng(seed + 5);
  for (int trial = 0; trial < 10; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    TermSet terms;
    for (int i = 0; i < 3; ++i) {
      terms.push_back(static_cast<TermId>(rng.UniformUint64(25)));
    }
    NormalizeTermSet(&terms);
    const size_t k = 7;
    const auto got = tree.TopkRanked(p, terms, k, alpha);
    ASSERT_EQ(got.size(), k);
    // Brute-force score ranking.
    std::vector<double> scores;
    for (const SpatialObject& obj : ds.objects()) {
      scores.push_back(BruteScore(obj, p, terms, alpha, diag));
    }
    std::sort(scores.begin(), scores.end());
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(got[i].second, scores[i], 1e-12);
      // Returned score must be the object's true score.
      EXPECT_NEAR(got[i].second,
                  BruteScore(ds.object(got[i].first), p, terms, alpha,
                             diag),
                  1e-12);
    }
    for (size_t i = 1; i < k; ++i) {
      EXPECT_LE(got[i - 1].second, got[i].second + 1e-15);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopkRankedTest,
    ::testing::Combine(::testing::Values<uint64_t>(71, 72),
                       ::testing::Values(0.0, 0.3, 0.7, 1.0)));

TEST(TopkRankedTest, AlphaOneIsPureDistance) {
  Dataset ds = test::MakeRandomDataset(200, 15, 3.0, 73);
  IrTree tree(&ds);
  const Point p{0.4, 0.4};
  TermSet terms{0, 1};
  const auto ranked = tree.TopkRanked(p, terms, 5, 1.0);
  const auto knn = tree.BooleanKnn(p, {}, 5);
  ASSERT_EQ(ranked.size(), knn.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        Distance(p, ds.object(ranked[i].first).location), knn[i].second);
  }
}

TEST(TopkRankedTest, AlphaZeroIsPureRelevance) {
  Dataset ds;
  ds.AddObject(Point{0.9, 0.9}, {"a", "b"});  // Far but fully relevant.
  ds.AddObject(Point{0.0, 0.0}, {"a"});       // Near, half relevant.
  ds.AddObject(Point{0.1, 0.0}, {"c"});       // Near, irrelevant.
  IrTree tree(&ds);
  TermSet terms{ds.vocabulary().Find("a"), ds.vocabulary().Find("b")};
  NormalizeTermSet(&terms);
  const auto ranked = tree.TopkRanked(Point{0, 0}, terms, 3, 0.0);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, 0u);
  EXPECT_NEAR(ranked[0].second, 0.0, 1e-15);
  EXPECT_EQ(ranked[2].first, 2u);
}

class SkqLiveSetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkqLiveSetTest, BothQueriesAnswerOverTheLiveSet) {
  // Seeded Insert/Remove runs over a tree built on a prefix of the dataset:
  // tombstoned objects must never come back and pending inserts must
  // compete, so both queries match brute force over the live set. TopkRanked
  // normalizes by the indexed region: the frozen base's MBR (tombstones
  // included) grown by the pending inserts.
  Dataset ds = test::MakeRandomDataset(600, 30, 4.0, GetParam());
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < 450; ++id) {
    base.push_back(id);
  }
  IrTree tree(&ds, IrTree::Options(), base);
  std::vector<bool> live(ds.NumObjects(), false);
  for (ObjectId id : base) {
    live[id] = true;
  }
  Rng rng(GetParam() + 3);
  for (int op = 0; op < 200; ++op) {
    const ObjectId id =
        static_cast<ObjectId>(rng.UniformUint64(ds.NumObjects()));
    ASSERT_TRUE(live[id] ? tree.Remove(id).ok() : tree.Insert(id).ok());
    live[id] = !live[id];
  }
  ASSERT_GT(tree.delta_size(), 0u);
  tree.CheckInvariants();
  Rect region;
  for (ObjectId id = 0; id < ds.NumObjects(); ++id) {
    if (id < base.size() || live[id]) {
      region.ExpandToInclude(ds.object(id).location);
    }
  }
  const double diag = Distance(Point{region.min_x, region.min_y},
                               Point{region.max_x, region.max_y});

  const auto check_boolean_knn = [&](const Point& p, const TermSet& required,
                                     size_t k) {
    std::vector<std::pair<ObjectId, double>> want;
    for (const SpatialObject& obj : ds.objects()) {
      if (live[obj.id] && TermSetIsSubset(required, obj.keywords)) {
        want.emplace_back(obj.id, Distance(p, obj.location));
      }
    }
    std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      return a.second < b.second;
    });
    want.resize(std::min(want.size(), k));
    const auto got = tree.BooleanKnn(p, required, k);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].second, want[i].second);
      EXPECT_TRUE(live[got[i].first]);
      EXPECT_TRUE(
          TermSetIsSubset(required, ds.object(got[i].first).keywords));
    }
  };
  for (int trial = 0; trial < 25; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    TermSet terms{static_cast<TermId>(rng.UniformUint64(30)),
                  static_cast<TermId>(rng.UniformUint64(30))};
    NormalizeTermSet(&terms);
    const size_t k = 1 + rng.UniformUint64(8);
    check_boolean_knn(p, TermSet{terms.front()}, k);
    check_boolean_knn(p, {}, k);

    const double alpha = 0.25 * static_cast<double>(trial % 5);
    std::vector<double> scores;
    for (const SpatialObject& obj : ds.objects()) {
      if (live[obj.id]) {
        scores.push_back(BruteScore(obj, p, terms, alpha, diag));
      }
    }
    std::sort(scores.begin(), scores.end());
    const auto got = tree.TopkRanked(p, terms, k, alpha);
    ASSERT_EQ(got.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(got[i].second, scores[i]);
      EXPECT_TRUE(live[got[i].first]);
      EXPECT_DOUBLE_EQ(
          got[i].second,
          BruteScore(ds.object(got[i].first), p, terms, alpha, diag));
    }
  }

  // Folding the delta changes no BooleanKnn answer.
  tree.Freeze();
  EXPECT_EQ(tree.delta_size(), 0u);
  for (int trial = 0; trial < 10; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    check_boolean_knn(p, TermSet{static_cast<TermId>(rng.UniformUint64(30))},
                      5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkqLiveSetTest,
                         ::testing::Values(81, 82, 83));

}  // namespace
}  // namespace coskq
