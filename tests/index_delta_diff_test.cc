// Differential update-interleaving harness for the live-update delta layer
// (DESIGN.md §13), over seeds 0-49: starting from a frozen base of 80 of the
// dataset's 120 objects, random insert/remove interleavings are applied to
// the delta overlay and, at every checkpoint, every query path (KeywordNn,
// NnSet, RangeRelevant, RelevantStream) and every registry solver (both cost
// types, masked and baseline) must be *bit-identical* to a reference tree
// frozen from scratch over the same logical live set. This enforces the
// delta-merge contract: the overlay changes where mutations live, never what
// queries answer.
//
// The harness also folds the delta mid-test — synchronously via Freeze() and
// via Refreeze() — and re-verifies, plus metamorphic checks: disjoint-id
// mutation scripts applied in shuffled orders must converge to identical
// trees, and an insert/remove (or remove/insert) pair on one id must cancel
// to an empty delta.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/solvers.h"
#include "geo/circle.h"
#include "index/irtree.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

constexpr size_t kNumObjects = 120;
constexpr size_t kBaseObjects = 80;
constexpr size_t kVocab = 25;

const char* const kSolverNames[] = {
    "maxsum-exact",      "dia-exact",        "maxsum-appro",
    "dia-appro",         "cao-exact-maxsum", "cao-exact-dia",
    "cao-appro1-maxsum", "cao-appro1-dia",   "cao-appro2-maxsum",
    "cao-appro2-dia",
};

/// A drained RelevantStream, canonicalized by (distance, id) so content and
/// distances are compared bit-exactly while distance ties (distinct objects
/// at equal distance) stay order-insensitive.
std::vector<std::pair<ObjectId, double>> DrainStream(const IrTree* tree,
                                                     const Point& origin,
                                                     const TermSet& terms) {
  std::vector<std::pair<ObjectId, double>> out;
  IrTree::RelevantStream stream(tree, origin, terms);
  double prev = 0.0;
  while (auto next = stream.Next()) {
    EXPECT_GE(next->second, prev) << "stream emitted out of distance order";
    prev = next->second;
    out.push_back(*next);
  }
  std::sort(out.begin(), out.end(),
            [](const std::pair<ObjectId, double>& a,
               const std::pair<ObjectId, double>& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  return out;
}

class DeltaDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    seed_ = GetParam();
    dataset_ = test::MakeRandomDataset(kNumObjects, kVocab, 3.0, seed_ + 1);
    std::vector<ObjectId> base;
    for (ObjectId id = 0; id < kBaseObjects; ++id) {
      base.push_back(id);
    }
    tree_ = std::make_unique<IrTree>(&dataset_, IrTree::Options(), base);
    live_.insert(base.begin(), base.end());
    for (int i = 0; i < 3; ++i) {
      queries_.push_back(
          test::MakeRandomQuery(dataset_, 3 + i, seed_ * 1000 + i));
    }
  }

  std::vector<ObjectId> LiveIds() const {
    return std::vector<ObjectId>(live_.begin(), live_.end());
  }

  /// One random mutation against tree_ and the model set: an insert of a
  /// currently-dead id (fresh tail ids and tombstoned base ids alike, so
  /// resurrection is exercised) or a remove of a live one.
  void ApplyRandomOp(Rng* rng) {
    std::vector<ObjectId> dead;
    for (ObjectId id = 0; id < kNumObjects; ++id) {
      if (live_.count(id) == 0) {
        dead.push_back(id);
      }
    }
    const bool do_insert =
        live_.empty() ||
        (!dead.empty() && rng->UniformDouble(0.0, 1.0) < 0.5);
    if (do_insert) {
      const ObjectId id =
          dead[static_cast<size_t>(rng->UniformUint64(dead.size()))];
      ASSERT_TRUE(tree_->Insert(id).ok()) << "insert " << id;
      live_.insert(id);
    } else {
      std::vector<ObjectId> alive(live_.begin(), live_.end());
      const ObjectId id =
          alive[static_cast<size_t>(rng->UniformUint64(alive.size()))];
      ASSERT_TRUE(tree_->Remove(id).ok()) << "remove " << id;
      live_.erase(id);
    }
  }

  /// The core differential check: every query path against a reference tree
  /// frozen from scratch over the identical live set.
  void ExpectMatchesReference(Rng* rng) {
    const std::vector<ObjectId> live = LiveIds();
    IrTree ref(&dataset_, IrTree::Options(), live);
    ASSERT_EQ(tree_->size(), live.size());
    tree_->CheckInvariants();

    // KeywordNn: random origins x the whole vocabulary.
    for (int trial = 0; trial < 4; ++trial) {
      const Point p{rng->UniformDouble(), rng->UniformDouble()};
      for (TermId t = 0; t < kVocab; ++t) {
        double want_d = 0.0;
        double got_d = 0.0;
        const ObjectId want = ref.KeywordNn(p, t, &want_d);
        const ObjectId got = tree_->KeywordNn(p, t, &got_d);
        ASSERT_EQ(got, want) << "KeywordNn term " << t;
        if (want != kInvalidObjectId) {
          ASSERT_EQ(got_d, want_d);  // Bit-identical, no tolerance.
        }
      }
    }

    for (const CoskqQuery& q : queries_) {
      // NnSet (deduplicated, id-sorted: directly comparable).
      TermSet want_missing;
      TermSet got_missing;
      const std::vector<ObjectId> want_nn =
          ref.NnSet(q.location, q.keywords, &want_missing);
      const std::vector<ObjectId> got_nn =
          tree_->NnSet(q.location, q.keywords, &got_missing);
      EXPECT_EQ(got_nn, want_nn);
      EXPECT_EQ(got_missing, want_missing);

      // RangeRelevant (exact set; merged output interleaves differently, so
      // compare sorted).
      const double radius = 0.1 + 0.4 * rng->UniformDouble();
      const Circle circle(q.location, radius);
      std::vector<ObjectId> want_range;
      std::vector<ObjectId> got_range;
      ref.RangeRelevant(circle, q.keywords, &want_range);
      tree_->RangeRelevant(circle, q.keywords, &got_range);
      std::sort(want_range.begin(), want_range.end());
      std::sort(got_range.begin(), got_range.end());
      EXPECT_EQ(got_range, want_range);

      // RelevantStream: full drains, ascending distance, bit-identical
      // (id, distance) content.
      EXPECT_EQ(DrainStream(tree_.get(), q.location, q.keywords),
                DrainStream(&ref, q.location, q.keywords));
    }
  }

  /// Every registry solver (both cost types), masked and baseline, must
  /// produce bit-identical results over the delta'd tree and the reference.
  void ExpectSolversMatchReference() {
    const std::vector<ObjectId> live = LiveIds();
    IrTree ref(&dataset_, IrTree::Options(), live);
    const CoskqContext live_ctx{&dataset_, tree_.get()};
    const CoskqContext ref_ctx{&dataset_, &ref};
    for (const bool use_masks : {false, true}) {
      SolverOptions options;
      options.use_query_masks = use_masks;
      for (const char* name : kSolverNames) {
        auto want_solver = MakeSolver(name, ref_ctx, options);
        auto got_solver = MakeSolver(name, live_ctx, options);
        ASSERT_NE(want_solver, nullptr) << name;
        ASSERT_NE(got_solver, nullptr) << name;
        for (size_t i = 0; i < queries_.size(); ++i) {
          SCOPED_TRACE(std::string(name) +
                       (use_masks ? " masked" : " baseline") + " query " +
                       std::to_string(i));
          const CoskqResult want = want_solver->Solve(queries_[i]);
          const CoskqResult got = got_solver->Solve(queries_[i]);
          EXPECT_EQ(got.feasible, want.feasible);
          EXPECT_EQ(got.set, want.set);
          EXPECT_EQ(got.cost, want.cost);  // Bit-identical, no tolerance.
        }
      }
    }
  }

  uint64_t seed_ = 0;
  Dataset dataset_;
  std::unique_ptr<IrTree> tree_;
  std::set<ObjectId> live_;
  std::vector<CoskqQuery> queries_;
};

TEST_P(DeltaDiffTest, InterleavedMutationsMatchFromScratchFreeze) {
  Rng op_rng(seed_ * 31 + 7);
  Rng query_rng(seed_ * 977 + 13);
  for (int checkpoint = 0; checkpoint < 3; ++checkpoint) {
    for (int op = 0; op < 12; ++op) {
      ApplyRandomOp(&op_rng);
    }
    SCOPED_TRACE("checkpoint " + std::to_string(checkpoint) + " delta=" +
                 std::to_string(tree_->delta_size()));
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(&query_rng));
  }
  EXPECT_GT(tree_->delta_size(), 0u);
  ExpectSolversMatchReference();

  // Fold the delta via Refreeze(): the logical answers must not move, the
  // delta must drain, and the epoch must advance exactly once.
  const uint64_t epoch_before = tree_->epoch();
  ASSERT_TRUE(tree_->Refreeze().ok());
  EXPECT_EQ(tree_->delta_size(), 0u);
  EXPECT_EQ(tree_->epoch(), epoch_before + 1);
  EXPECT_EQ(tree_->refreezes_completed(), 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(&query_rng));

  // More mutations on the refrozen body, then the synchronous Freeze() fold
  // path (Freeze on an already-frozen tree delegates to Refreeze).
  for (int op = 0; op < 8; ++op) {
    ApplyRandomOp(&op_rng);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(&query_rng));
  tree_->Freeze();
  EXPECT_EQ(tree_->delta_size(), 0u);
  EXPECT_EQ(tree_->epoch(), epoch_before + 2);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(&query_rng));
  ExpectSolversMatchReference();
}

TEST_P(DeltaDiffTest, ShuffledDisjointScriptsConverge) {
  // A script touching each id at most once commutes: applying it in any
  // order must yield identical logical sets and identical query answers.
  Rng rng(seed_ * 131 + 3);
  std::vector<std::pair<ObjectId, bool>> script;  // (id, is_insert)
  std::set<ObjectId> picked;
  while (script.size() < 20) {
    const ObjectId id =
        static_cast<ObjectId>(rng.UniformUint64(kNumObjects));
    if (!picked.insert(id).second) {
      continue;
    }
    script.emplace_back(id, live_.count(id) == 0);
  }

  std::vector<ObjectId> base_ids;
  for (ObjectId id = 0; id < kBaseObjects; ++id) {
    base_ids.push_back(id);
  }
  IrTree other(&dataset_, IrTree::Options(), base_ids);

  std::vector<std::pair<ObjectId, bool>> shuffled = script;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<size_t>(rng.UniformUint64(i))]);
  }
  for (const auto& [id, is_insert] : script) {
    ASSERT_TRUE(
        (is_insert ? tree_->Insert(id) : tree_->Remove(id)).ok());
    if (is_insert) {
      live_.insert(id);
    } else {
      live_.erase(id);
    }
  }
  for (const auto& [id, is_insert] : shuffled) {
    ASSERT_TRUE((is_insert ? other.Insert(id) : other.Remove(id)).ok());
  }

  ASSERT_EQ(tree_->size(), other.size());
  ASSERT_EQ(tree_->delta_size(), other.delta_size());
  tree_->CheckInvariants();
  other.CheckInvariants();

  Rng query_rng(seed_ * 977 + 13);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(&query_rng));
  for (const CoskqQuery& q : queries_) {
    TermSet m1;
    TermSet m2;
    EXPECT_EQ(tree_->NnSet(q.location, q.keywords, &m1),
              other.NnSet(q.location, q.keywords, &m2));
    EXPECT_EQ(m1, m2);
    EXPECT_EQ(DrainStream(tree_.get(), q.location, q.keywords),
              DrainStream(&other, q.location, q.keywords));
  }
}

TEST_P(DeltaDiffTest, CancellingPairsDrainTheDelta) {
  // Insert-then-remove of a fresh id cancels to nothing...
  const ObjectId fresh = static_cast<ObjectId>(kBaseObjects + seed_ % 40);
  ASSERT_TRUE(tree_->Insert(fresh).ok());
  EXPECT_EQ(tree_->delta_size(), 1u);
  ASSERT_TRUE(tree_->Remove(fresh).ok());
  EXPECT_EQ(tree_->delta_size(), 0u);
  EXPECT_EQ(tree_->size(), kBaseObjects);

  // ...and so does remove-then-reinsert (resurrection) of a base id.
  const ObjectId base_id = static_cast<ObjectId>(seed_ % kBaseObjects);
  ASSERT_TRUE(tree_->Remove(base_id).ok());
  EXPECT_EQ(tree_->delta_size(), 1u);
  ASSERT_TRUE(tree_->Insert(base_id).ok());
  EXPECT_EQ(tree_->delta_size(), 0u);
  EXPECT_EQ(tree_->size(), kBaseObjects);
  tree_->CheckInvariants();

  // The mutation error contract: double-insert of a live id and removal of
  // a never-present id are clean failures, not aborts.
  EXPECT_FALSE(tree_->Insert(base_id).ok());
  EXPECT_FALSE(tree_->Remove(fresh).ok());
  EXPECT_FALSE(tree_->Insert(static_cast<ObjectId>(kNumObjects + 5)).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaDiffTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace coskq
