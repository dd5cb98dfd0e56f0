// Race coverage for the background refreeze (DESIGN.md §13), written to run
// under ThreadSanitizer (the CI TSan job executes this binary explicitly):
// a writer thread applies a stream of inserts/removes and keeps kicking
// RefreezeAsync() while a saturating batch of query threads hammers every
// merged query path through the BatchEngine. In-flight queries must finish
// on the view they pinned — no torn reads, no lock-order inversions — and
// once the writer stops, the tree must agree with a from-scratch freeze over
// the surviving live set.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

constexpr size_t kNumObjects = 400;
constexpr size_t kBaseObjects = 300;
constexpr size_t kVocab = 30;

TEST(RefreezeRaceTest, QueriesRaceMutationsAndBackgroundRefreezes) {
  Dataset dataset = test::MakeRandomDataset(kNumObjects, kVocab, 3.0, 11);
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < kBaseObjects; ++id) {
    base.push_back(id);
  }
  IrTree tree(&dataset, IrTree::Options(), base);
  const CoskqContext context{&dataset, &tree};

  std::vector<CoskqQuery> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(test::MakeRandomQuery(dataset, 3 + i % 3, 500 + i));
  }

  std::atomic<bool> stop{false};
  std::set<ObjectId> live(base.begin(), base.end());

  // Writer: random delta mutations with a refreeze kicked every few ops, so
  // swaps overlap the query storm instead of happening between batches.
  std::thread writer([&] {
    Rng rng(97);
    int ops = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<ObjectId> dead;
      for (ObjectId id = 0; id < kNumObjects; ++id) {
        if (live.count(id) == 0) {
          dead.push_back(id);
        }
      }
      const bool do_insert =
          live.empty() ||
          (!dead.empty() && rng.UniformDouble(0.0, 1.0) < 0.5);
      if (do_insert) {
        const ObjectId id =
            dead[static_cast<size_t>(rng.UniformUint64(dead.size()))];
        ASSERT_TRUE(tree.Insert(id).ok());
        live.insert(id);
      } else {
        std::vector<ObjectId> alive(live.begin(), live.end());
        const ObjectId id =
            alive[static_cast<size_t>(rng.UniformUint64(alive.size()))];
        ASSERT_TRUE(tree.Remove(id).ok());
        live.erase(id);
      }
      if (++ops % 5 == 0) {
        tree.RefreezeAsync();
      }
    }
  });

  // Readers: saturating solver batches through the BatchEngine (each query
  // runs under its own pinned ReadGuard view).
  BatchOptions options;
  options.solver_name = "maxsum-appro";
  options.num_threads = 8;
  const BatchEngine engine(context, options);
  uint64_t executed = 0;
  for (int round = 0; round < 12; ++round) {
    const BatchOutcome outcome = engine.Run(queries);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    executed += outcome.stats.executed;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  tree.WaitForRefreeze();
  EXPECT_EQ(executed, 12u * queries.size());
  EXPECT_GT(tree.mutations_applied(), 0u);

  // Post-join: the tree agrees with a from-scratch freeze over the live set
  // the writer left behind, and a final fold drains the delta.
  tree.CheckInvariants();
  ASSERT_EQ(tree.size(), live.size());
  ASSERT_TRUE(tree.Refreeze().ok());
  EXPECT_EQ(tree.delta_size(), 0u);

  const std::vector<ObjectId> live_ids(live.begin(), live.end());
  IrTree ref(&dataset, IrTree::Options(), live_ids);
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    for (TermId t = 0; t < kVocab; ++t) {
      double want_d = 0.0;
      double got_d = 0.0;
      const ObjectId want = ref.KeywordNn(p, t, &want_d);
      const ObjectId got = tree.KeywordNn(p, t, &got_d);
      ASSERT_EQ(got, want);
      if (want != kInvalidObjectId) {
        ASSERT_EQ(got_d, want_d);
      }
    }
  }
}

TEST(RefreezeRaceTest, StreamsPinTheirViewAcrossASwap) {
  // A RelevantStream opened before a refreeze must drain its pinned view
  // even when mutations and a swap land mid-drain.
  Dataset dataset = test::MakeRandomDataset(200, 20, 3.0, 23);
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < 150; ++id) {
    base.push_back(id);
  }
  IrTree tree(&dataset, IrTree::Options(), base);
  const CoskqQuery q = test::MakeRandomQuery(dataset, 3, 91);

  // Reference drain of the pre-mutation view.
  std::vector<std::pair<ObjectId, double>> want;
  {
    IrTree::RelevantStream stream(&tree, q.location, q.keywords);
    while (auto next = stream.Next()) {
      want.push_back(*next);
    }
  }

  std::vector<std::pair<ObjectId, double>> got;
  {
    // The stream's guard holds the swap shared: it must be destroyed before
    // WaitForRefreeze below, or the swap (unique) could never be granted.
    IrTree::RelevantStream stream(&tree, q.location, q.keywords);
    for (int i = 0; i < 5; ++i) {
      if (auto next = stream.Next()) {
        got.push_back(*next);
      }
    }
    // Mutate + refreeze concurrently with the half-drained stream. The swap
    // must wait for (or overlap safely with) the stream's guard; either way
    // the stream's remaining output is the old view's.
    std::thread mutator([&] {
      ASSERT_TRUE(tree.Insert(170).ok());
      ASSERT_TRUE(tree.Remove(3).ok());
      tree.RefreezeAsync();
    });
    while (auto next = stream.Next()) {
      got.push_back(*next);
    }
    mutator.join();
  }
  tree.WaitForRefreeze();
  EXPECT_EQ(got, want);

  // A stream opened after the swap sees the new logical set.
  std::set<ObjectId> new_view;
  {
    IrTree::RelevantStream after(&tree, q.location, q.keywords);
    while (auto next = after.Next()) {
      new_view.insert(next->first);
    }
  }
  EXPECT_EQ(new_view.count(3), 0u);
  tree.CheckInvariants();
}

}  // namespace
}  // namespace coskq
