// Recorded goldens for the solver scratch. Every registry solver answers 64
// seeded queries (2-6 keywords) over a fixed GN-like corpus
// (GnLikeSpec(0.05), 93,441 objects, frozen index). Each record holds the
// answer set, the cost's bits, and the query's distance-memo hits and
// misses, as the corpus-sized dense scratch arrays produced them. The
// compact memo tables compute every value with the same call, so on this
// static index they must reproduce all of it exactly, counters included.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/solvers.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "index/irtree.h"
#include "util/random.h"

namespace coskq {
namespace {

struct GoldenRecord {
  const char* solver;
  size_t query;
  uint64_t cost_bits;
  uint64_t dist_cache_hits;
  uint64_t dist_cache_misses;
  std::vector<ObjectId> set;
};

const GoldenRecord kGoldens[] = {
#include "core_scratch_goldens.inc"
};

constexpr size_t kNumQueries = 64;

class ScratchGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(20130614);
    dataset_ = new Dataset(GenerateSynthetic(GnLikeSpec(0.05), &rng));
    tree_ = new IrTree(dataset_);
    QueryGenerator gen(dataset_);
    Rng query_rng(64);
    queries_ = new std::vector<CoskqQuery>();
    for (size_t i = 0; i < kNumQueries; ++i) {
      queries_->push_back(gen.Generate(2 + i % 5, &query_rng));
    }
  }

  static void TearDownTestSuite() {
    delete queries_;
    delete tree_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static IrTree* tree_;
  static std::vector<CoskqQuery>* queries_;
};

Dataset* ScratchGoldenTest::dataset_ = nullptr;
IrTree* ScratchGoldenTest::tree_ = nullptr;
std::vector<CoskqQuery>* ScratchGoldenTest::queries_ = nullptr;

TEST_F(ScratchGoldenTest, EveryRegistrySolverMatchesRecordedAnswers) {
  ASSERT_EQ(dataset_->NumObjects(), 93441u);
  const std::vector<std::string> names = AvailableSolverNames();
  ASSERT_EQ(std::size(kGoldens), names.size() * kNumQueries);
  const CoskqContext context{dataset_, tree_};
  size_t record = 0;
  for (const std::string& name : names) {
    // One solver per name answers the queries in order, as recorded: its
    // memo tables carry their capacity from query to query.
    std::unique_ptr<CoskqSolver> solver = MakeSolver(name, context);
    ASSERT_NE(solver, nullptr) << name;
    for (size_t i = 0; i < kNumQueries; ++i, ++record) {
      const GoldenRecord& want = kGoldens[record];
      ASSERT_EQ(want.solver, name);
      ASSERT_EQ(want.query, i);
      SCOPED_TRACE(name + " query " + std::to_string(i));
      const CoskqResult got = solver->Solve((*queries_)[i]);
      uint64_t cost_bits = 0;
      std::memcpy(&cost_bits, &got.cost, sizeof(cost_bits));
      EXPECT_EQ(got.set, want.set);
      EXPECT_EQ(cost_bits, want.cost_bits);
      EXPECT_EQ(got.stats.dist_cache_hits, want.dist_cache_hits);
      EXPECT_EQ(got.stats.dist_cache_misses, want.dist_cache_misses);
    }
  }
}

}  // namespace
}  // namespace coskq
