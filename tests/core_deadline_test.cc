// Deadlines before the first owner pair. The exact solvers used to check
// their deadline only in the owner-pair loop, so work that precedes it (the
// approximate seeder's anchor loop, and step-1 pair generation with one
// candidate-tree circle search per candidate) ran unchecked: each of the
// two instances below ran for seconds under a 10 ms deadline. Now both
// must come back within 20x the deadline, truncated, with a feasible
// incumbent whose cost is exactly EvaluateCost of its set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/solvers.h"
#include "index/irtree.h"
#include "util/random.h"
#include "util/timer.h"

namespace coskq {
namespace {

constexpr double kDeadlineMs = 10.0;
constexpr double kTwoPi = 6.283185307179586;

Point Polar(const Point& center, double r, double angle) {
  return Point{center.x + r * std::cos(angle), center.y + r * std::sin(angle)};
}

void ExpectTruncatedFeasibleAnswer(const Dataset& dataset,
                                   const std::string& solver_name,
                                   const CoskqQuery& query) {
  IrTree tree(&dataset);
  tree.Freeze();
  const CoskqContext context{&dataset, &tree};
  SolverOptions options;
  options.deadline_ms = kDeadlineMs;
  std::unique_ptr<CoskqSolver> solver =
      MakeSolver(solver_name, context, options);
  ASSERT_NE(solver, nullptr);
  WallTimer timer;
  const CoskqResult result = solver->Solve(query);
  const double elapsed_ms = timer.ElapsedMillis();
  EXPECT_LT(elapsed_ms, 20 * kDeadlineMs);
  EXPECT_TRUE(result.stats.truncated);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(SetCoversKeywords(dataset, query.keywords, result.set));
  EXPECT_EQ(result.cost, EvaluateCost(solver->cost_type(), dataset,
                                      query.location, result.set));
}

CoskqQuery QueryFor(const Dataset& dataset, const Point& location,
                    const std::vector<std::string>& words) {
  CoskqQuery query;
  query.location = location;
  for (const std::string& word : words) {
    query.keywords.push_back(dataset.vocabulary().Find(word));
  }
  std::sort(query.keywords.begin(), query.keywords.end());
  return query;
}

// 12k objects holding "a" in a disk around q and one far object holding
// "b". N(q)'s far member makes every candidate pair's circle search return
// the whole cluster, so step-1 pair generation is quadratic: Dia-Exact ran
// 2.4 s here before its loop checked the deadline.
TEST(ExactDeadlineTest, DiaExactStopsInsidePairGeneration) {
  Dataset dataset;
  Rng rng(7);
  const Point q{0.5, 0.5};
  for (int i = 0; i < 12000; ++i) {
    dataset.AddObject(Polar(q, 0.05 * std::sqrt(rng.UniformDouble(0, 1)),
                            rng.UniformDouble(0, kTwoPi)),
                      {"a"});
  }
  dataset.AddObject(Point{0.9, 0.5}, {"b"});
  ExpectTruncatedFeasibleAnswer(dataset, "dia-exact",
                                QueryFor(dataset, q, {"a", "b"}));
}

// 4k objects holding "b".."i" packed around q and 4k objects holding "a"
// on a thin ring at distance 0.3. Every "a" object is a MaxSum anchor, and
// each anchor scans every packed object once per keyword it lacks, so the
// seeder's anchor loop alone took 0.6 s (and the whole MaxSum-Exact solve
// 1.9 s) before the exact solve's deadline reached it.
TEST(ExactDeadlineTest, MaxSumExactStopsInsideTheSeedersAnchorLoop) {
  Dataset dataset;
  Rng rng(7);
  const Point q{0.5, 0.5};
  const std::vector<std::string> packed = {"b", "c", "d", "e",
                                           "f", "g", "h", "i"};
  for (int i = 0; i < 8000; ++i) {
    const double angle = rng.UniformDouble(0, kTwoPi);
    if (i % 2 != 0) {
      dataset.AddObject(
          Polar(q, 0.3 + 0.0003 * rng.UniformDouble(0, 1), angle), {"a"});
    } else {
      dataset.AddObject(
          Polar(q, 0.003 * std::sqrt(rng.UniformDouble(0, 1)), angle),
          packed);
    }
  }
  std::vector<std::string> words = packed;
  words.push_back("a");
  ExpectTruncatedFeasibleAnswer(dataset, "maxsum-exact",
                                QueryFor(dataset, q, words));
}

}  // namespace
}  // namespace coskq
