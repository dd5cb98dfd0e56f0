#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace coskq {
namespace {

TEST(ParallelTest, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ParallelTest, ParallelForCallsEveryIndexOnce) {
  for (int threads : {0, 1, 2, 3, 8}) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
      std::vector<std::atomic<int>> calls(count);
      ParallelFor(count, threads, [&](size_t i) { calls[i].fetch_add(1); });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(calls[i].load(), 1) << threads << " " << count << " " << i;
      }
    }
  }
}

TEST(ParallelTest, ParallelForRangesTilesTheIndexSpace) {
  for (int threads : {0, 1, 2, 5}) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
      std::vector<std::atomic<int>> calls(count);
      // A worker number is below max(threads, 1) and never runs two ranges
      // at once, so per-worker scratch is never shared.
      std::vector<std::atomic<int>> busy(static_cast<size_t>(
          std::max(threads, 1)));
      ParallelForRanges(count, threads, [&](int worker, size_t begin,
                                            size_t end) {
        EXPECT_LT(begin, end);
        ASSERT_GE(worker, 0);
        ASSERT_LT(static_cast<size_t>(worker), busy.size());
        EXPECT_EQ(busy[static_cast<size_t>(worker)].fetch_add(1), 0);
        for (size_t i = begin; i < end; ++i) {
          calls[i].fetch_add(1);
        }
        busy[static_cast<size_t>(worker)].fetch_sub(1);
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(calls[i].load(), 1) << threads << " " << count << " " << i;
      }
    }
  }
}

}  // namespace
}  // namespace coskq
