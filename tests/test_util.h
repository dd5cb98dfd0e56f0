#ifndef COSKQ_TESTS_TEST_UTIL_H_
#define COSKQ_TESTS_TEST_UTIL_H_

// Helpers shared by the test suites: small random datasets and queries with
// reproducible seeds, and per-process temp directories.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/query.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace coskq {
namespace test {

/// A small synthetic dataset: `n` objects in the unit square, vocabulary
/// `vocab`, ~`avg_kw` keywords per object, deterministic in `seed`.
inline Dataset MakeRandomDataset(size_t n, size_t vocab, double avg_kw,
                                 uint64_t seed) {
  SyntheticSpec spec;
  spec.num_objects = n;
  spec.vocab_size = vocab;
  spec.avg_keywords_per_object = avg_kw;
  spec.zipf_theta = 0.7;
  spec.cluster_fraction = 0.5;
  spec.num_clusters = 4;
  Rng rng(seed);
  return GenerateSynthetic(spec, &rng);
}

/// A random query with `k` keywords drawn from the frequent band.
inline CoskqQuery MakeRandomQuery(const Dataset& dataset, size_t k,
                                  uint64_t seed) {
  QueryGenerator gen(&dataset);
  Rng rng(seed);
  return gen.Generate(k, &rng);
}

/// A fresh, empty directory under the test temp dir, named `name` plus the
/// process id: `ctest -j` runs the cases of one fixture as concurrent
/// processes, and they must not clobber each other's files.
inline std::string UniqueTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name + "_" +
                          std::to_string(getpid());
  const std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  return dir;
}

/// Removes a directory made by UniqueTempDir (no-op for "").
inline void RemoveDir(const std::string& dir) {
  if (!dir.empty()) {
    const std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  }
}

}  // namespace test
}  // namespace coskq

#endif  // COSKQ_TESTS_TEST_UTIL_H_
