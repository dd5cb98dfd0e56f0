#ifndef COSKQ_TESTS_FROZEN_GOLDEN_DIGESTS_H_
#define COSKQ_TESTS_FROZEN_GOLDEN_DIGESTS_H_

// Digests of every IR-tree query path and every registry solver over the
// seeded fixture of index_frozen_diff_test: 150 objects, 25 words, three
// queries per seed. A digest folds a path's whole observable output (answer
// ids, distance and cost bits, node-visit logs, solver counters) into one
// FNV-1a value, so a recorded digest pins the traversal itself, not just
// its answers. The recorded values (index_frozen_goldens.inc) come from the
// pointer-tree traversals the frozen body replaced.

#include <stdint.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/solvers.h"
#include "data/dataset.h"
#include "geo/circle.h"
#include "index/irtree.h"
#include "index/search_scratch.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace test {

inline constexpr const char* kGoldenSolverNames[] = {
    "maxsum-exact",      "dia-exact",        "maxsum-appro",
    "dia-appro",         "cao-exact-maxsum", "cao-exact-dia",
    "cao-appro1-maxsum", "cao-appro1-dia",   "cao-appro2-maxsum",
    "cao-appro2-dia",
};
inline constexpr size_t kGoldenSolvers = std::size(kGoldenSolverNames);

/// One seed's recorded digests. solvers[m][s] covers kGoldenSolverNames[s]
/// with SolverOptions::use_query_masks == (m == 1).
struct FrozenGolden {
  uint64_t seed;
  uint64_t keyword_nn;
  uint64_t masked_nn_set;
  uint64_t range;
  uint64_t masked_range;
  uint64_t stream;
  uint64_t masked_stream;
  uint64_t solvers[2][kGoldenSolvers];
};

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  template <typename T>
  void AddAll(const std::vector<T>& values) {
    Add(values.size());
    for (const T& v : values) {
      Add(static_cast<uint64_t>(v));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

/// The seeded fixture every digest runs over.
struct GoldenFixture {
  explicit GoldenFixture(uint64_t seed)
      : seed(seed),
        dataset(MakeRandomDataset(150, 25, 3.0, seed + 1)),
        tree(std::make_unique<IrTree>(&dataset)) {
    for (int i = 0; i < 3; ++i) {
      queries.push_back(MakeRandomQuery(dataset, 3 + i, seed * 1000 + i));
    }
  }

  uint64_t seed;
  Dataset dataset;
  std::unique_ptr<IrTree> tree;
  std::vector<CoskqQuery> queries;
};

/// 20 seeded KeywordNn probes: answer, distance bits and visit log.
inline uint64_t KeywordNnDigest(const GoldenFixture& f) {
  Digest digest;
  Rng rng(f.seed + 11);
  for (int trial = 0; trial < 20; ++trial) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    const TermId t = static_cast<TermId>(rng.UniformUint64(25));
    double d = 0.0;
    std::vector<uint32_t> log;
    digest.Add(f.tree->KeywordNn(p, t, &d, &log));
    digest.AddDouble(d);
    digest.AddAll(log);
  }
  return digest.value();
}

/// Masked NnSet per query: answer, missing keywords and visit log.
inline uint64_t MaskedNnSetDigest(const GoldenFixture& f) {
  Digest digest;
  SearchScratch scratch;
  for (const CoskqQuery& q : f.queries) {
    std::vector<uint32_t> log;
    TermSet missing;
    scratch.BeginQuery(q.location, q.keywords);
    scratch.set_visit_log(&log);
    const std::vector<ObjectId> got =
        f.tree->NnSet(q.location, q.keywords, &missing, &scratch);
    scratch.set_visit_log(nullptr);
    scratch.FinishQuery();
    digest.AddAll(got);
    digest.AddAll(missing);
    digest.AddAll(log);
  }
  return digest.value();
}

/// RangeRelevant per query over a seeded radius, plain and masked: output
/// in traversal order and visit log.
inline std::pair<uint64_t, uint64_t> RangeDigests(const GoldenFixture& f) {
  Digest plain;
  Digest masked;
  SearchScratch scratch;
  Rng rng(f.seed + 77);
  for (const CoskqQuery& q : f.queries) {
    const Circle circle(q.location, 0.1 + 0.4 * rng.UniformDouble());
    std::vector<ObjectId> out;
    std::vector<uint32_t> log;
    f.tree->RangeRelevant(circle, q.keywords, &out, &log);
    plain.AddAll(out);
    plain.AddAll(log);

    out.clear();
    log.clear();
    scratch.BeginQuery(q.location, q.keywords);
    scratch.set_visit_log(&log);
    f.tree->RangeRelevant(circle, q.keywords, &out, &scratch);
    scratch.set_visit_log(nullptr);
    scratch.FinishQuery();
    masked.AddAll(out);
    masked.AddAll(log);
  }
  return {plain.value(), masked.value()};
}

/// RelevantStream drained per query, plain and masked: (id, distance bits)
/// in emission order.
inline std::pair<uint64_t, uint64_t> StreamDigests(const GoldenFixture& f) {
  Digest plain;
  Digest masked;
  SearchScratch scratch;
  for (const CoskqQuery& q : f.queries) {
    {
      IrTree::RelevantStream stream(f.tree.get(), q.location, q.keywords);
      while (auto next = stream.Next()) {
        plain.Add(next->first);
        plain.AddDouble(next->second);
      }
    }
    scratch.BeginQuery(q.location, q.keywords);
    {
      IrTree::RelevantStream stream(f.tree.get(), q.location, q.keywords,
                                    &scratch);
      while (auto next = stream.Next()) {
        masked.Add(next->first);
        masked.AddDouble(next->second);
      }
    }
    scratch.FinishQuery();
  }
  return {plain.value(), masked.value()};
}

/// One solver answering the fixture's queries in order: feasibility, set,
/// cost bits and every SolveStats counter the traversal drives.
inline uint64_t SolverDigest(const GoldenFixture& f, const char* name,
                             bool use_query_masks) {
  SolverOptions options;
  options.use_query_masks = use_query_masks;
  const CoskqContext context{&f.dataset, f.tree.get()};
  std::unique_ptr<CoskqSolver> solver = MakeSolver(name, context, options);
  Digest digest;
  if (solver == nullptr) {
    return 0;
  }
  for (const CoskqQuery& q : f.queries) {
    const CoskqResult r = solver->Solve(q);
    digest.Add(r.feasible ? 1 : 0);
    digest.AddAll(r.set);
    digest.AddDouble(r.cost);
    digest.Add(r.stats.candidates);
    digest.Add(r.stats.sets_evaluated);
    digest.Add(r.stats.pairs_examined);
    digest.Add(r.stats.dist_cache_hits);
    digest.Add(r.stats.dist_cache_misses);
  }
  return digest.value();
}

}  // namespace test
}  // namespace coskq

#endif  // COSKQ_TESTS_FROZEN_GOLDEN_DIGESTS_H_
