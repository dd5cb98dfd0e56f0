// A2 — Substrate micro-benchmarks (google-benchmark).
//
// Quantifies the access-method design choice the whole system rests on:
// keyword-constrained search on the IR-tree versus the same queries answered
// with an inverted index + linear scan, plus index construction and plain
// R-tree operations. See EXPERIMENTS.md (A2).

#include <benchmark/benchmark.h>

#include <limits>
#include <memory>

#include "data/query_gen.h"
#include "data/synthetic.h"
#include "geo/circle.h"
#include "index/inverted_index.h"
#include "index/irtree.h"
#include "index/rtree.h"
#include "index/search_scratch.h"
#include "util/random.h"

namespace coskq {
namespace {

const Dataset& SharedDataset(size_t n) {
  static auto* cache = new std::map<size_t, std::unique_ptr<Dataset>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    SyntheticSpec spec;
    spec.num_objects = n;
    spec.vocab_size = 2000;
    spec.avg_keywords_per_object = 6.0;
    Rng rng(1234);
    auto ds = std::make_unique<Dataset>(GenerateSynthetic(spec, &rng));
    it = cache->emplace(n, std::move(ds)).first;
  }
  return *it->second;
}

const IrTree& SharedIrTree(size_t n) {
  static auto* cache = new std::map<size_t, std::unique_ptr<IrTree>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache->emplace(n, std::make_unique<IrTree>(&SharedDataset(n))).first;
  }
  return *it->second;
}

void BM_IrTreeBuild(benchmark::State& state) {
  const Dataset& ds = SharedDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    IrTree tree(&ds);
    benchmark::DoNotOptimize(tree.NodeCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.NumObjects()));
}
BENCHMARK(BM_IrTreeBuild)->Arg(10000)->Arg(50000)->Unit(
    benchmark::kMillisecond);

// range(1): keyword pool size, drawn from the most frequent ranks. Small
// pools mean frequent keywords (long posting lists, where the tree's
// spatial pruning pays); the full vocabulary means mostly rare keywords
// (short posting lists, where a posting scan is hard to beat).
void BM_IrTreeKeywordNn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t pool = static_cast<size_t>(state.range(1));
  const IrTree& tree = SharedIrTree(n);
  Rng rng(99);
  for (auto _ : state) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    const TermId t = static_cast<TermId>(rng.UniformUint64(pool));
    double d = 0.0;
    benchmark::DoNotOptimize(tree.KeywordNn(p, t, &d));
  }
}
BENCHMARK(BM_IrTreeKeywordNn)
    ->Args({10000, 20})
    ->Args({50000, 20})
    ->Args({10000, 2000})
    ->Args({50000, 2000});

void BM_InvertedScanKeywordNn(benchmark::State& state) {
  // Baseline: posting-list scan computing every distance.
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset& ds = SharedDataset(n);
  static auto* index_cache =
      new std::map<size_t, std::unique_ptr<InvertedIndex>>();
  auto it = index_cache->find(n);
  if (it == index_cache->end()) {
    it = index_cache->emplace(n, std::make_unique<InvertedIndex>(ds)).first;
  }
  const InvertedIndex& inv = *it->second;
  const size_t pool = static_cast<size_t>(state.range(1));
  Rng rng(99);
  for (auto _ : state) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    const TermId t = static_cast<TermId>(rng.UniformUint64(pool));
    ObjectId best = kInvalidObjectId;
    double best_d = std::numeric_limits<double>::infinity();
    for (ObjectId id : inv.Postings(t)) {
      const double d = Distance(p, ds.object(id).location);
      if (d < best_d) {
        best_d = d;
        best = id;
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_InvertedScanKeywordNn)
    ->Args({10000, 20})
    ->Args({50000, 20})
    ->Args({10000, 2000})
    ->Args({50000, 2000});

// N(q) retrieval, the per-query op every solver issues first: one KeywordNn
// per query keyword. Baseline allocates a fresh priority queue per keyword
// and re-intersects node term summaries at every visit.
void BM_IrTreeNnSet(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset& ds = SharedDataset(n);
  const IrTree& tree = SharedIrTree(n);
  QueryGenerator gen(&ds);
  Rng rng(11);
  for (auto _ : state) {
    const CoskqQuery q = gen.Generate(5, &rng);
    TermSet missing;
    benchmark::DoNotOptimize(tree.NnSet(q.location, q.keywords, &missing));
  }
}
BENCHMARK(BM_IrTreeNnSet)->Arg(10000)->Arg(50000);

// Masked/pooled counterpart: one BeginQuery builds the keyword bitmask, the
// five keyword searches share cached node masks and the pooled heap. Same
// rng seed as BM_IrTreeNnSet, so the query stream (and answers) match.
void BM_IrTreeNnSetMasked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset& ds = SharedDataset(n);
  const IrTree& tree = SharedIrTree(n);
  QueryGenerator gen(&ds);
  Rng rng(11);
  SearchScratch scratch;
  for (auto _ : state) {
    const CoskqQuery q = gen.Generate(5, &rng);
    scratch.BeginQuery(q.location, q.keywords);
    TermSet missing;
    benchmark::DoNotOptimize(
        tree.NnSet(q.location, q.keywords, &missing, &scratch));
    scratch.FinishQuery();
  }
}
BENCHMARK(BM_IrTreeNnSetMasked)->Arg(10000)->Arg(50000);

void BM_IrTreeRangeRelevant(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset& ds = SharedDataset(n);
  const IrTree& tree = SharedIrTree(n);
  QueryGenerator gen(&ds);
  Rng rng(7);
  std::vector<ObjectId> out;
  for (auto _ : state) {
    const CoskqQuery q = gen.Generate(5, &rng);
    out.clear();
    tree.RangeRelevant(Circle(q.location, 0.05), q.keywords, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_IrTreeRangeRelevant)->Arg(10000)->Arg(50000);

// Masked counterpart of BM_IrTreeRangeRelevant (same rng seed, same query
// stream): keyword relevance per node is one cached-mask AND instead of a
// sorted-set intersection.
void BM_IrTreeRangeRelevantMasked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset& ds = SharedDataset(n);
  const IrTree& tree = SharedIrTree(n);
  QueryGenerator gen(&ds);
  Rng rng(7);
  SearchScratch scratch;
  std::vector<ObjectId> out;
  for (auto _ : state) {
    const CoskqQuery q = gen.Generate(5, &rng);
    scratch.BeginQuery(q.location, q.keywords);
    out.clear();
    tree.RangeRelevant(Circle(q.location, 0.05), q.keywords, &out, &scratch);
    scratch.FinishQuery();
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_IrTreeRangeRelevantMasked)->Arg(10000)->Arg(50000);

void BM_LinearScanRangeRelevant(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset& ds = SharedDataset(n);
  QueryGenerator gen(&ds);
  Rng rng(7);
  std::vector<ObjectId> out;
  for (auto _ : state) {
    const CoskqQuery q = gen.Generate(5, &rng);
    const Circle circle(q.location, 0.05);
    out.clear();
    for (const SpatialObject& obj : ds.objects()) {
      if (circle.Contains(obj.location) && obj.ContainsAnyOf(q.keywords)) {
        out.push_back(obj.id);
      }
    }
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_LinearScanRangeRelevant)->Arg(10000)->Arg(50000);

void BM_RTreeInsert(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    RTree tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(static_cast<ObjectId>(i),
                  Point{rng.UniformDouble(), rng.UniformDouble()});
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

void BM_RTreeKnn(benchmark::State& state) {
  Rng rng(4);
  std::vector<RTree::Item> items;
  for (int i = 0; i < 50000; ++i) {
    items.push_back(RTree::Item{static_cast<ObjectId>(i),
                                Point{rng.UniformDouble(),
                                      rng.UniformDouble()}});
  }
  RTree tree;
  tree.BulkLoad(items);
  for (auto _ : state) {
    const Point p{rng.UniformDouble(), rng.UniformDouble()};
    benchmark::DoNotOptimize(
        tree.KNearest(p, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_RTreeKnn)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace coskq

BENCHMARK_MAIN();
