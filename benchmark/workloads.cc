#include "workloads.h"

#include <algorithm>
#include <cstring>

#include "core/cost.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "geo/circle.h"

namespace coskq::bench {

namespace {

/// The corpus stands in for the paper's fixed GN dataset, so it does not
/// vary with the run seed: a seed draws the queries, the stream and the
/// writes. (Regenerating the corpus per seed moved its 48 cluster centres
/// and, with them, every latency median by up to a quarter.)
constexpr uint64_t kCorpusSeed = 2013;
constexpr size_t kHotspots = 4;
constexpr double kHotspotFraction = 0.8;
/// Hotspot half-width as a share of the dataset MBR's larger extent.
constexpr double kHotspotRadius = 0.02;
constexpr double kZipfTheta = 1.0;
/// Popularity skew of the pool. Under Zipf(1.0) the ten hottest of 4096
/// entries are a third of the stream, so a run's medians follow the solve
/// cost of those few queries and moved by a third between seeds; at 0.6
/// they are 7% of it while the repeat rate stays above 0.8.
constexpr double kPopularityTheta = 0.6;
/// Zipf keywords come from this many most frequent terms. Over the whole
/// vocabulary the Zipf tail pairs a word held by one or two objects with
/// one held by most of them, and even the approximate solver then scans a
/// disk of tens of thousands of candidates (up to 1.7 s per query).
constexpr size_t kPopularTerms = 1000;
/// A generated query whose N(q) disk holds more query-relevant objects than
/// this is drawn again (about 1% of the paper's queries on GN-like data).
/// The exact solvers check their deadline only after the candidate phase,
/// and these queries ran for up to 164 s under a 100 ms deadline: one of
/// them would hold a worker for the whole run.
constexpr size_t kMaxDiskObjects = 1000;

void WireSolver(const std::string& name, QueryRequest* request) {
  request->cost_type = name.rfind("maxsum", 0) == 0 ? CostType::kMaxSum
                                                    : CostType::kDia;
  request->solver = name.find("exact") != std::string::npos
                        ? SolverKind::kExact
                        : SolverKind::kAppro;
}

Point UniformIn(const Rect& r, Rng* rng) {
  return Point{rng->UniformDouble(r.min_x, r.max_x),
               rng->UniformDouble(r.min_y, r.max_y)};
}

/// `count` distinct keywords drawn Zipf(1.0) over the frequency ranking.
TermSet ZipfKeywords(const std::vector<TermId>& ranked,
                     const ZipfSampler& zipf, size_t count, Rng* rng) {
  TermSet terms;
  while (terms.size() < std::min(count, ranked.size())) {
    const TermId t = ranked[zipf.Sample(rng)];
    if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
      terms.push_back(t);
    }
  }
  return terms;
}

/// Query-relevant objects inside the smallest disk around q that holds
/// N(q), the per-keyword nearest neighbours.
size_t DiskObjects(const IrTree& tree, const CoskqQuery& q) {
  TermSet missing;
  double radius = 0.0;
  for (ObjectId o : tree.NnSet(q.location, q.keywords, &missing)) {
    radius = std::max(radius,
                      Distance(q.location, tree.dataset().object(o).location));
  }
  std::vector<ObjectId> found;
  tree.RangeRelevant(Circle(q.location, radius), q.keywords, &found);
  return found.size();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A reply's set covers the query keywords and carries exactly the cost of
/// that set.
bool Feasible(const QueryResult& got, const PoolQuery& pq,
              const Dataset& dataset) {
  if (got.set.empty()) {
    return false;
  }
  std::vector<ObjectId> set(got.set.begin(), got.set.end());
  for (ObjectId id : set) {
    if (id >= dataset.NumObjects()) {
      return false;
    }
  }
  return SetCoversKeywords(dataset, pq.query.keywords, set) &&
         SameBits(EvaluateCost(pq.request.cost_type, dataset,
                               pq.query.location, set),
                  got.cost);
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // The paper's exact algorithms over an index larger than the last
      // level cache: solver and index do nearly all the work.
      {"exact_fresh", 0.5, false, 2048, false, 0.0, {3, 6},
       {"maxsum-exact", "dia-exact"}, 100.0, 2, 0, 0.0, 0, 95.0, 150.0},
      // Cheap cache hits: the event loop, wire codec and cache dominate.
      {"appro_zipf", 0.1, false, 4096, true, 0.0, {4},
       {"maxsum-appro", "dia-appro"}, 10.0, 2, 64, 0.0, 0, 2000.0, 10.0},
      // The same reads with 5% writes: delta merge, MUTATE, refreeze and
      // cache invalidation. Each refreeze's swap holds every request for
      // 10-33 ms, so a limit of 10 ms counted how long each of a run's few
      // swaps lasted; at 50 ms the limit catches swaps that grow.
      {"mixed_rw", 0.1, false, 4096, true, 0.0, {4},
       {"maxsum-appro", "dia-appro"}, 10.0, 2, 64, 0.05, 64, 1000.0, 50.0},
      // The router's probe, harvest and central re-solve. The router ships
      // every query-relevant object of each shard it harvests, so a query
      // carrying one of the ~200 most frequent words moves a third of the
      // dataset; those words are left out (see README.md).
      {"routed_fresh", 0.1, true, 4096, false, 0.01, {6},
       {"maxsum-exact", "maxsum-appro", "dia-appro"}, 100.0, 1, 0, 0.0, 0,
       500.0, 150.0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

Dataset MakeDataset(const WorkloadSpec& spec) {
  Rng rng(kCorpusSeed);
  return GenerateSynthetic(GnLikeSpec(spec.scale), &rng);
}

std::vector<PoolQuery> MakePool(const WorkloadSpec& spec, const IrTree& tree,
                                Rng* rng) {
  const Dataset& dataset = tree.dataset();
  const Rect& mbr = dataset.mbr();
  const double extent = std::max(mbr.max_x - mbr.min_x, mbr.max_y - mbr.min_y);
  const std::vector<TermId> ranked = dataset.TermsByFrequencyDesc();
  const ZipfSampler zipf(std::min(ranked.size(), kPopularTerms), kZipfTheta);
  QueryGenerator::Options band;
  band.percentile_lo = spec.band_lo;
  const QueryGenerator generator(&dataset, band);
  Point hotspots[kHotspots];
  for (Point& h : hotspots) {
    h = UniformIn(mbr, rng);
  }

  std::vector<PoolQuery> pool(spec.pool_size);
  for (size_t i = 0; i < pool.size(); ++i) {
    PoolQuery& pq = pool[i];
    const size_t k = spec.keyword_counts[i % spec.keyword_counts.size()];
    if (spec.zipf) {
      Point p = UniformIn(mbr, rng);
      if (rng->Bernoulli(kHotspotFraction)) {
        const Point& h = hotspots[i % kHotspots];
        const double r = kHotspotRadius * extent;
        p.x = std::clamp(h.x + rng->UniformDouble(-r, r), mbr.min_x, mbr.max_x);
        p.y = std::clamp(h.y + rng->UniformDouble(-r, r), mbr.min_y, mbr.max_y);
      }
      pq.query.location = p;
      pq.query.keywords = ZipfKeywords(ranked, zipf, k, rng);
      NormalizeTermSet(&pq.query.keywords);
    } else {
      do {
        pq.query = generator.Generate(k, rng);
      } while (DiskObjects(tree, pq.query) > kMaxDiskObjects);
    }
    pq.solver_name = spec.solvers[i % spec.solvers.size()];
    pq.request.x = pq.query.location.x;
    pq.request.y = pq.query.location.y;
    pq.request.deadline_ms = spec.deadline_ms;
    WireSolver(pq.solver_name, &pq.request);
    for (TermId t : pq.query.keywords) {
      pq.request.keywords.push_back(dataset.vocabulary().TermString(t));
    }
  }
  rng->Shuffle(&pool);
  return pool;
}

Stream MakeStream(const WorkloadSpec& spec, const Dataset& dataset,
                  const std::vector<PoolQuery>& pool, size_t length,
                  Rng* rng) {
  const ZipfSampler popularity(pool.size(), kPopularityTheta);
  const std::vector<TermId> ranked = dataset.TermsByFrequencyDesc();
  const ZipfSampler zipf(std::min(ranked.size(), kPopularTerms), kZipfTheta);
  // Removes target distinct objects of the generated corpus, so each one
  // adds a tombstone to the delta and the refreeze threshold is reached.
  // (Removing a still-pending insert would shrink the delta instead.)
  std::vector<uint32_t> victims;
  if (spec.mutate_fraction > 0.0) {
    victims.resize(dataset.NumObjects());
    for (size_t i = 0; i < victims.size(); ++i) {
      victims[i] = static_cast<uint32_t>(i);
    }
    rng->Shuffle(&victims);
  }

  Stream stream;
  stream.slots.resize(length);
  stream.ops.resize(length);
  size_t mutations = 0;
  size_t removes = 0;
  for (size_t i = 0; i < length; ++i) {
    StreamSlot& slot = stream.slots[i];
    WireOp& op = stream.ops[i];
    if (spec.mutate_fraction > 0.0 && rng->Bernoulli(spec.mutate_fraction) &&
        removes < victims.size()) {
      MutateRequest& m = slot.mutation;
      if (mutations++ % 2 == 0) {
        m.op = MutateRequest::Op::kInsert;
        const Point p = UniformIn(dataset.mbr(), rng);
        m.x = p.x;
        m.y = p.y;
        for (TermId t : ZipfKeywords(ranked, zipf, 4, rng)) {
          m.keywords.push_back(dataset.vocabulary().TermString(t));
        }
      } else {
        m.op = MutateRequest::Op::kRemove;
        m.object_id = victims[removes++];
      }
      op.verb = Verb::kMutate;
      op.payload = EncodeMutateRequest(m);
      continue;
    }
    slot.query = static_cast<int64_t>(spec.zipf ? popularity.Sample(rng)
                                                : i % pool.size());
    op.verb = Verb::kQuery;
    op.payload = EncodeQueryRequest(pool[slot.query].request);
  }
  return stream;
}

std::string CheckAnswer(const QueryResult& got, const PoolQuery& pq,
                        const CoskqResult* want, const Dataset& dataset) {
  const bool exact = want != nullptr && !want->stats.truncated;
  switch (got.outcome) {
    case QueryOutcome::kInfeasible:
      return want == nullptr || !want->feasible ? "" : "reply infeasible";
    case QueryOutcome::kExecuted:
      if (!exact) {
        return Feasible(got, pq, dataset) ? "" : "reply set infeasible";
      }
      if (!want->feasible) {
        return "reference infeasible";
      }
      return std::equal(got.set.begin(), got.set.end(), want->set.begin(),
                        want->set.end()) &&
                     SameBits(got.cost, want->cost)
                 ? ""
                 : "set or cost differs from the reference";
    case QueryOutcome::kDeadlineTruncated:
      if (!Feasible(got, pq, dataset)) {
        return "truncated reply infeasible";
      }
      return !exact || got.cost >= want->cost
                 ? ""
                 : "truncated reply cheaper than the optimum";
  }
  return "unknown outcome";
}

std::vector<WireOp> PoolOps(const std::vector<PoolQuery>& pool) {
  std::vector<WireOp> ops(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    ops[i].payload = EncodeQueryRequest(pool[i].request);
  }
  return ops;
}

}  // namespace coskq::bench
