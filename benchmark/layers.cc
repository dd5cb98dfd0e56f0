#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <unordered_set>

#include "cache/result_cache.h"
#include "cluster/partitioner.h"
#include "core/solvers.h"
#include "engine/batch_engine.h"
#include "geo/circle.h"
#include "server/client.h"
#include "server/codec.h"
#include "trace.h"
#include "util/random.h"

namespace coskq::bench {

namespace {

/// Pool entries replayed through the index, solver, engine and codec.
/// Sub-microsecond calls (cache, codec, index writes) report means: a
/// median of nanosecond-quantized samples can read the same on every run.
constexpr size_t kSample = 256;
/// Pool entries replayed through the cluster (each costs several round
/// trips and a central re-solve).
constexpr size_t kClusterSample = 64;
constexpr size_t kCodecReps = 8;
constexpr size_t kCacheReplayMax = 20000;
constexpr size_t kWrites = 512;
constexpr uint32_t kShards = 4;
constexpr double kMiB = 1024.0 * 1024.0;
/// Wire size of one RELEVANT_REPLY entry: id, x, y, keyword mask.
constexpr double kHarvestEntryBytes = 28.0;

size_t SampleSize(const LayerInputs& in, size_t cap) {
  return std::min(cap, in.pool->size());
}

QueryResult WireResult(const CoskqResult& r) {
  QueryResult q;
  q.outcome = !r.feasible          ? QueryOutcome::kInfeasible
              : r.stats.truncated ? QueryOutcome::kDeadlineTruncated
                                  : QueryOutcome::kExecuted;
  q.cost = r.cost;
  q.solve_ms = r.stats.elapsed_ms;
  q.set.assign(r.set.begin(), r.set.end());
  return q;
}

void MeasureIndexReads(const LayerInputs& in, Tracer* tracer,
                       MetricSet* out) {
  const IrTree& tree = *in.reference->tree;
  const Dataset& dataset = *in.reference->dataset;
  std::vector<double> nnset_us;
  std::vector<double> range_us;
  double range_objects = 0.0;
  const size_t n = SampleSize(in, kSample);
  for (size_t i = 0; i < n; ++i) {
    const CoskqQuery& q = (*in.pool)[i].query;
    SpanTimer nn(tracer, "index.nnset");
    TermSet missing;
    const std::vector<ObjectId> nearest =
        tree.NnSet(q.location, q.keywords, &missing);
    nnset_us.push_back(nn.Stop());
    // The disk around q that holds N(q): the region the exact solvers
    // harvest candidates from before any pruning.
    double radius = 0.0;
    for (ObjectId o : nearest) {
      radius = std::max(radius, Distance(q.location, dataset.object(o).location));
    }
    std::vector<ObjectId> found;
    SpanTimer range(tracer, "index.range");
    tree.RangeRelevant(Circle(q.location, radius), q.keywords, &found);
    range_us.push_back(range.Stop());
    range_objects += static_cast<double>(found.size());
  }
  double body_bytes = 0.0;
  if (in.cluster != nullptr) {
    for (const auto& shard_tree : in.cluster->trees) {
      body_bytes += static_cast<double>(shard_tree->MemoryStats().body_bytes);
    }
  } else {
    body_bytes = static_cast<double>(tree.MemoryStats().body_bytes);
  }
  out->Add("index.body_mb", body_bytes / kMiB, "MiB");
  out->Add("index.nnset_us", Median(nnset_us), "us");
  out->Add("index.range_us", Median(range_us), "us");
  out->Add("index.range_objects", range_objects / static_cast<double>(n),
           "count");
}

void MeasureSolvers(const LayerInputs& in, Tracer* tracer, MetricSet* out) {
  const CoskqContext context = in.reference->context();
  SolverOptions options;
  options.deadline_ms = in.spec->deadline_ms;
  std::map<std::string, std::unique_ptr<CoskqSolver>> solvers;
  std::vector<double> solve_ms;
  double candidates = 0.0;
  double pairs = 0.0;
  double sets = 0.0;
  double memo_hits = 0.0;
  double memo_lookups = 0.0;
  size_t truncated = 0;
  const size_t n = SampleSize(in, kSample);
  for (size_t i = 0; i < n; ++i) {
    const PoolQuery& pq = (*in.pool)[i];
    std::unique_ptr<CoskqSolver>& solver = solvers[pq.solver_name];
    if (solver == nullptr) {
      solver = MakeSolver(pq.solver_name, context, options);
    }
    SpanTimer span(tracer, "core.solve");
    const CoskqResult r = solver->Solve(pq.query);
    span.Stop();
    solve_ms.push_back(r.stats.elapsed_ms);
    candidates += static_cast<double>(r.stats.candidates);
    pairs += static_cast<double>(r.stats.pairs_examined);
    sets += static_cast<double>(r.stats.sets_evaluated);
    memo_hits += static_cast<double>(r.stats.dist_cache_hits);
    memo_lookups += static_cast<double>(r.stats.dist_cache_hits +
                                        r.stats.dist_cache_misses);
    truncated += r.stats.truncated ? 1 : 0;
  }
  const double count = static_cast<double>(n);
  out->Add("core.solve_p50_ms", Percentile(solve_ms, 50.0), "ms");
  out->Add("core.solve_p99_ms", Percentile(solve_ms, 99.0), "ms");
  out->Add("core.candidates", candidates / count, "count");
  out->Add("core.pairs_examined", pairs / count, "count");
  out->Add("core.sets_evaluated", sets / count, "count");
  out->Add("core.dist_memo_hit_rate", Ratio(memo_hits, memo_lookups),
           "fraction");
  out->Add("core.truncated_frac", static_cast<double>(truncated) / count,
           "fraction");
  // Negative: the slowest solve finished that far inside its deadline.
  out->Add("core.deadline_overrun_ms",
           *std::max_element(solve_ms.begin(), solve_ms.end()) -
               in.spec->deadline_ms,
           "ms");
}

void MeasureEngine(const LayerInputs& in, Tracer* tracer, MetricSet* out) {
  std::map<std::string, std::vector<CoskqQuery>> groups;
  const size_t n = SampleSize(in, kSample);
  for (size_t i = 0; i < n; ++i) {
    groups[(*in.pool)[i].solver_name].push_back((*in.pool)[i].query);
  }
  double wall_s = 0.0;
  double executed = 0.0;
  for (const auto& [name, queries] : groups) {
    BatchOptions options;
    options.solver_name = name;
    options.num_threads = 2;
    options.deadline_ms = in.spec->deadline_ms;
    SpanTimer span(tracer, "engine.batch");
    const BatchOutcome outcome =
        BatchEngine(in.reference->context(), options).Run(queries);
    wall_s += span.Stop() / 1e6;
    if (!outcome.status.ok()) {
      throw BenchError("engine replay: " + outcome.status.ToString());
    }
    executed += static_cast<double>(outcome.stats.executed);
  }
  out->Add("engine.batch_qps", Ratio(executed, wall_s), "1/s");
}

/// Replays the open-loop stream through a cache the benchmark owns, with
/// the server's budget and cell size; each MUTATE slot advances the
/// invalidation stamp the way an acked write does on the server.
void MeasureCache(const LayerInputs& in, Tracer* tracer, MetricSet* out) {
  const ServerOptions defaults;
  ResultCache::Options options;
  if (in.spec->cache_mb > 0) {
    options.budget_bytes = in.spec->cache_mb << 20;
  }
  options.cell_bits = defaults.cache_cell_bits;
  ResultCache cache(options);
  std::unordered_set<int64_t> seen;
  std::vector<double> lookup_us;
  std::vector<double> insert_us;
  uint64_t mutations = 0;
  double repeats = 0.0;
  const size_t slots = std::min(in.stream_slots, kCacheReplayMax);
  for (size_t i = 0; i < slots; ++i) {
    const StreamSlot& slot = in.stream->slots[i];
    if (slot.query < 0) {
      ++mutations;
      continue;
    }
    repeats += seen.insert(slot.query).second ? 0.0 : 1.0;
    const PoolQuery& pq = (*in.pool)[slot.query];
    ResultCacheKey key;
    key.cell = ResultCache::CellOf(pq.request.x, pq.request.y,
                                   options.cell_bits);
    key.keywords.assign(pq.query.keywords.begin(), pq.query.keywords.end());
    key.solver = static_cast<uint8_t>(pq.request.solver);
    key.cost_type = static_cast<uint8_t>(pq.request.cost_type);
    key.x = pq.request.x;
    key.y = pq.request.y;
    CachedAnswer hit;
    SpanTimer lookup(tracer, "cache.lookup");
    const bool found = cache.Lookup(key, 0, mutations, &hit);
    lookup_us.push_back(lookup.Stop());
    if (!found) {
      const QueryResult r = WireResult((*in.answers)[slot.query]);
      CachedAnswer answer;
      answer.outcome = static_cast<uint8_t>(r.outcome);
      answer.cost = r.cost;
      answer.solve_ms = r.solve_ms;
      answer.set = r.set;
      SpanTimer insert(tracer, "cache.insert");
      cache.Insert(key, 0, mutations, answer);
      insert_us.push_back(insert.Stop());
    }
  }
  const ResultCacheStats stats = cache.Snapshot();
  const double lookups = static_cast<double>(lookup_us.size());
  out->Add("cache.repeat_rate", Ratio(repeats, lookups), "fraction");
  out->Add("cache.hit_rate", Ratio(static_cast<double>(stats.hits), lookups),
           "fraction");
  out->Add("cache.lookup_us", Mean(lookup_us), "us");
  out->Add("cache.insert_us", Mean(insert_us), "us");
  out->Add("cache.evictions", static_cast<double>(stats.evictions), "count");
  out->Add("cache.invalidation_frac",
           Ratio(static_cast<double>(stats.invalidations), lookups),
           "fraction");
}

/// One QUERY frame and one RESULT frame through encode, FrameReader and
/// decode: the codec work both ends of a request do.
void MeasureCodec(const LayerInputs& in, Tracer* tracer, MetricSet* out) {
  std::vector<double> us;
  const size_t n = SampleSize(in, kSample);
  for (size_t rep = 0; rep < kCodecReps; ++rep) {
    for (size_t i = 0; i < n; ++i) {
      const QueryResult result = WireResult((*in.answers)[i]);
      SpanTimer span(tracer, "codec.roundtrip");
      FrameReader reader;
      const std::string query = EncodeFrame(
          Verb::kQuery, 1, EncodeQueryRequest((*in.pool)[i].request));
      const std::string reply =
          EncodeFrame(Verb::kResult, 1, EncodeQueryResult(result));
      reader.Append(query.data(), query.size());
      reader.Append(reply.data(), reply.size());
      Frame frame;
      QueryRequest request;
      QueryResult decoded;
      const bool ok = reader.Pop(&frame) == FrameReader::Next::kFrame &&
                      DecodeQueryRequest(frame.payload, &request) &&
                      reader.Pop(&frame) == FrameReader::Next::kFrame &&
                      DecodeQueryResult(frame.payload, &decoded);
      us.push_back(span.Stop());
      if (!ok || decoded.set != result.set) {
        throw BenchError("codec replay: round trip changed the frames");
      }
    }
  }
  out->Add("server.codec_us", Mean(us), "us");
}

void Connect(CoskqClient* client, uint16_t port) {
  const Status status = client->Connect("127.0.0.1", port);
  if (!status.ok()) {
    throw BenchError("connect: " + status.ToString());
  }
}

QueryReply Ask(CoskqClient* client, const QueryRequest& request) {
  StatusOr<QueryReply> reply = client->Query(request);
  if (!reply.ok()) {
    throw BenchError("cluster replay query: " + reply.status().ToString());
  }
  return std::move(*reply);
}

/// Fraction of fan-out slots the router pruned, from its counters. The one
/// place the benchmark reads ClusterRouter::stats().
double RouterPruneFrac(const StatsReply& before, const StatsReply& after) {
  const double harvested =
      static_cast<double>(after.shards_harvested - before.shards_harvested);
  const double pruned = static_cast<double>(
      (after.shards_pruned_keyword - before.shards_pruned_keyword) +
      (after.shards_pruned_distance - before.shards_pruned_distance));
  return Ratio(pruned, harvested + pruned);
}

/// Routes a sample of the pool through a 4-shard cluster and a single
/// server over the same data, and sends each query's RELEVANT request to
/// every shard to size what a harvest ships. The router's own stages are
/// not timed from here: that needs spans inside the router.
void MeasureCluster(const LayerInputs& in, Tracer* tracer, MetricSet* out) {
  ClusterDeployment* cluster = in.cluster;
  std::unique_ptr<ClusterDeployment> own;
  double build_s = in.cluster_build_s;
  if (cluster == nullptr) {
    const std::string dir = in.workdir + "/layer_cluster";
    std::filesystem::create_directories(dir);
    BuildClusterOptions build;
    build.num_shards = kShards;
    SpanTimer span(tracer, "cluster.build");
    StatusOr<ClusterManifest> manifest =
        BuildShardedCluster(*in.reference->dataset, dir, build);
    build_s = span.Stop() / 1e6;
    if (!manifest.ok()) {
      throw BenchError("cluster build: " + manifest.status().ToString());
    }
    SetupTimes ignored;
    own = StartCluster(dir, *manifest, 1, &ignored);
    cluster = own.get();
  }
  ServerOptions single_options;
  single_options.num_workers = 1;
  CoskqServer single(in.reference->context(), single_options);
  if (!single.Start().ok()) {
    throw BenchError("single server start failed");
  }

  CoskqClient route_client;
  CoskqClient single_client;
  Connect(&route_client, cluster->router->port());
  Connect(&single_client, single.port());
  std::vector<std::unique_ptr<CoskqClient>> shard_clients;
  for (const auto& server : cluster->servers) {
    shard_clients.push_back(std::make_unique<CoskqClient>());
    Connect(shard_clients.back().get(), server->port());
  }

  std::vector<double> route_ms;
  std::vector<double> single_ms;
  double entries = 0.0;
  double useful = 0.0;
  const StatsReply before = cluster->router->stats();
  const size_t n = SampleSize(in, kClusterSample);
  for (size_t i = 0; i < n; ++i) {
    const PoolQuery& pq = (*in.pool)[i];
    const CoskqResult& want = (*in.answers)[i];
    const Point q = pq.query.location;
    SpanTimer root(tracer, "cluster.query");

    SpanTimer route(tracer, "cluster.route", root.id());
    const QueryReply routed = Ask(&route_client, pq.request);
    route_ms.push_back(route.Stop() / 1e3);
    SpanTimer direct(tracer, "cluster.single", root.id());
    const QueryReply single_reply = Ask(&single_client, pq.request);
    single_ms.push_back(direct.Stop() / 1e3);
    for (const QueryReply* reply : {&routed, &single_reply}) {
      const std::string why =
          reply->kind == QueryReply::Kind::kResult
              ? CheckAnswer(reply->result, pq, &want, *in.reference->dataset)
              : "not a RESULT";
      if (!why.empty()) {
        throw BenchError("cluster replay: pool query " + std::to_string(i) +
                         ": " + why);
      }
    }

    // One RELEVANT request per shard: what a harvest of every shard ships,
    // before the router prunes any of them.
    RelevantRequest request;
    request.keywords = pq.request.keywords;
    for (const auto& shard_client : shard_clients) {
      SpanTimer span(tracer, "cluster.relevant", root.id());
      StatusOr<std::vector<RelevantEntry>> got = shard_client->Relevant(request);
      span.Stop();
      if (!got.ok()) {
        throw BenchError("cluster replay harvest: " + got.status().ToString());
      }
      entries += static_cast<double>(got->size());
      for (const RelevantEntry& e : *got) {
        if (want.feasible && Distance(q, Point{e.x, e.y}) <= want.cost) {
          useful += 1.0;
        }
      }
    }
    root.Stop();
  }
  const double prune_frac =
      RouterPruneFrac(before, cluster->router->stats());

  const double count = static_cast<double>(n);
  out->Add("cluster.build_s", build_s, "s");
  out->Add("cluster.route_over_single",
           Ratio(Median(route_ms), Median(single_ms)), "ratio");
  out->Add("cluster.harvest_entries", entries / count, "count");
  out->Add("cluster.harvest_kb", entries * kHarvestEntryBytes / 1024.0 / count,
           "KiB");
  out->Add("cluster.harvest_useful_frac", Ratio(useful, entries), "fraction");
  out->Add("cluster.prune_frac", prune_frac, "fraction");
}

}  // namespace

void MeasureLayers(const LayerInputs& in, Tracer* tracer, MetricSet* out) {
  MeasureIndexReads(in, tracer, out);
  MeasureSolvers(in, tracer, out);
  MeasureEngine(in, tracer, out);
  MeasureCache(in, tracer, out);
  MeasureCodec(in, tracer, out);
  MeasureCluster(in, tracer, out);
}

void MeasureIndexWrites(const LayerInputs& in, Tracer* tracer,
                        MetricSet* out) {
  Dataset& dataset = *in.reference->dataset;
  IrTree& tree = *in.reference->tree;
  tree.WaitForRefreeze();
  const size_t corpus = dataset.NumObjects();
  if (!dataset.concurrent_appends_enabled()) {
    dataset.EnableConcurrentAppends(kWrites);
  }
  Rng rng(corpus);
  std::vector<double> mutate_us;
  for (size_t m = 0; m < kWrites; ++m) {
    const CoskqQuery& q = (*in.pool)[m % in.pool->size()].query;
    if (m % 2 == 0) {
      StatusOr<ObjectId> id =
          dataset.AppendObjectConcurrent(q.location, q.keywords);
      if (!id.ok()) {
        throw BenchError("index write replay: " + id.status().ToString());
      }
      SpanTimer span(tracer, "index.mutate");
      const Status inserted = tree.Insert(*id);
      mutate_us.push_back(span.Stop());
      if (!inserted.ok()) {
        throw BenchError("index write replay: " + inserted.ToString());
      }
    } else {
      // A random corpus object; one the served workload already removed
      // answers NotFound and is not timed.
      const ObjectId victim = static_cast<ObjectId>(rng.UniformUint64(corpus));
      SpanTimer span(tracer, "index.mutate");
      const Status removed = tree.Remove(victim);
      const double us = span.Stop();
      if (removed.ok()) {
        mutate_us.push_back(us);
      }
    }
  }
  std::vector<double> nnset_us;
  const size_t n = SampleSize(in, kSample);
  for (size_t i = 0; i < n; ++i) {
    const CoskqQuery& q = (*in.pool)[i].query;
    TermSet missing;
    SpanTimer span(tracer, "index.delta_nnset");
    tree.NnSet(q.location, q.keywords, &missing);
    nnset_us.push_back(span.Stop());
  }
  SpanTimer refreeze(tracer, "index.refreeze");
  const Status refrozen = tree.Refreeze();
  const double refreeze_ms = refreeze.Stop() / 1e3;
  if (!refrozen.ok()) {
    throw BenchError("refreeze: " + refrozen.ToString());
  }
  out->Add("index.mutate_us", Mean(mutate_us), "us");
  out->Add("index.delta_nnset_us", Median(nnset_us), "us");
  out->Add("index.refreeze_ms", refreeze_ms, "ms");
}

}  // namespace coskq::bench
