// Loopback tests for the sharded result cache (protocol v6, DESIGN.md §16):
// a real CoskqServer with the cache AND live mutations enabled, driven
// through CoskqClient.
//
//  * unit — ResultCache hit/miss/stale/evict mechanics without a server:
//    exact-coordinate hit guard, stamp-mismatch invalidation, byte-budget
//    eviction, snapshot counters;
//  * freshness — a QUERY issued after a MUTATE ack can never be answered
//    from a cache entry solved before that mutation: 50 seeded
//    query/mutate interleavings, zero stale reads tolerated;
//  * storm — COSKQ_TEST_THREADS lanes hammer disjoint points with
//    insert/probe/remove/probe loops over a cache that is concurrently
//    filling, hitting, invalidating, and being refrozen underneath (the
//    TSan CI job runs this variant with 8 lanes).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "index/irtree.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

int TestThreads() {
  const char* env = std::getenv("COSKQ_TEST_THREADS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0 && n <= 64) {
      return n;
    }
  }
  return 4;
}

ResultCacheKey MakeKey(double x, double y, std::vector<uint32_t> keywords,
                       int cell_bits) {
  ResultCacheKey key;
  key.cell = ResultCache::CellOf(x, y, cell_bits);
  key.keywords = std::move(keywords);
  key.solver = 0;
  key.cost_type = 0;
  key.x = x;
  key.y = y;
  return key;
}

TEST(ResultCacheUnitTest, HitStaleCoordGuardAndSnapshot) {
  ResultCache::Options options;
  options.budget_bytes = 1 << 20;
  ResultCache cache(options);

  const ResultCacheKey key = MakeKey(0.25, 0.75, {3, 7, 9}, 12);
  CachedAnswer answer;
  answer.outcome = static_cast<uint8_t>(QueryOutcome::kExecuted);
  answer.cost = 0.125;
  answer.set = {1, 2, 3};

  CachedAnswer out;
  EXPECT_FALSE(cache.Lookup(key, 1, 5, &out));  // Cold.
  cache.Insert(key, 1, 5, answer);
  ASSERT_TRUE(cache.Lookup(key, 1, 5, &out));
  EXPECT_EQ(out.cost, answer.cost);
  EXPECT_EQ(out.set, answer.set);

  // Same cell, different exact coordinates: a miss, and the entry stays.
  ResultCacheKey near = key;
  near.x += 1e-13;  // Same quantization cell at 12 mantissa bits.
  EXPECT_EQ(ResultCache::CellOf(near.x, near.y, 12), key.cell);
  EXPECT_FALSE(cache.Lookup(near, 1, 5, &out));
  ASSERT_TRUE(cache.Lookup(key, 1, 5, &out));

  // A stamp mismatch (epoch or mutation count) invalidates the entry.
  EXPECT_FALSE(cache.Lookup(key, 1, 6, &out));
  EXPECT_FALSE(cache.Lookup(key, 1, 5, &out));  // Erased, not just skipped.
  cache.Insert(key, 2, 0, answer);
  EXPECT_FALSE(cache.Lookup(key, 3, 0, &out));

  const ResultCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_GT(stats.misses, stats.hits);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

TEST(ResultCacheUnitTest, ByteBudgetEvictsLeastRecentlyUsed) {
  ResultCache::Options options;
  // 16 shards share the budget; a few hundred bytes per shard only fits a
  // couple of entries, so inserts must evict from the LRU tail.
  options.budget_bytes = 16 * 512;
  ResultCache cache(options);
  CachedAnswer answer;
  answer.set = {1, 2, 3, 4};
  for (uint32_t i = 0; i < 256; ++i) {
    cache.Insert(MakeKey(0.001 * i, 0.5, {i}, 12), 0, 0, answer);
  }
  const ResultCacheStats stats = cache.Snapshot();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, 16u * 512u);
  EXPECT_GT(stats.entries, 0u);
}

class CacheInvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(300, 25, 3.0, 777);
    index_ = std::make_unique<IrTree>(&dataset_);
    context_ = CoskqContext{&dataset_, index_.get()};
  }

  ServerOptions CachedMutableOptions() {
    ServerOptions options;
    options.enable_mutations = true;
    options.mutable_dataset = &dataset_;
    options.mutable_index = index_.get();
    options.result_cache_mb = 8;
    return options;
  }

  void StartServer(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<CoskqServer>(context_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// A single-keyword QUERY at `p`: the appro solver answers with the
  /// keyword's nearest object, so an object inserted exactly at `p` must
  /// win with cost 0 — any other answer after its ack is a stale read.
  QueryRequest ProbeQuery(const Point& p, const std::string& keyword) {
    QueryRequest q;
    q.x = p.x;
    q.y = p.y;
    q.solver = SolverKind::kAppro;
    q.cost_type = CostType::kMaxSum;
    q.keywords = {keyword};
    return q;
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> index_;
  CoskqContext context_;
  std::unique_ptr<CoskqServer> server_;
};

TEST_F(CacheInvalidationTest, RepeatHitsThenAckedInsertInvalidates) {
  StartServer(CachedMutableOptions());
  CoskqClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const std::string keyword = dataset_.vocabulary().TermString(0);
  const Point p{0.41421, 0.73205};

  // Fill, then hit: the repeat must be served and counted as a hit.
  StatusOr<QueryReply> first = client.Query(ProbeQuery(p, keyword));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->kind, QueryReply::Kind::kResult);
  StatusOr<QueryReply> repeat = client.Query(ProbeQuery(p, keyword));
  ASSERT_TRUE(repeat.ok());
  ASSERT_EQ(repeat->kind, QueryReply::Kind::kResult);
  EXPECT_EQ(repeat->result.set, first->result.set);
  EXPECT_EQ(repeat->result.cost, first->result.cost);
  StatusOr<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  if (!ResultCache::ForceDisabledByEnv()) {
    EXPECT_EQ(stats->cache_enabled, 1u);
    EXPECT_GE(stats->cache_hits, 1u);
  }

  // Acked insert at the exact probe point: the very next repeat must NOT be
  // served from the pre-mutation entry.
  MutateRequest insert;
  insert.op = MutateRequest::Op::kInsert;
  insert.x = p.x;
  insert.y = p.y;
  insert.keywords = {keyword};
  StatusOr<MutateReply> ack = client.Mutate(insert);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();

  StatusOr<QueryReply> fresh = client.Query(ProbeQuery(p, keyword));
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->kind, QueryReply::Kind::kResult);
  ASSERT_EQ(fresh->result.set.size(), 1u);
  EXPECT_EQ(fresh->result.set[0], ack->object_id);
  EXPECT_EQ(fresh->result.cost, 0.0);

  stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  if (!ResultCache::ForceDisabledByEnv()) {
    EXPECT_GE(stats->cache_invalidations, 1u);
  }
}

TEST_F(CacheInvalidationTest, FiftySeededInterleavingsZeroStaleReads) {
  StartServer(CachedMutableOptions());
  CoskqClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  size_t stale_reads = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed + 1);
    const Point p{rng.UniformDouble(0.05, 0.95),
                  rng.UniformDouble(0.05, 0.95)};
    const std::string keyword =
        dataset_.vocabulary().TermString(static_cast<TermId>(seed % 25));

    // Warm the cache with a seed-dependent number of identical queries so
    // some interleavings mutate over a fresh entry, others over a hot one.
    const int warmups = 1 + static_cast<int>(seed % 3);
    for (int w = 0; w < warmups; ++w) {
      StatusOr<QueryReply> warm = client.Query(ProbeQuery(p, keyword));
      ASSERT_TRUE(warm.ok());
      ASSERT_EQ(warm->kind, QueryReply::Kind::kResult);
    }

    MutateRequest insert;
    insert.op = MutateRequest::Op::kInsert;
    insert.x = p.x;
    insert.y = p.y;
    insert.keywords = {keyword};
    StatusOr<MutateReply> ack = client.Mutate(insert);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();

    // The acked insert sits exactly at the probe point: anything but
    // (inserted id, cost 0) is a stale read.
    StatusOr<QueryReply> probe = client.Query(ProbeQuery(p, keyword));
    ASSERT_TRUE(probe.ok());
    ASSERT_EQ(probe->kind, QueryReply::Kind::kResult);
    const bool fresh = probe->result.set.size() == 1 &&
                       probe->result.set[0] == ack->object_id &&
                       probe->result.cost == 0.0;
    if (!fresh) {
      ++stale_reads;
    }

    if (seed % 2 == 1) {
      // Half the interleavings also remove and re-probe: serving the
      // removed object after its remove ack is the other stale read.
      MutateRequest remove;
      remove.op = MutateRequest::Op::kRemove;
      remove.object_id = ack->object_id;
      ASSERT_TRUE(client.Mutate(remove).ok());
      probe = client.Query(ProbeQuery(p, keyword));
      ASSERT_TRUE(probe.ok());
      ASSERT_EQ(probe->kind, QueryReply::Kind::kResult);
      if (probe->result.outcome != QueryOutcome::kInfeasible &&
          !probe->result.set.empty() &&
          probe->result.set[0] == ack->object_id) {
        ++stale_reads;
      }
    }
  }
  EXPECT_EQ(stale_reads, 0u);

  // The freshness sweep above holds with or without a cache (the
  // COSKQ_RESULT_CACHE=off CI re-run proves the disabled path); the
  // counter assertions only make sense when the cache is live.
  StatusOr<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  if (!ResultCache::ForceDisabledByEnv()) {
    EXPECT_EQ(stats->cache_enabled, 1u);
    EXPECT_GT(stats->cache_hits, 0u);
    EXPECT_GT(stats->cache_invalidations, 0u);
  }
}

TEST_F(CacheInvalidationTest, ConcurrentQueryMutateStorm) {
  // A low refreeze threshold keeps background epoch swaps happening under
  // the storm, so stamp invalidation is exercised against both mutation
  // counts and epoch advances while lanes race on the cache shards.
  ServerOptions options = CachedMutableOptions();
  options.refreeze_threshold = 32;
  StartServer(options);

  const int lanes = TestThreads();
  constexpr int kIterations = 12;
  std::atomic<size_t> stale_reads{0};
  std::atomic<size_t> transport_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(lanes));
  for (int t = 0; t < lanes; ++t) {
    threads.emplace_back([&, t] {
      CoskqClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        transport_failures.fetch_add(1);
        return;
      }
      // Disjoint per-lane probe points: an object inserted at p_t is that
      // point's unique distance-0 answer no matter what other lanes do.
      const Point p{0.05 + 0.9 * (static_cast<double>(t) + 0.5) /
                               static_cast<double>(lanes),
                    0.37};
      const std::string keyword = dataset_.vocabulary().TermString(
          static_cast<TermId>(t % 25));
      for (int i = 0; i < kIterations; ++i) {
        // Repeat queries to generate hits on this lane's entry.
        for (int w = 0; w < 2; ++w) {
          StatusOr<QueryReply> warm = client.Query(ProbeQuery(p, keyword));
          if (!warm.ok() || warm->kind != QueryReply::Kind::kResult) {
            transport_failures.fetch_add(1);
            return;
          }
        }
        MutateRequest insert;
        insert.op = MutateRequest::Op::kInsert;
        insert.x = p.x;
        insert.y = p.y;
        insert.keywords = {keyword};
        StatusOr<MutateReply> ack = client.Mutate(insert);
        if (!ack.ok()) {
          transport_failures.fetch_add(1);
          return;
        }
        StatusOr<QueryReply> probe = client.Query(ProbeQuery(p, keyword));
        if (!probe.ok() || probe->kind != QueryReply::Kind::kResult) {
          transport_failures.fetch_add(1);
          return;
        }
        if (probe->result.set.size() != 1 ||
            probe->result.set[0] != ack->object_id ||
            probe->result.cost != 0.0) {
          stale_reads.fetch_add(1);
        }
        MutateRequest remove;
        remove.op = MutateRequest::Op::kRemove;
        remove.object_id = ack->object_id;
        if (!client.Mutate(remove).ok()) {
          transport_failures.fetch_add(1);
          return;
        }
        probe = client.Query(ProbeQuery(p, keyword));
        if (!probe.ok() || probe->kind != QueryReply::Kind::kResult) {
          transport_failures.fetch_add(1);
          return;
        }
        if (probe->result.outcome != QueryOutcome::kInfeasible &&
            !probe->result.set.empty() &&
            probe->result.set[0] == ack->object_id) {
          stale_reads.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(transport_failures.load(), 0u);
  EXPECT_EQ(stale_reads.load(), 0u);

  CoskqClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  if (!ResultCache::ForceDisabledByEnv()) {
    EXPECT_EQ(stats->cache_enabled, 1u);
    EXPECT_GT(stats->cache_hits, 0u);
    EXPECT_GT(stats->cache_invalidations, 0u);
  }
}

}  // namespace
}  // namespace coskq
