// End-to-end cluster tests: a real 4-shard serving cluster — shard servers
// reloaded from BuildShardedCluster's artifacts, fronted by a ClusterRouter
// on an ephemeral port — driven through the blocking CoskqClient.
//
//  * the acceptance bar — for EVERY solver family and BOTH cost functions,
//    50 seeded queries each, the routed answer is bit-identical (set, cost
//    bits, outcome) to a direct BatchEngine run over the whole dataset;
//  * router semantics — unknown keywords answer infeasible inline with no
//    fan-out, empty keyword lists error, MUTATE is refused as read-only,
//    version-mismatched clients get a decodable one-shot error;
//  * observability — STATS carries the manifest identity, fan-out/prune
//    counters that add up, and per-shard latency windows;
//  * client robustness — connect retries fail fast against a dead port and
//    per-request I/O deadlines fire against a silent peer.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/manifest.h"
#include "cluster/partitioner.h"
#include "cluster/router.h"
#include "data/query_gen.h"
#include "data/term_set.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "index/snapshot.h"
#include "server/client.h"
#include "server/codec.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

using test::RemoveDir;
using test::UniqueTempDir;

constexpr uint32_t kShards = 4;

/// Blocking socket with byte-exact reads for the version-mismatch test.
class RawSocket {
 public:
  ~RawSocket() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool WriteAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadExact(size_t count, std::string* out) {
    out->clear();
    out->resize(count);
    size_t got = 0;
    while (got < count) {
      const ssize_t n = read(fd_, &(*out)[got], count - got);
      if (n <= 0) {
        return false;
      }
      got += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadEof() {
    char buf[4096];
    while (true) {
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n == 0) {
        return true;
      }
      if (n < 0) {
        return false;
      }
    }
  }

 private:
  int fd_ = -1;
};

uint64_t ReadLe(const std::string& bytes, size_t offset, size_t count) {
  uint64_t v = 0;
  for (size_t i = 0; i < count; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

class ClusterRouterDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(320, 36, 3.0, 20130626);
    index_ = std::make_unique<IrTree>(&dataset_);
    context_ = CoskqContext{&dataset_, index_.get()};

    dir_ = UniqueTempDir("coskq_cluster_router");

    BuildClusterOptions build;
    build.num_shards = kShards;
    StatusOr<ClusterManifest> built =
        BuildShardedCluster(dataset_, dir_, build);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    manifest_ = std::move(*built);

    // Shard servers exactly as deployment runs them: dataset reloaded from
    // the shard file, index loaded from the frozen snapshot it binds.
    RouterOptions router_options;
    for (const ShardManifestEntry& shard : manifest_.shards) {
      auto ds = std::make_unique<Dataset>();
      StatusOr<Dataset> loaded =
          Dataset::LoadFromFile(dir_ + "/" + shard.dataset_file);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      *ds = std::move(*loaded);
      StatusOr<std::unique_ptr<IrTree>> tree =
          LoadSnapshot(ds.get(), dir_ + "/" + shard.snapshot_file);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();

      ServerOptions options;
      options.port = 0;
      options.index_from_snapshot = true;
      auto server = std::make_unique<CoskqServer>(
          CoskqContext{ds.get(), tree->get()}, options);
      ASSERT_TRUE(server->Start().ok());
      router_options.shards.push_back(
          ShardAddress{"127.0.0.1", server->port()});

      shard_datasets_.push_back(std::move(ds));
      shard_trees_.push_back(std::move(*tree));
      shard_servers_.push_back(std::move(server));
    }

    router_options.client_options.connect_timeout_ms = 2000;
    router_options.client_options.io_timeout_ms = 10000;
    router_ = std::make_unique<ClusterRouter>(manifest_, router_options);
    ASSERT_TRUE(router_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", router_->port()).ok());
  }

  void TearDown() override {
    client_.Close();
    if (router_ != nullptr) {
      router_->Shutdown();
      router_->Wait();
    }
    for (auto& server : shard_servers_) {
      server->Shutdown();
      server->Wait();
    }
    RemoveDir(dir_);
  }

  struct QueryPair {
    QueryRequest request;
    CoskqQuery query;
  };

  QueryPair MakePair(CostType cost, SolverKind solver, size_t num_keywords,
                     Rng* rng) const {
    QueryPair pair;
    QueryGenerator gen(&dataset_);
    pair.query = gen.Generate(num_keywords, rng);
    pair.request.x = pair.query.location.x;
    pair.request.y = pair.query.location.y;
    pair.request.cost_type = cost;
    pair.request.solver = solver;
    for (TermId t : pair.query.keywords) {
      pair.request.keywords.push_back(dataset_.vocabulary().TermString(t));
    }
    return pair;
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> index_;
  CoskqContext context_;
  std::string dir_;
  ClusterManifest manifest_;
  std::vector<std::unique_ptr<Dataset>> shard_datasets_;
  std::vector<std::unique_ptr<IrTree>> shard_trees_;
  std::vector<std::unique_ptr<CoskqServer>> shard_servers_;
  std::unique_ptr<ClusterRouter> router_;
  CoskqClient client_;
};

// The acceptance bar: every solver family, both cost functions, 50 seeded
// queries each — the routed answer must be bit-identical to the direct
// BatchEngine run over the whole dataset (same set, same cost BITS, same
// outcome). This is what "the cluster is a transparent drop-in" means.
TEST_F(ClusterRouterDiffTest, BitIdenticalToSingleDatasetRun) {
  const SolverKind kinds[] = {SolverKind::kExact,     SolverKind::kAppro,
                              SolverKind::kCaoExact,  SolverKind::kCaoAppro1,
                              SolverKind::kCaoAppro2, SolverKind::kBruteForce};
  size_t checked = 0;
  for (SolverKind kind : kinds) {
    for (CostType cost : {CostType::kMaxSum, CostType::kDia}) {
      std::vector<QueryPair> pairs;
      std::vector<CoskqQuery> queries;
      for (uint64_t seed = 0; seed < 50; ++seed) {
        Rng rng(seed * 977 + 13);
        pairs.push_back(MakePair(cost, kind, 2 + seed % 3, &rng));
        queries.push_back(pairs.back().query);
      }

      BatchOptions batch_options;
      batch_options.solver_name = SolverRegistryName(kind, cost);
      batch_options.num_threads = 1;
      const BatchOutcome direct =
          BatchEngine(context_, batch_options).Run(queries);
      ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();

      for (size_t i = 0; i < pairs.size(); ++i) {
        SCOPED_TRACE(batch_options.solver_name + " seed " +
                     std::to_string(i));
        StatusOr<QueryReply> reply = client_.Query(pairs[i].request);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
        const CoskqResult& want = direct.results[i];
        EXPECT_EQ(reply->result.outcome == QueryOutcome::kInfeasible,
                  !want.feasible);
        EXPECT_EQ(reply->result.set, want.set);
        EXPECT_EQ(std::memcmp(&reply->result.cost, &want.cost,
                              sizeof(double)),
                  0)
            << "router cost " << reply->result.cost << " vs direct "
            << want.cost;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 6u * 2u * 50u);
}

// The owner-driven exact solver is the only family the router distance-
// prunes (the Cao exact and brute-force searches break equal-cost ties by
// enumeration order, so any candidate removal can flip their answer set).
// Back the prune's identity claim with a 4x-deeper seed sweep on exactly
// that family, and verify the prune actually fired over the sweep.
TEST_F(ClusterRouterDiffTest, DistancePrunedExactSolverSurvivesDeepSweep) {
  size_t checked = 0;
  for (CostType cost : {CostType::kMaxSum, CostType::kDia}) {
    std::vector<QueryPair> pairs;
    std::vector<CoskqQuery> queries;
    for (uint64_t seed = 0; seed < 200; ++seed) {
      Rng rng(seed * 6151 + 7);
      pairs.push_back(MakePair(cost, SolverKind::kExact, 2 + seed % 3, &rng));
      queries.push_back(pairs.back().query);
    }

    BatchOptions batch_options;
    batch_options.solver_name = SolverRegistryName(SolverKind::kExact, cost);
    batch_options.num_threads = 1;
    const BatchOutcome direct =
        BatchEngine(context_, batch_options).Run(queries);
    ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();

    for (size_t i = 0; i < pairs.size(); ++i) {
      SCOPED_TRACE(batch_options.solver_name + " seed " + std::to_string(i));
      StatusOr<QueryReply> reply = client_.Query(pairs[i].request);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
      const CoskqResult& want = direct.results[i];
      EXPECT_EQ(reply->result.outcome == QueryOutcome::kInfeasible,
                !want.feasible);
      EXPECT_EQ(reply->result.set, want.set);
      EXPECT_EQ(
          std::memcmp(&reply->result.cost, &want.cost, sizeof(double)), 0);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2u * 200u);

  StatusOr<StatsReply> stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->probe_queries, 0u);
}

TEST_F(ClusterRouterDiffTest, StatsCarryManifestIdentityAndFanout) {
  Rng rng(5);
  constexpr int kQueries = 20;
  for (int i = 0; i < kQueries; ++i) {
    // Alternate exact and approximate so both the probe path and the
    // harvest-everything path run.
    const SolverKind kind =
        (i % 2 == 0) ? SolverKind::kExact : SolverKind::kAppro;
    QueryPair pair = MakePair(CostType::kMaxSum, kind, 3, &rng);
    StatusOr<QueryReply> reply = client_.Query(pair.request);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
  }

  StatusOr<StatsReply> stats = client_.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->is_router, 1u);
  EXPECT_EQ(stats->cluster_shards, kShards);
  EXPECT_EQ(stats->manifest_checksum, manifest_.file_checksum);
  EXPECT_EQ(stats->cluster_dataset_checksum, dataset_.ContentChecksum());
  EXPECT_EQ(stats->cluster_objects, dataset_.NumObjects());
  EXPECT_EQ(stats->queries_received, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats->queries_executed, static_cast<uint64_t>(kQueries));
  EXPECT_GT(stats->shards_harvested, 0u);
  // Every query accounts for all shards: harvested + pruned == K per
  // fanned-out query.
  EXPECT_EQ(stats->shards_harvested + stats->shards_pruned_keyword +
                stats->shards_pruned_distance,
            static_cast<uint64_t>(kQueries) * kShards);
  // Only the exact half may probe, and with frequent-band keywords over
  // this corpus at least some of them find a full-coverage shard to probe.
  EXPECT_GT(stats->probe_queries, 0u);
  EXPECT_LE(stats->probe_queries, static_cast<uint64_t>(kQueries) / 2);
  ASSERT_EQ(stats->shard_stats.size(), kShards);
  uint64_t fanout = 0;
  for (const StatsReply::ShardStats& shard : stats->shard_stats) {
    fanout += shard.fanout;
    EXPECT_GE(shard.p95_ms, shard.p50_ms);
  }
  EXPECT_EQ(fanout, stats->shards_harvested);
  EXPECT_GT(stats->p95_ms, 0.0);
  // The human rendering carries the cluster block.
  EXPECT_NE(stats->ToString().find("cluster{"), std::string::npos);
}

TEST_F(ClusterRouterDiffTest, UnknownKeywordIsInfeasibleInlineWithNoFanout) {
  const uint64_t harvested_before = router_->stats().shards_harvested;
  QueryRequest request;
  request.x = 0.5;
  request.y = 0.5;
  request.keywords = {"no-such-word-anywhere"};
  StatusOr<QueryReply> reply = client_.Query(request);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
  EXPECT_EQ(reply->result.outcome, QueryOutcome::kInfeasible);
  EXPECT_TRUE(reply->result.set.empty());
  EXPECT_EQ(router_->stats().shards_harvested, harvested_before);
  EXPECT_EQ(router_->stats().queries_infeasible, 1u);
}

TEST_F(ClusterRouterDiffTest, EmptyKeywordListIsAnError) {
  QueryRequest request;
  request.x = 0.5;
  request.y = 0.5;
  StatusOr<QueryReply> reply = client_.Query(request);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kError);
  EXPECT_EQ(reply->error.code, StatusCode::kInvalidArgument);
  // The connection survives an error reply.
  EXPECT_TRUE(client_.Ping().ok());
}

TEST_F(ClusterRouterDiffTest, RouterIsReadOnly) {
  MutateRequest mutate;
  mutate.op = MutateRequest::Op::kInsert;
  mutate.x = 0.5;
  mutate.y = 0.5;
  mutate.keywords = {dataset_.vocabulary().TermString(0)};
  StatusOr<MutateReply> reply = client_.Mutate(mutate);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnimplemented);
  EXPECT_TRUE(client_.Ping().ok());
}

TEST_F(ClusterRouterDiffTest, VersionMismatchGetsDecodableOneShotError) {
  RawSocket raw;
  ASSERT_TRUE(raw.Connect(router_->port()));
  constexpr uint8_t kOldVersion = 4;
  constexpr uint32_t kRequestId = 0xC0FFEE;
  ASSERT_TRUE(raw.WriteAll(EncodeFrameWithVersion(
      kOldVersion, Verb::kPing, kRequestId, std::string())));
  std::string header;
  ASSERT_TRUE(raw.ReadExact(kFrameHeaderBytes, &header));
  EXPECT_EQ(ReadLe(header, 0, 2), kProtocolMagic);
  EXPECT_EQ(static_cast<uint8_t>(header[2]), kOldVersion);
  EXPECT_EQ(static_cast<uint8_t>(header[3]),
            static_cast<uint8_t>(Verb::kError));
  EXPECT_EQ(ReadLe(header, 4, 4), kRequestId);
  std::string payload;
  ASSERT_TRUE(
      raw.ReadExact(static_cast<size_t>(ReadLe(header, 8, 4)), &payload));
  ErrorReply err;
  ASSERT_TRUE(DecodeErrorReply(payload, &err));
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("version 4"), std::string::npos);
  EXPECT_TRUE(raw.ReadEof());
}

TEST_F(ClusterRouterDiffTest, ShutdownDrainsAndRefusesNewConnections) {
  Rng rng(9);
  QueryPair pair = MakePair(CostType::kDia, SolverKind::kAppro, 3, &rng);
  StatusOr<QueryReply> reply = client_.Query(pair.request);
  ASSERT_TRUE(reply.ok());
  router_->Shutdown();
  router_->Wait();
  EXPECT_FALSE(router_->running());
  CoskqClient late;
  ClientOptions options;
  options.connect_timeout_ms = 500;
  EXPECT_FALSE(late.Connect("127.0.0.1", router_->port(), options).ok());
}

// A canonical keyword set wider than one RELEVANT mask (> 64 distinct
// keywords) must still be answered bit-identically: the router splits the
// harvest into kMaxRelevantKeywords-sized chunks and ORs the per-chunk
// masks per object. The single server answers such queries (its query-mask
// fast path just deactivates past 64 keywords), so the router may not
// reject them.
TEST(ClusterRouterWideKeywordTest, ChunkedHarvestIsBitIdentical) {
  Dataset dataset = test::MakeRandomDataset(200, 80, 6.0, 20130645);
  IrTree index(&dataset);
  CoskqContext context{&dataset, &index};

  // Query over terms that actually occur, so the answer is a real group and
  // not an inline infeasibility.
  std::vector<bool> present(dataset.vocabulary().size(), false);
  for (size_t id = 0; id < dataset.NumObjects(); ++id) {
    for (TermId t : dataset.object(id).keywords) {
      present[t] = true;
    }
  }
  TermSet wide_terms;
  for (TermId t = 0; t < static_cast<TermId>(present.size()) &&
                     wide_terms.size() < kMaxRelevantKeywords + 8;
       ++t) {
    if (present[t]) {
      wide_terms.push_back(t);
    }
  }
  ASSERT_GT(wide_terms.size(), kMaxRelevantKeywords);

  const std::string dir = UniqueTempDir("coskq_cluster_wide");
  BuildClusterOptions build;
  build.num_shards = 2;
  StatusOr<ClusterManifest> built = BuildShardedCluster(dataset, dir, build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  RouterOptions router_options;
  std::vector<std::unique_ptr<Dataset>> shard_datasets;
  std::vector<std::unique_ptr<IrTree>> shard_trees;
  std::vector<std::unique_ptr<CoskqServer>> shard_servers;
  for (const ShardManifestEntry& shard : built->shards) {
    auto ds = std::make_unique<Dataset>();
    StatusOr<Dataset> loaded =
        Dataset::LoadFromFile(dir + "/" + shard.dataset_file);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    *ds = std::move(*loaded);
    StatusOr<std::unique_ptr<IrTree>> tree =
        LoadSnapshot(ds.get(), dir + "/" + shard.snapshot_file);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ServerOptions options;
    options.port = 0;
    options.index_from_snapshot = true;
    auto server = std::make_unique<CoskqServer>(
        CoskqContext{ds.get(), tree->get()}, options);
    ASSERT_TRUE(server->Start().ok());
    router_options.shards.push_back(ShardAddress{"127.0.0.1", server->port()});
    shard_datasets.push_back(std::move(ds));
    shard_trees.push_back(std::move(*tree));
    shard_servers.push_back(std::move(server));
  }
  ClusterRouter router(*built, router_options);
  ASSERT_TRUE(router.Start().ok());
  CoskqClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()).ok());

  for (CostType cost : {CostType::kMaxSum, CostType::kDia}) {
    SCOPED_TRACE(static_cast<int>(cost));
    CoskqQuery query;
    query.location = Point{0.42, 0.58};
    query.keywords = wide_terms;
    NormalizeTermSet(&query.keywords);

    QueryRequest request;
    request.x = query.location.x;
    request.y = query.location.y;
    request.cost_type = cost;
    request.solver = SolverKind::kAppro;
    // Reversed order plus a duplicate: the router must canonicalize by
    // global term id exactly as the single server's interning does.
    for (size_t i = wide_terms.size(); i-- > 0;) {
      request.keywords.push_back(
          dataset.vocabulary().TermString(wide_terms[i]));
    }
    request.keywords.push_back(
        dataset.vocabulary().TermString(wide_terms[0]));

    BatchOptions batch_options;
    batch_options.solver_name =
        SolverRegistryName(SolverKind::kAppro, cost);
    batch_options.num_threads = 1;
    const BatchOutcome direct =
        BatchEngine(context, batch_options).Run({query});
    ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();
    const CoskqResult& want = direct.results[0];
    ASSERT_TRUE(want.feasible);

    StatusOr<QueryReply> reply = client.Query(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
    EXPECT_EQ(reply->result.outcome, QueryOutcome::kExecuted);
    EXPECT_EQ(reply->result.set, want.set);
    EXPECT_EQ(std::memcmp(&reply->result.cost, &want.cost, sizeof(double)),
              0)
        << "router cost " << reply->result.cost << " vs direct "
        << want.cost;
  }

  client.Close();
  router.Shutdown();
  router.Wait();
  for (auto& server : shard_servers) {
    server->Shutdown();
    server->Wait();
  }
  RemoveDir(dir);
}

// Client churn must never wedge the router: a finished connection is
// reaped (thread joined, shard clients released) by the accept loop, so
// max_connections bounds *concurrent* clients, not cumulative accepts.
TEST(ClusterRouterChurnTest, FinishedConnectionsAreReapedNotCounted) {
  // PING never touches a shard, so a dead shard address suffices.
  ClusterManifest manifest;
  manifest.shards.resize(1);
  RouterOptions options;
  options.shards.push_back(ShardAddress{"127.0.0.1", 1});
  options.max_connections = 2;
  ClusterRouter router(manifest, options);
  ASSERT_TRUE(router.Start().ok());

  // Far more sequential connections than the cap. Reaping happens on the
  // next accept, so a connection racing a not-yet-finished predecessor may
  // be turned away once — hence the bounded retry; without reaping every
  // attempt past the cap fails forever.
  for (int i = 0; i < 3 * 2 + 2; ++i) {
    SCOPED_TRACE(i);
    bool served = false;
    for (int attempt = 0; attempt < 400 && !served; ++attempt) {
      CoskqClient client;
      ClientOptions copts;
      copts.connect_timeout_ms = 1000;
      copts.io_timeout_ms = 1000;
      served = client.Connect("127.0.0.1", router.port(), copts).ok() &&
               client.Ping().ok();
      client.Close();
      if (!served) {
        usleep(5 * 1000);
      }
    }
    ASSERT_TRUE(served);
  }
  EXPECT_GE(router.stats().connections_accepted, 8u);
  router.Shutdown();
  router.Wait();
}

// ---- Client robustness (the ClientOptions surface the router relies on).

TEST(ClusterClientRobustnessTest, ConnectRetriesFailFastAgainstDeadPort) {
  // Grab an ephemeral port and close it: nothing listens there.
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  close(fd);

  CoskqClient client;
  ClientOptions options;
  options.connect_timeout_ms = 200;
  options.max_connect_attempts = 3;
  options.retry_backoff_ms = 5;
  const Status status = client.Connect("127.0.0.1", dead_port, options);
  ASSERT_FALSE(status.ok());
  EXPECT_FALSE(client.connected());
}

TEST(ClusterClientRobustnessTest, BadAddressFailsWithoutRetrying) {
  CoskqClient client;
  ClientOptions options;
  options.max_connect_attempts = 100;
  options.retry_backoff_ms = 1000;  // Would hang for minutes if retried.
  const Status status = client.Connect("not-an-address", 1, options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ClusterClientRobustnessTest, IoDeadlineFiresAgainstSilentPeer) {
  // A listener that accepts into its backlog but never reads or replies.
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  CoskqClient client;
  ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 150;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", ntohs(addr.sin_port), options).ok());
  const Status status = client.Ping();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("timed out"), std::string::npos)
      << status.ToString();
  close(fd);
}

}  // namespace
}  // namespace coskq
