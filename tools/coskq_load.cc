// coskq_load — open-loop load generator for the CoSKQ query service.
//
// Drives a running `coskq_cli serve` instance at a target arrival rate:
// request k is *scheduled* at k/QPS seconds after start regardless of how
// fast earlier requests completed (open loop), so a saturated server shows
// up as shed OVERLOADED responses and latency inflation instead of a
// silently reduced offered rate. Each lane sends synchronously, so a
// request that falls due while its lane still waits on an earlier reply
// goes out late; its latency runs from its scheduled slot, not from the
// send, so that wait is charged to it (no coordinated omission). The send
// lag — how late requests left — is printed beside the latency line.
//
//   coskq_load <host> <port> <dataset.txt>
//       [--qps Q] [--duration-s D] [--connections C] [--keywords K]
//       [--solver exact|appro|cao-exact|cao-appro1|cao-appro2|brute-force]
//       [--cost maxsum|dia] [--deadline-ms D] [--deadline-jitter-ms J]
//       [--seed S] [--mutate-fraction F] [--zipf-theta T]
//       [--hotspot-fraction F] [--hotspot-radius R]
//
// The dataset file is the one the server loaded; it is read only to
// reproduce the vocabulary so generated queries carry real keywords. Each
// request draws its deadline uniformly from [D-J, D+J] (clamped at >= 0;
// 0 = none). Prints achieved throughput, the response mix, and a
// log-scaled latency histogram with p50/p95/p99.
//
// Production-shaped skew: when --zipf-theta or --hotspot-fraction is set,
// requests are drawn from a finite pre-generated pool of complete
// (location, keyword set) tuples instead of being fresh uniform queries —
// production clients re-issue the same exact query, and the server's
// result cache can only hit on exact repeats. --zipf-theta T > 0 shapes
// both halves: each pool entry's keywords are drawn with a Zipf(T) sampler
// over the frequency-ranked vocabulary (rank 0 = the most frequent term),
// and each request picks its pool entry with the same Zipf so a handful of
// hot tuples dominates the stream. --hotspot-fraction places that fraction
// of the pool's locations inside a few hotspot clusters of radius
// --hotspot-radius (a fraction of the dataset MBR's larger extent, default
// 0.02); the rest are uniform over the MBR. A summary line reports the
// stream's repeat rate — the fraction of QUERY slots whose exact
// (location, keyword set, solver, cost) tuple already occurred — which is
// the ceiling on any result-cache hit rate. The tool also snapshots server
// STATS before and after the run and, when the server has a result cache
// (protocol v6), prints the server-side hit/miss delta attributable to
// this run.
//
// --mutate-fraction F turns fraction F of the scheduled slots into MUTATE
// requests (requires a server started with --enable-mutations): each lane
// alternates between inserting fresh objects (at query-generator locations
// with real vocabulary keywords) and removing ids it inserted earlier, so a
// mixed read/write soak exercises the delta-merge query paths and the
// background refreeze under live traffic.
//
// Exit status: 0 when every request got an in-band protocol response
// (RESULT / OVERLOADED / ERROR / MUTATE_REPLY); 1 on transport failures or
// when nothing succeeded at all.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "data/query_gen.h"
#include "geo/point.h"
#include "geo/rect.h"
#include "server/client.h"
#include "server/protocol.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace coskq {
namespace {

struct LoadConfig {
  std::string host;
  uint16_t port = 0;
  std::string dataset_path;
  double qps = 200.0;
  double duration_s = 5.0;
  int connections = 4;
  size_t keywords = 4;
  SolverKind solver = SolverKind::kAppro;
  CostType cost = CostType::kMaxSum;
  double deadline_ms = 0.0;
  double deadline_jitter_ms = 0.0;
  uint64_t seed = 1;
  /// Fraction of scheduled slots sent as MUTATE instead of QUERY.
  double mutate_fraction = 0.0;
  /// Zipf exponent for keyword ranks and site popularity; 0 = uniform
  /// fresh queries (the historical behaviour).
  double zipf_theta = 0.0;
  /// Fraction of the location site pool placed inside hotspot clusters.
  double hotspot_fraction = 0.0;
  /// Hotspot cluster radius as a fraction of the MBR's larger extent.
  double hotspot_radius = 0.02;
};

/// Site pool dimensions for skewed traffic. 4 clusters x a 256-entry pool
/// keeps the tuple universe small enough that repeats occur within a short
/// soak but large enough that a 64 MiB cache never evicts under it.
constexpr size_t kHotspotClusters = 4;
constexpr size_t kSitePool = 256;

/// Sample.kind value for an acked mutation (past the QueryReply kinds).
constexpr int kMutateKind = 3;
/// Sample.kind value for an in-band mutation rejection.
constexpr int kMutateErrorKind = 4;

/// Per-request record; kind -1 marks a transport failure. Latency runs
/// from the request's scheduled slot; send_lag_ms is how late it was sent.
struct Sample {
  double latency_ms = 0.0;
  double send_lag_ms = 0.0;
  int kind = -1;
  QueryOutcome outcome = QueryOutcome::kExecuted;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: coskq_load <host> <port> <dataset.txt> [--qps Q] "
      "[--duration-s D]\n"
      "       [--connections C] [--keywords K] [--solver KIND] "
      "[--cost maxsum|dia]\n"
      "       [--deadline-ms D] [--deadline-jitter-ms J] [--seed S]\n"
      "       [--mutate-fraction F] [--zipf-theta T] "
      "[--hotspot-fraction F]\n"
      "       [--hotspot-radius R]\n");
  return 2;
}

bool ParseSolverKind(const std::string& name, SolverKind* out) {
  if (name == "exact") {
    *out = SolverKind::kExact;
  } else if (name == "appro") {
    *out = SolverKind::kAppro;
  } else if (name == "cao-exact") {
    *out = SolverKind::kCaoExact;
  } else if (name == "cao-appro1") {
    *out = SolverKind::kCaoAppro1;
  } else if (name == "cao-appro2") {
    *out = SolverKind::kCaoAppro2;
  } else if (name == "brute-force") {
    *out = SolverKind::kBruteForce;
  } else {
    return false;
  }
  return true;
}

/// Latency histogram over doubling buckets starting at 0.25 ms.
void PrintHistogram(const std::vector<double>& latencies) {
  if (latencies.empty()) {
    return;
  }
  constexpr int kBuckets = 14;
  size_t counts[kBuckets] = {0};
  for (double ms : latencies) {
    double bound = 0.25;
    int b = 0;
    while (b < kBuckets - 1 && ms > bound) {
      bound *= 2.0;
      ++b;
    }
    ++counts[b];
  }
  const size_t peak = *std::max_element(counts, counts + kBuckets);
  double bound = 0.25;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts[b] > 0) {
      const int bar =
          static_cast<int>(40.0 * static_cast<double>(counts[b]) /
                           static_cast<double>(peak));
      std::printf("  %8s %-40s %zu\n",
                  (b == kBuckets - 1 ? "> " + FormatMillis(bound / 2)
                                     : "<= " + FormatMillis(bound))
                      .c_str(),
                  std::string(static_cast<size_t>(std::max(bar, 1)), '#')
                      .c_str(),
                  counts[b]);
    }
    bound *= 2.0;
  }
}

int RunLoad(const LoadConfig& config) {
  StatusOr<Dataset> loaded = Dataset::LoadFromFile(config.dataset_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Dataset dataset = std::move(loaded).value();

  // Pre-generate every request so the send loops do no work but pacing.
  const size_t total =
      static_cast<size_t>(config.qps * config.duration_s + 0.5);
  if (total == 0) {
    std::fprintf(stderr, "error: qps * duration rounds to zero requests\n");
    return 1;
  }
  QueryGenerator gen(&dataset);
  Rng rng(config.seed);

  // Skewed traffic: a finite pool of complete (location, keyword set)
  // tuples is pre-drawn, and each request samples one — via Zipf(theta)
  // popularity when --zipf-theta is set, uniformly otherwise. Binding the
  // keywords to the site at pool construction is what makes whole tuples
  // recur: production clients re-issue the same query, not a fresh random
  // combination of a hot place and hot words. Uniform fresh queries when
  // neither skew knob is set (the historical behaviour).
  const bool skewed =
      config.zipf_theta > 0.0 || config.hotspot_fraction > 0.0;
  std::vector<QueryRequest> pool;
  if (skewed) {
    const Rect mbr = dataset.mbr();
    const double extent =
        std::max(mbr.max_x - mbr.min_x, mbr.max_y - mbr.min_y);
    const double radius = config.hotspot_radius * extent;
    Point centers[kHotspotClusters];
    for (size_t h = 0; h < kHotspotClusters; ++h) {
      centers[h].x = rng.UniformDouble(mbr.min_x, mbr.max_x);
      centers[h].y = rng.UniformDouble(mbr.min_y, mbr.max_y);
    }
    const std::vector<TermId>& ranked_terms = dataset.TermsByFrequencyDesc();
    std::unique_ptr<ZipfSampler> term_zipf;
    if (config.zipf_theta > 0.0 && !ranked_terms.empty()) {
      term_zipf = std::make_unique<ZipfSampler>(ranked_terms.size(),
                                                config.zipf_theta);
    }
    pool.reserve(kSitePool);
    for (size_t s = 0; s < kSitePool; ++s) {
      QueryRequest entry;
      if (rng.UniformDouble(0.0, 1.0) < config.hotspot_fraction) {
        const Point& c = centers[s % kHotspotClusters];
        entry.x = std::min(
            mbr.max_x,
            std::max(mbr.min_x, c.x + rng.UniformDouble(-radius, radius)));
        entry.y = std::min(
            mbr.max_y,
            std::max(mbr.min_y, c.y + rng.UniformDouble(-radius, radius)));
      } else {
        entry.x = rng.UniformDouble(mbr.min_x, mbr.max_x);
        entry.y = rng.UniformDouble(mbr.min_y, mbr.max_y);
      }
      std::vector<TermId> terms;
      if (term_zipf != nullptr) {
        // Draw distinct terms by frequency rank; the attempt cap falls back
        // to filling from the top of the ranking so this always terminates.
        const size_t want = std::min(config.keywords, ranked_terms.size());
        size_t attempts = 0;
        while (terms.size() < want && attempts < 64 * want) {
          ++attempts;
          const TermId t = ranked_terms[term_zipf->Sample(&rng)];
          if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
            terms.push_back(t);
          }
        }
        for (size_t r = 0; terms.size() < want; ++r) {
          const TermId t = ranked_terms[r];
          if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
            terms.push_back(t);
          }
        }
      } else {
        const CoskqQuery q = gen.Generate(config.keywords, &rng);
        terms.assign(q.keywords.begin(), q.keywords.end());
      }
      entry.keywords.reserve(terms.size());
      for (TermId t : terms) {
        entry.keywords.push_back(dataset.vocabulary().TermString(t));
      }
      pool.push_back(std::move(entry));
    }
  }
  std::unique_ptr<ZipfSampler> pool_zipf;
  if (skewed && config.zipf_theta > 0.0) {
    pool_zipf = std::make_unique<ZipfSampler>(kSitePool, config.zipf_theta);
  }

  std::vector<QueryRequest> requests;
  requests.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    QueryRequest request;
    if (skewed) {
      const size_t pick =
          pool_zipf != nullptr
              ? pool_zipf->Sample(&rng)
              : static_cast<size_t>(rng.UniformUint64(pool.size() - 1));
      request = pool[pick];
    } else {
      const CoskqQuery q = gen.Generate(config.keywords, &rng);
      request.x = q.location.x;
      request.y = q.location.y;
      request.keywords.reserve(q.keywords.size());
      for (TermId t : q.keywords) {
        request.keywords.push_back(dataset.vocabulary().TermString(t));
      }
    }
    request.cost_type = config.cost;
    request.solver = config.solver;
    request.deadline_ms = config.deadline_ms;
    if (config.deadline_ms > 0.0 && config.deadline_jitter_ms > 0.0) {
      request.deadline_ms = std::max(
          0.0, rng.UniformDouble(config.deadline_ms - config.deadline_jitter_ms,
                                 config.deadline_ms + config.deadline_jitter_ms));
    }
    requests.push_back(std::move(request));
  }
  // Mark the mutate slots up front so the mix is deterministic for a seed.
  std::vector<uint8_t> mutate_slot(total, 0);
  if (config.mutate_fraction > 0.0) {
    for (size_t i = 0; i < total; ++i) {
      mutate_slot[i] = rng.UniformDouble(0.0, 1.0) < config.mutate_fraction;
    }
  }

  // Repeat-rate over the QUERY slots: the fraction whose exact
  // (location, sorted keyword set) tuple already occurred. Solver and cost
  // are constant per run, so the tuple is the full cache identity; the
  // repeat rate is the ceiling on the server-side cache hit rate.
  size_t query_slots = 0;
  size_t repeated = 0;
  {
    std::unordered_set<std::string> seen;
    for (size_t i = 0; i < total; ++i) {
      if (mutate_slot[i] != 0) {
        continue;
      }
      ++query_slots;
      std::string key(16, '\0');
      std::memcpy(&key[0], &requests[i].x, 8);
      std::memcpy(&key[8], &requests[i].y, 8);
      std::vector<std::string> words = requests[i].keywords;
      std::sort(words.begin(), words.end());
      for (const std::string& w : words) {
        key.push_back('\n');
        key.append(w);
      }
      if (!seen.insert(std::move(key)).second) {
        ++repeated;
      }
    }
  }

  // Server-side cache accounting: snapshot STATS before and after so the
  // printed hit/miss delta covers exactly this run (works against a single
  // server and the cluster router alike). A failed snapshot degrades the
  // report, never the run.
  const auto fetch_stats = [&config]() -> StatusOr<StatsReply> {
    CoskqClient client;
    ClientOptions stat_options;
    stat_options.connect_timeout_ms = 2000;
    stat_options.max_connect_attempts = 3;
    stat_options.retry_backoff_ms = 100;
    const Status connected =
        client.Connect(config.host, config.port, stat_options);
    if (!connected.ok()) {
      return connected;
    }
    return client.Stats();
  };
  const StatusOr<StatsReply> stats_before = fetch_stats();

  // Thread t sends requests t, t+C, t+2C, ... each at its scheduled time.
  std::vector<Sample> samples(total);
  std::atomic<size_t> transport_errors{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  for (int t = 0; t < config.connections; ++t) {
    threads.emplace_back([&, t] {
      CoskqClient client;
      // A server or router that is still binding its port is a transient
      // condition, not a failed run: give connects a deadline and retry.
      ClientOptions connect_options;
      connect_options.connect_timeout_ms = 2000;
      connect_options.max_connect_attempts = 3;
      connect_options.retry_backoff_ms = 100;
      if (!client.Connect(config.host, config.port, connect_options).ok()) {
        transport_errors.fetch_add(1);
        return;
      }
      // Lane-local mutation state: removes only target ids this lane
      // inserted, so every well-formed MUTATE is expected to succeed.
      Rng lane_rng(config.seed * 7919 + static_cast<uint64_t>(t) + 1);
      QueryGenerator lane_gen(&dataset);
      std::vector<uint32_t> lane_inserted;
      for (size_t i = static_cast<size_t>(t); i < total;
           i += static_cast<size_t>(config.connections)) {
        const auto scheduled =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / config.qps));
        std::this_thread::sleep_until(scheduled);
        const auto millis_since_scheduled = [&scheduled] {
          return std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - scheduled)
              .count();
        };
        samples[i].send_lag_ms = millis_since_scheduled();
        if (mutate_slot[i] != 0) {
          MutateRequest mutation;
          const bool remove = !lane_inserted.empty() &&
                              lane_rng.UniformDouble(0.0, 1.0) < 0.5;
          if (remove) {
            const size_t pick = static_cast<size_t>(lane_rng.UniformDouble(
                0.0, static_cast<double>(lane_inserted.size())));
            const size_t slot = std::min(pick, lane_inserted.size() - 1);
            mutation.op = MutateRequest::Op::kRemove;
            mutation.object_id = lane_inserted[slot];
            lane_inserted.erase(lane_inserted.begin() +
                                static_cast<long>(slot));
          } else {
            const CoskqQuery q =
                lane_gen.Generate(config.keywords, &lane_rng);
            mutation.op = MutateRequest::Op::kInsert;
            mutation.x = q.location.x;
            mutation.y = q.location.y;
            for (TermId term : q.keywords) {
              mutation.keywords.push_back(
                  dataset.vocabulary().TermString(term));
            }
          }
          StatusOr<MutateReply> reply = client.Mutate(mutation);
          samples[i].latency_ms = millis_since_scheduled();
          if (reply.ok()) {
            samples[i].kind = kMutateKind;
            if (mutation.op == MutateRequest::Op::kInsert) {
              lane_inserted.push_back(reply->object_id);
            }
          } else if (reply.status().code() == StatusCode::kIoError ||
                     reply.status().code() == StatusCode::kCorruption) {
            transport_errors.fetch_add(1);
            return;  // The connection is unusable; stop this lane.
          } else {
            // In-band rejection (mutations disabled, capacity, ...): count
            // it and keep the lane running.
            samples[i].kind = kMutateErrorKind;
          }
          continue;
        }
        StatusOr<QueryReply> reply = client.Query(requests[i]);
        samples[i].latency_ms = millis_since_scheduled();
        if (!reply.ok()) {
          transport_errors.fetch_add(1);
          return;  // The connection is unusable; stop this lane.
        }
        samples[i].kind = static_cast<int>(reply->kind);
        if (reply->kind == QueryReply::Kind::kResult) {
          samples[i].outcome = reply->result.outcome;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Aggregate.
  size_t ok = 0;
  size_t truncated = 0;
  size_t infeasible = 0;
  size_t overloaded = 0;
  size_t errors = 0;
  size_t mutations_ok = 0;
  size_t mutations_rejected = 0;
  std::vector<double> ok_latencies;
  ok_latencies.reserve(total);
  std::vector<double> send_lags;
  send_lags.reserve(total);
  for (const Sample& s : samples) {
    if (s.kind != -1) {
      send_lags.push_back(s.send_lag_ms);
    }
    switch (s.kind) {
      case static_cast<int>(QueryReply::Kind::kResult):
        if (s.outcome == QueryOutcome::kDeadlineTruncated) {
          ++truncated;
        } else if (s.outcome == QueryOutcome::kInfeasible) {
          ++infeasible;
        }
        ++ok;
        ok_latencies.push_back(s.latency_ms);
        break;
      case static_cast<int>(QueryReply::Kind::kOverloaded):
        ++overloaded;
        break;
      case static_cast<int>(QueryReply::Kind::kError):
        ++errors;
        break;
      case kMutateKind:
        ++mutations_ok;
        break;
      case kMutateErrorKind:
        ++mutations_rejected;
        break;
      default:
        break;  // Transport failure or never sent; counted separately.
    }
  }

  const StatusOr<StatsReply> stats_after = fetch_stats();

  std::printf("offered %zu requests at %s qps over %s connections\n", total,
              FormatDouble(config.qps, 1).c_str(),
              FormatWithCommas(config.connections).c_str());
  if (query_slots > 0) {
    std::printf(
        "stream repeat rate: %s%% (%zu of %zu query slots repeat an exact "
        "earlier tuple; %zu distinct)\n",
        FormatDouble(100.0 * static_cast<double>(repeated) /
                         static_cast<double>(query_slots),
                     1)
            .c_str(),
        repeated, query_slots, query_slots - repeated);
  }
  std::printf(
      "answered %zu (%s/s): results=%zu (truncated=%zu infeasible=%zu) "
      "overloaded=%zu errors=%zu transport_errors=%zu\n",
      ok + overloaded + errors + mutations_ok + mutations_rejected,
      FormatDouble(static_cast<double>(ok) / wall_s, 1).c_str(), ok,
      truncated, infeasible, overloaded, errors, transport_errors.load());
  if (mutations_ok + mutations_rejected > 0) {
    std::printf("mutations applied=%zu rejected=%zu\n", mutations_ok,
                mutations_rejected);
  }
  if (!ok_latencies.empty()) {
    std::printf("latency p50=%s p95=%s p99=%s max=%s send-lag p50=%s p99=%s\n",
                FormatMillis(Percentile(ok_latencies, 50.0)).c_str(),
                FormatMillis(Percentile(ok_latencies, 95.0)).c_str(),
                FormatMillis(Percentile(ok_latencies, 99.0)).c_str(),
                FormatMillis(*std::max_element(ok_latencies.begin(),
                                               ok_latencies.end()))
                    .c_str(),
                FormatMillis(Percentile(send_lags, 50.0)).c_str(),
                FormatMillis(Percentile(send_lags, 99.0)).c_str());
    PrintHistogram(ok_latencies);
  }
  if (stats_after.ok() && stats_after->cache_enabled != 0) {
    // Delta against the pre-run snapshot isolates this run's traffic; if
    // the before snapshot failed, fall back to the lifetime counters.
    uint64_t hits = stats_after->cache_hits;
    uint64_t misses = stats_after->cache_misses;
    if (stats_before.ok() && stats_before->cache_enabled != 0) {
      hits -= std::min(stats_before->cache_hits, hits);
      misses -= std::min(stats_before->cache_misses, misses);
    }
    const uint64_t lookups = hits + misses;
    std::printf(
        "server result cache: +%llu hits / +%llu misses this run "
        "(hit rate %s%%); %llu entries, %llu bytes resident\n",
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        FormatDouble(lookups == 0 ? 0.0
                                  : 100.0 * static_cast<double>(hits) /
                                        static_cast<double>(lookups),
                     1)
            .c_str(),
        static_cast<unsigned long long>(stats_after->cache_entries),
        static_cast<unsigned long long>(stats_after->cache_resident_bytes));
  } else if (stats_after.ok()) {
    std::printf("server result cache: disabled\n");
  }
  return (transport_errors.load() == 0 && ok + mutations_ok > 0) ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  LoadConfig config;
  config.host = argv[1];
  uint64_t port = 0;
  if (!ParseUint64(argv[2], &port) || port == 0 || port > 65535) {
    return Usage();
  }
  config.port = static_cast<uint16_t>(port);
  config.dataset_path = argv[3];
  std::vector<std::string> args(argv + 4, argv + argc);
  for (size_t i = 0; i + 1 < args.size() + 1; i += 2) {
    if (i + 1 >= args.size()) {
      return Usage();
    }
    uint64_t value = 0;
    if (args[i] == "--qps") {
      if (!ParseDouble(args[i + 1], &config.qps) || config.qps <= 0) {
        return Usage();
      }
    } else if (args[i] == "--duration-s") {
      if (!ParseDouble(args[i + 1], &config.duration_s) ||
          config.duration_s <= 0) {
        return Usage();
      }
    } else if (args[i] == "--connections") {
      if (!ParseUint64(args[i + 1], &value) || value == 0 || value > 1024) {
        return Usage();
      }
      config.connections = static_cast<int>(value);
    } else if (args[i] == "--keywords") {
      if (!ParseUint64(args[i + 1], &value) || value == 0) {
        return Usage();
      }
      config.keywords = value;
    } else if (args[i] == "--solver") {
      if (!ParseSolverKind(args[i + 1], &config.solver)) {
        return Usage();
      }
    } else if (args[i] == "--cost") {
      if (args[i + 1] == "maxsum") {
        config.cost = CostType::kMaxSum;
      } else if (args[i + 1] == "dia") {
        config.cost = CostType::kDia;
      } else {
        return Usage();
      }
    } else if (args[i] == "--deadline-ms") {
      if (!ParseDouble(args[i + 1], &config.deadline_ms)) {
        return Usage();
      }
    } else if (args[i] == "--deadline-jitter-ms") {
      if (!ParseDouble(args[i + 1], &config.deadline_jitter_ms)) {
        return Usage();
      }
    } else if (args[i] == "--seed") {
      if (!ParseUint64(args[i + 1], &config.seed)) {
        return Usage();
      }
    } else if (args[i] == "--mutate-fraction") {
      if (!ParseDouble(args[i + 1], &config.mutate_fraction) ||
          config.mutate_fraction < 0.0 || config.mutate_fraction > 1.0) {
        return Usage();
      }
    } else if (args[i] == "--zipf-theta") {
      if (!ParseDouble(args[i + 1], &config.zipf_theta) ||
          config.zipf_theta < 0.0) {
        return Usage();
      }
    } else if (args[i] == "--hotspot-fraction") {
      if (!ParseDouble(args[i + 1], &config.hotspot_fraction) ||
          config.hotspot_fraction < 0.0 || config.hotspot_fraction > 1.0) {
        return Usage();
      }
    } else if (args[i] == "--hotspot-radius") {
      if (!ParseDouble(args[i + 1], &config.hotspot_radius) ||
          config.hotspot_radius <= 0.0 || config.hotspot_radius > 1.0) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  return RunLoad(config);
}

}  // namespace
}  // namespace coskq

int main(int argc, char** argv) { return coskq::Main(argc, argv); }
