// H1/H2 — Hot-path A/B benchmark: query-scoped keyword bitmasks + pooled
// SearchScratch versus the pre-mask baseline.
//
// H1 times the two index micro-operations every solver is built on — N(q)
// retrieval (NnSet) and keyword-filtered range retrieval (RangeRelevant) —
// in exactly the per-query pattern production code uses: BeginQuery, the
// masked traversals, FinishQuery, with the scratch pooled across the batch.
// The baseline column runs the identical calls through the unscratched
// overloads. Both paths return bit-identical results (enforced here and in
// the differential test suite); only the clock may differ.
//
// H2 replays a solver batch through the BatchEngine with masks on and off,
// single-threaded and at COSKQ_BENCH_THREADS workers, reporting wall clock,
// throughput, tail latencies, and the distance-memo hit rate.
//
// Writes BENCH_hotpath.json for tools/bench_compare.py; see EXPERIMENTS.md.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/bench_config.h"
#include "benchlib/harness.h"
#include "benchlib/json_writer.h"
#include "benchlib/table.h"
#include "engine/batch_engine.h"
#include "geo/circle.h"
#include "index/search_scratch.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace coskq {
namespace {

// Keyword counts for the micro ops: the middle and the top of the paper's
// {3..15} sweep (mask wins grow with |q.psi| since every per-node TermSet
// scan it replaces costs O(|q.psi| log) and is re-paid per visit).
constexpr size_t kMicroKeywords[] = {6, 12};
// Disk radius for the range micro op, in unit-square units.
constexpr double kRangeRadius = 0.05;

struct MicroCell {
  std::string op;
  std::string dataset;
  size_t query_keywords = 0;
  double baseline_ms_per_op = 0.0;  // best round
  double masked_ms_per_op = 0.0;    // best round
  double baseline_median_ms_per_op = 0.0;
  double masked_median_ms_per_op = 0.0;
  double speedup = 0.0;         // best / best
  double median_speedup = 0.0;  // median / median — what bench_compare gates

  // Folds per-round totals (RoundSamples) into the per-op report fields.
  void Finish(const RoundSamples& base, const RoundSamples& mask,
              double ops) {
    baseline_ms_per_op = base.best() / ops;
    masked_ms_per_op = mask.best() / ops;
    baseline_median_ms_per_op = base.median() / ops;
    masked_median_ms_per_op = mask.median() / ops;
    speedup = mask.best() > 0.0 ? base.best() / mask.best() : 0.0;
    median_speedup =
        mask.median() > 0.0 ? base.median() / mask.median() : 0.0;
  }
};

// Repeats the batch until the op count is large enough for a stable clock.
size_t RepsFor(size_t num_queries) {
  const size_t target = 400;
  return num_queries >= target ? 1 : (target + num_queries - 1) / num_queries;
}

// Timing rounds per side; baseline and masked rounds interleave and each
// side keeps its fastest round, so a scheduler hiccup on a shared runner
// penalizes one round, not one side.
constexpr size_t kTimingRounds = 3;

MicroCell RunNnSetMicro(const BenchWorkload& w,
                        const std::vector<CoskqQuery>& queries) {
  const size_t reps = RepsFor(queries.size());
  MicroCell cell;
  cell.op = "nn_set";
  cell.dataset = w.name;
  cell.query_keywords = queries.front().keywords.size();

  SearchScratch scratch;
  size_t checksum_base = 0;
  size_t checksum_mask = 0;
  // Warm-up pass (first-touch allocations, page faults) for both paths.
  for (const CoskqQuery& q : queries) {
    TermSet missing;
    checksum_base += w.index->NnSet(q.location, q.keywords, &missing).size();
    scratch.BeginQuery(q.location, q.keywords);
    checksum_mask +=
        w.index->NnSet(q.location, q.keywords, &missing, &scratch).size();
    scratch.FinishQuery();
  }

  WallTimer timer;
  RoundSamples base_rounds;
  RoundSamples mask_rounds;
  for (size_t round = 0; round < kTimingRounds; ++round) {
    timer.Restart();
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const CoskqQuery& q : queries) {
        TermSet missing;
        checksum_base +=
            w.index->NnSet(q.location, q.keywords, &missing).size();
      }
    }
    base_rounds.Add(timer.ElapsedMillis());

    timer.Restart();
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const CoskqQuery& q : queries) {
        TermSet missing;
        scratch.BeginQuery(q.location, q.keywords);
        checksum_mask +=
            w.index->NnSet(q.location, q.keywords, &missing, &scratch).size();
        scratch.FinishQuery();
      }
    }
    mask_rounds.Add(timer.ElapsedMillis());
  }

  if (checksum_mask != checksum_base) {
    std::fprintf(stderr, "FATAL: masked NnSet diverged from baseline\n");
    std::exit(1);
  }
  cell.Finish(base_rounds, mask_rounds,
              static_cast<double>(reps * queries.size()));
  return cell;
}

MicroCell RunRangeMicro(const BenchWorkload& w,
                        const std::vector<CoskqQuery>& queries) {
  const size_t reps = RepsFor(queries.size());
  MicroCell cell;
  cell.op = "range_relevant";
  cell.dataset = w.name;
  cell.query_keywords = queries.front().keywords.size();

  SearchScratch scratch;
  std::vector<ObjectId> out;
  size_t checksum_base = 0;
  size_t checksum_mask = 0;
  for (const CoskqQuery& q : queries) {
    out.clear();
    w.index->RangeRelevant(Circle(q.location, kRangeRadius), q.keywords,
                           &out);
    checksum_base += out.size();
    scratch.BeginQuery(q.location, q.keywords);
    out.clear();
    w.index->RangeRelevant(Circle(q.location, kRangeRadius), q.keywords,
                           &out, &scratch);
    checksum_mask += out.size();
    scratch.FinishQuery();
  }

  WallTimer timer;
  RoundSamples base_rounds;
  RoundSamples mask_rounds;
  for (size_t round = 0; round < kTimingRounds; ++round) {
    timer.Restart();
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const CoskqQuery& q : queries) {
        out.clear();
        w.index->RangeRelevant(Circle(q.location, kRangeRadius), q.keywords,
                               &out);
        checksum_base += out.size();
      }
    }
    base_rounds.Add(timer.ElapsedMillis());

    timer.Restart();
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const CoskqQuery& q : queries) {
        scratch.BeginQuery(q.location, q.keywords);
        out.clear();
        w.index->RangeRelevant(Circle(q.location, kRangeRadius), q.keywords,
                               &out, &scratch);
        checksum_mask += out.size();
        scratch.FinishQuery();
      }
    }
    mask_rounds.Add(timer.ElapsedMillis());
  }

  if (checksum_mask != checksum_base) {
    std::fprintf(stderr, "FATAL: masked RangeRelevant diverged\n");
    std::exit(1);
  }
  cell.Finish(base_rounds, mask_rounds,
              static_cast<double>(reps * queries.size()));
  return cell;
}

// The solvers never issue RangeRelevant against a cold scratch: every solve
// runs ComputeNnSet first, which warms the node-mask and node-distance
// caches for the epoch, then retrieves range candidates. This cell times
// RangeRelevant in exactly that composition — NnSet untimed inside the same
// epoch, range retrieval timed — symmetrically for both paths.
MicroCell RunRangeWarmMicro(const BenchWorkload& w,
                            const std::vector<CoskqQuery>& queries) {
  const size_t reps = RepsFor(queries.size());
  MicroCell cell;
  cell.op = "range_relevant_warm";
  cell.dataset = w.name;
  cell.query_keywords = queries.front().keywords.size();

  SearchScratch scratch;
  std::vector<ObjectId> out;
  size_t checksum_base = 0;
  size_t checksum_mask = 0;
  WallTimer timer;
  RoundSamples base_rounds;
  RoundSamples mask_rounds;
  for (size_t round = 0; round <= kTimingRounds; ++round) {
    // Round 0 is the untimed warm-up pass.
    double b = 0.0;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const CoskqQuery& q : queries) {
        TermSet missing;
        w.index->NnSet(q.location, q.keywords, &missing);
        timer.Restart();
        out.clear();
        w.index->RangeRelevant(Circle(q.location, kRangeRadius), q.keywords,
                               &out);
        b += timer.ElapsedMillis();
        checksum_base += out.size();
      }
    }
    if (round > 0) {
      base_rounds.Add(b);
    }

    double m = 0.0;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const CoskqQuery& q : queries) {
        TermSet missing;
        scratch.BeginQuery(q.location, q.keywords);
        w.index->NnSet(q.location, q.keywords, &missing, &scratch);
        timer.Restart();
        out.clear();
        w.index->RangeRelevant(Circle(q.location, kRangeRadius), q.keywords,
                               &out, &scratch);
        m += timer.ElapsedMillis();
        checksum_mask += out.size();
        scratch.FinishQuery();
      }
    }
    if (round > 0) {
      mask_rounds.Add(m);
    }
  }

  if (checksum_mask != checksum_base) {
    std::fprintf(stderr, "FATAL: masked warm RangeRelevant diverged\n");
    std::exit(1);
  }
  cell.Finish(base_rounds, mask_rounds,
              static_cast<double>(reps * queries.size()));
  return cell;
}

struct SolverCell {
  std::string solver;
  int threads = 0;
  BatchStats baseline;  // wall_ms holds the best round
  BatchStats masked;    // wall_ms holds the best round
  double baseline_wall_median_ms = 0.0;
  double masked_wall_median_ms = 0.0;
  bool identical = false;
  double speedup = 0.0;         // best / best
  double median_speedup = 0.0;  // median / median — what bench_compare gates
};

SolverCell RunSolverAb(const BenchWorkload& w, const std::string& solver,
                       int threads, const std::vector<CoskqQuery>& queries) {
  SolverCell cell;
  cell.solver = solver;
  cell.threads = threads;

  BatchOptions options;
  options.solver_name = solver;
  options.num_threads = threads;
  options.use_query_masks = false;
  BatchEngine base_engine(w.context(), options);
  options.use_query_masks = true;
  BatchEngine masked_engine(w.context(), options);

  // One warm-up run per engine (thread pool, page cache, pooled buffers),
  // then interleaved best-of rounds, keeping each side's fastest batch.
  base_engine.Run(queries);
  masked_engine.Run(queries);
  BatchOutcome base = base_engine.Run(queries);
  BatchOutcome masked = masked_engine.Run(queries);
  RoundSamples base_rounds;
  RoundSamples mask_rounds;
  base_rounds.Add(base.stats.wall_ms);
  mask_rounds.Add(masked.stats.wall_ms);
  for (size_t round = 1; round < kTimingRounds; ++round) {
    BatchOutcome b = base_engine.Run(queries);
    base_rounds.Add(b.stats.wall_ms);
    if (b.stats.wall_ms < base.stats.wall_ms) {
      base = std::move(b);
    }
    BatchOutcome m = masked_engine.Run(queries);
    mask_rounds.Add(m.stats.wall_ms);
    if (m.stats.wall_ms < masked.stats.wall_ms) {
      masked = std::move(m);
    }
  }

  cell.baseline = base.stats;
  cell.masked = masked.stats;
  cell.baseline_wall_median_ms = base_rounds.median();
  cell.masked_wall_median_ms = mask_rounds.median();
  cell.median_speedup = mask_rounds.median() > 0.0
                            ? base_rounds.median() / mask_rounds.median()
                            : 0.0;
  cell.identical = base.results.size() == masked.results.size();
  for (size_t i = 0; cell.identical && i < base.results.size(); ++i) {
    cell.identical = base.results[i].feasible == masked.results[i].feasible &&
                     base.results[i].set == masked.results[i].set &&
                     base.results[i].cost == masked.results[i].cost;
  }
  cell.speedup = masked.stats.wall_ms > 0.0
                     ? base.stats.wall_ms / masked.stats.wall_ms
                     : 0.0;
  return cell;
}

void Run() {
  const BenchConfig config = BenchConfig::FromEnv();
  std::printf("== H1/H2: query-mask hot path, masked vs baseline ==\n");
  std::printf("config: %s\n\n", config.ToString().c_str());

  // Hotel-like is the mask's hardest setting (small vocabulary, short term
  // sets, cheap baseline merges); web-like is the keyword-heavy regime the
  // bitmask targets. H1 reports both; H2 runs the solver batches on the
  // hotel workload, matching the paper's primary tables.
  BenchWorkload hotel = MakeHotelWorkload(config);
  BenchWorkload web = MakeWebWorkload(config);
  BenchWorkload& w = hotel;

  JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value("bench_hotpath");
  json.Key("scale").Value(config.scale);
  json.Key("queries").Value(config.queries);
  json.Key("seed").Value(config.seed);

  std::printf("== H1: index micro-ops (single thread) ==\n");
  TablePrinter micro({"Dataset", "Op", "|q.psi|", "Baseline/op", "Masked/op",
                      "Speedup"});
  json.Key("micro").BeginArray();
  for (BenchWorkload* wp : {&hotel, &web}) {
    for (size_t kw : kMicroKeywords) {
      const std::vector<CoskqQuery> queries = MakeQueries(*wp, kw, config);
      for (const MicroCell& cell :
           {RunNnSetMicro(*wp, queries), RunRangeMicro(*wp, queries),
            RunRangeWarmMicro(*wp, queries)}) {
        micro.AddRow({cell.dataset, cell.op,
                      std::to_string(cell.query_keywords),
                      FormatMillis(cell.baseline_ms_per_op),
                      FormatMillis(cell.masked_ms_per_op),
                      FormatDouble(cell.speedup, 2) + "x"});
        json.BeginObject();
        json.Key("op").Value(cell.op);
        json.Key("dataset").Value(cell.dataset);
        json.Key("query_keywords").Value(cell.query_keywords);
        json.Key("baseline_ms_per_op").Value(cell.baseline_ms_per_op);
        json.Key("masked_ms_per_op").Value(cell.masked_ms_per_op);
        json.Key("baseline_median_ms_per_op")
            .Value(cell.baseline_median_ms_per_op);
        json.Key("masked_median_ms_per_op")
            .Value(cell.masked_median_ms_per_op);
        json.Key("speedup").Value(cell.speedup);
        json.Key("median_speedup").Value(cell.median_speedup);
        json.EndObject();
      }
    }
  }
  json.EndArray();
  micro.Print();

  std::printf("\n== H2: end-to-end solver batches, masks off vs on ==\n");
  const std::vector<CoskqQuery> queries = MakeQueries(w, 6, config);
  TablePrinter e2e({"Solver", "Threads", "Base wall", "Masked wall",
                    "Speedup", "Masked qps", "p95", "Hit rate",
                    "Identical"});
  json.Key("solvers").BeginArray();
  const int parallel_threads = config.threads > 0 ? config.threads : 8;
  for (const char* solver : {"maxsum-appro", "dia-appro", "maxsum-exact"}) {
    for (int threads : {1, parallel_threads}) {
      const SolverCell cell = RunSolverAb(w, solver, threads, queries);
      const uint64_t touches =
          cell.masked.dist_cache_hits + cell.masked.dist_cache_misses;
      const double hit_rate =
          touches > 0 ? static_cast<double>(cell.masked.dist_cache_hits) /
                            static_cast<double>(touches)
                      : 0.0;
      e2e.AddRow({cell.solver, std::to_string(cell.threads),
                  FormatMillis(cell.baseline.wall_ms),
                  FormatMillis(cell.masked.wall_ms),
                  FormatDouble(cell.speedup, 2) + "x",
                  FormatDouble(cell.masked.QueriesPerSecond(), 1),
                  FormatMillis(cell.masked.p95_ms),
                  FormatDouble(hit_rate, 3),
                  cell.identical ? "yes" : "NO"});
      json.BeginObject();
      json.Key("solver").Value(cell.solver);
      json.Key("dataset").Value(w.name);
      json.Key("threads").Value(cell.threads);
      json.Key("baseline_wall_ms").Value(cell.baseline.wall_ms);
      json.Key("masked_wall_ms").Value(cell.masked.wall_ms);
      json.Key("baseline_wall_median_ms").Value(cell.baseline_wall_median_ms);
      json.Key("masked_wall_median_ms").Value(cell.masked_wall_median_ms);
      json.Key("speedup").Value(cell.speedup);
      json.Key("median_speedup").Value(cell.median_speedup);
      json.Key("baseline_qps").Value(cell.baseline.QueriesPerSecond());
      json.Key("masked_qps").Value(cell.masked.QueriesPerSecond());
      json.Key("masked_p50_ms").Value(cell.masked.p50_ms);
      json.Key("masked_p95_ms").Value(cell.masked.p95_ms);
      json.Key("masked_p99_ms").Value(cell.masked.p99_ms);
      json.Key("dist_cache_hits").Value(cell.masked.dist_cache_hits);
      json.Key("dist_cache_misses").Value(cell.masked.dist_cache_misses);
      json.Key("dist_cache_hit_rate").Value(hit_rate);
      json.Key("scratch_reallocs").Value(cell.masked.scratch_reallocs);
      json.Key("identical").Value(cell.identical);
      json.EndObject();
      if (!cell.identical) {
        std::fprintf(stderr, "FATAL: masked batch diverged (%s @%d)\n",
                     solver, threads);
        std::exit(1);
      }
    }
  }
  json.EndArray();
  json.EndObject();
  e2e.Print();

  const std::string path = "BENCH_hotpath.json";
  const Status status = WriteTextFile(path, json.TakeString());
  if (status.ok()) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
}

}  // namespace
}  // namespace coskq

int main() {
  coskq::Run();
  return 0;
}
