#include "engine/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "index/irtree.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace coskq {

double BatchStats::QueriesPerSecond() const {
  if (executed == 0 || wall_ms <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(executed) / (wall_ms / 1e3);
}

std::string BatchStats::ToString() const {
  std::string s = "threads=" + std::to_string(threads) +
                  " executed=" + std::to_string(executed) +
                  " wall=" + FormatMillis(wall_ms) +
                  " qps=" + FormatDouble(QueriesPerSecond(), 1) +
                  " latency{avg=" + FormatMillis(solve_ms.mean()) +
                  " p50=" + FormatMillis(p50_ms) +
                  " p95=" + FormatMillis(p95_ms) +
                  " p99=" + FormatMillis(p99_ms) +
                  " max=" + FormatMillis(solve_ms.max()) + "}";
  if (cancelled > 0) {
    s += " cancelled=" + std::to_string(cancelled);
  }
  if (infeasible > 0) {
    s += " infeasible=" + std::to_string(infeasible);
  }
  if (truncated > 0) {
    s += " truncated=" + std::to_string(truncated);
  }
  if (dist_cache_hits + dist_cache_misses > 0) {
    const double total =
        static_cast<double>(dist_cache_hits + dist_cache_misses);
    s += " cache{hits=" + std::to_string(dist_cache_hits) +
         " misses=" + std::to_string(dist_cache_misses) + " hit_rate=" +
         FormatDouble(static_cast<double>(dist_cache_hits) / total, 3) +
         " reallocs=" + std::to_string(scratch_reallocs) + "}";
  }
  if (ratio.count() > 0) {
    s += " ratio{avg=" + FormatDouble(ratio.mean(), 4) +
         " max=" + FormatDouble(ratio.max(), 4) +
         " optimal=" + std::to_string(optimal_count) + "/" +
         std::to_string(ratio.count()) + "}";
  }
  return s;
}

BatchEngine::BatchEngine(const CoskqContext& context,
                         const BatchOptions& options)
    : context_(context), options_(options) {
  COSKQ_CHECK(context.dataset != nullptr);
  COSKQ_CHECK(context.index != nullptr);
}

int BatchEngine::ResolvedThreads() const {
  if (options_.num_threads > 0) {
    return options_.num_threads;
  }
  return HardwareThreads();
}

namespace {

// Run-entry validation of caller-supplied options. Everything here used to
// be undefined behavior (negative thread counts cast through size_t, NaN
// deadlines never firing); with the options now arriving over the wire from
// untrusted clients they must be clean errors instead.
Status ValidateBatchOptions(const BatchOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0, got " +
        std::to_string(options.num_threads));
  }
  if (options.num_threads > kMaxBatchThreads) {
    return Status::InvalidArgument(
        "num_threads " + std::to_string(options.num_threads) +
        " exceeds the sanity cap " + std::to_string(kMaxBatchThreads));
  }
  if (std::isnan(options.deadline_ms) || options.deadline_ms < 0.0) {
    return Status::InvalidArgument("deadline_ms must be >= 0 and not NaN");
  }
  return Status::OK();
}

}  // namespace

BatchOutcome BatchEngine::Run(
    const std::vector<CoskqQuery>& queries,
    const std::vector<double>* reference_costs) const {
  BatchOutcome outcome;
  const size_t n = queries.size();
  outcome.results.resize(n);
  outcome.executed.assign(n, 0);

  outcome.status = ValidateBatchOptions(options_);
  if (!outcome.status.ok()) {
    return outcome;
  }
  outcome.stats.threads = ResolvedThreads();

  SolverOptions solver_options;
  solver_options.deadline_ms = options_.deadline_ms;
  solver_options.use_query_masks = options_.use_query_masks;
  // Validate the solver name before spinning up workers so an unknown name
  // is a clean error, not a per-worker failure.
  if (MakeSolver(options_.solver_name, context_, solver_options) == nullptr) {
    outcome.status = Status::InvalidArgument("unknown solver '" +
                                             options_.solver_name + "'");
    return outcome;
  }

  WallTimer wall;
  // Shared cursor: workers claim the next un-started query; results land in
  // their input slot, so output order never depends on scheduling.
  std::atomic<size_t> next{0};
  std::atomic<bool> cancel{false};
  // Lowest input index that triggered cancellation (n = none); kept as an
  // index rather than a Status because Status is not atomically assignable.
  std::atomic<size_t> first_error{n};

  const auto worker = [&]() {
    const std::unique_ptr<CoskqSolver> solver =
        MakeSolver(options_.solver_name, context_, solver_options);
    COSKQ_CHECK(solver != nullptr);
    while (true) {
      if (cancel.load(std::memory_order_acquire)) {
        return;
      }
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      {
        // One pinned index view per query: every sub-query the solver runs
        // observes the same frozen body + delta, even across a concurrent
        // background refreeze swap.
        IrTree::ReadGuard guard(context_.index);
        outcome.results[i] = solver->Solve(queries[i]);
      }
      outcome.executed[i] = 1;
      if (options_.cancel_on_infeasible && !outcome.results[i].feasible) {
        // Keep the smallest offending index for a deterministic error
        // message under concurrency.
        size_t expected = first_error.load(std::memory_order_relaxed);
        while (i < expected && !first_error.compare_exchange_weak(
                                   expected, i, std::memory_order_relaxed)) {
        }
        cancel.store(true, std::memory_order_release);
        return;
      }
    }
  };

  const int threads =
      static_cast<int>(std::min<size_t>(n, outcome.stats.threads));
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  outcome.stats.wall_ms = wall.ElapsedMillis();

  if (first_error.load() < n) {
    outcome.status = Status::InvalidArgument(
        "batch cancelled: query " + std::to_string(first_error.load()) +
        " is infeasible (some keyword matches no object)");
  }

  // Aggregate in input order after the join: deterministic given the
  // per-query results.
  std::vector<double> latencies;
  latencies.reserve(n);
  std::vector<double> ratios;
  for (size_t i = 0; i < n; ++i) {
    if (outcome.executed[i] == 0) {
      ++outcome.stats.cancelled;
      continue;
    }
    const CoskqResult& r = outcome.results[i];
    ++outcome.stats.executed;
    outcome.stats.solve_ms.Add(r.stats.elapsed_ms);
    latencies.push_back(r.stats.elapsed_ms);
    outcome.stats.candidates += r.stats.candidates;
    outcome.stats.pairs_examined += r.stats.pairs_examined;
    outcome.stats.sets_evaluated += r.stats.sets_evaluated;
    outcome.stats.dist_cache_hits += r.stats.dist_cache_hits;
    outcome.stats.dist_cache_misses += r.stats.dist_cache_misses;
    outcome.stats.scratch_reallocs += r.stats.scratch_reallocs;
    if (r.stats.truncated) {
      ++outcome.stats.truncated;
    }
    if (!r.feasible) {
      ++outcome.stats.infeasible;
      continue;
    }
    if (reference_costs != nullptr && i < reference_costs->size()) {
      const double ref = (*reference_costs)[i];
      if (std::isfinite(ref) && ref > 0.0) {
        const double ratio = r.cost / ref;
        outcome.stats.ratio.Add(ratio);
        ratios.push_back(ratio);
        if (ratio <= 1.0 + 1e-9) {
          ++outcome.stats.optimal_count;
        }
      }
    }
  }
  outcome.stats.p50_ms = Percentile(latencies, 50.0);
  outcome.stats.p95_ms = Percentile(latencies, 95.0);
  outcome.stats.p99_ms = Percentile(std::move(latencies), 99.0);
  outcome.stats.ratio_p95 = Percentile(std::move(ratios), 95.0);
  return outcome;
}

}  // namespace coskq
