#ifndef COSKQ_BENCHMARK_WORKLOADS_H_
#define COSKQ_BENCHMARK_WORKLOADS_H_

#include <stddef.h>
#include <stdint.h>

#include <string>
#include <vector>

#include "core/solver.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/irtree.h"
#include "loadgen.h"
#include "server/protocol.h"
#include "util/random.h"

namespace coskq::bench {

/// One traffic mix the benchmark drives. The numbers are frozen after
/// calibration (README.md, "Calibration"); a change that claims a gain must
/// not edit them.
struct WorkloadSpec {
  const char* name;
  /// GnLikeSpec scale of the generated dataset.
  double scale;
  /// Served by a 4-shard ClusterRouter instead of one CoskqServer.
  bool routed;
  /// Distinct queries in the pool.
  size_t pool_size;
  /// Skewed popularity over the pool with hotspot locations and
  /// Zipf-ranked keywords; otherwise the paper's QueryGenerator, each pool
  /// entry sent once per pass.
  bool zipf;
  /// QueryGenerator keyword band: the share of the most frequent terms left
  /// out (the band ends at the paper's 40%).
  double band_lo;
  /// |q.psi| of pool entry i is keyword_counts[i % size].
  std::vector<size_t> keyword_counts;
  /// Registry solver of pool entry i is solvers[i % size].
  std::vector<std::string> solvers;
  /// Per-request deadline carried on the wire.
  double deadline_ms;
  /// Solver workers per server (per shard when routed).
  int workers;
  /// Server result-cache budget; 0 = off.
  size_t cache_mb;
  /// Share of stream slots that are MUTATEs (half inserts, half removes).
  double mutate_fraction;
  size_t refreeze_threshold;
  /// Nominal open-loop rate, about half the measured saturation rate.
  double rate;
  /// Latency limit L of slo_frac.
  double limit_ms;
};

const std::vector<WorkloadSpec>& AllWorkloads();
/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The GN-like dataset of `spec` (the same for every run seed).
Dataset MakeDataset(const WorkloadSpec& spec);

/// One pool entry: the wire request and the same query in solver form.
struct PoolQuery {
  QueryRequest request;
  CoskqQuery query;
  std::string solver_name;
};

/// The query pool, drawn over the dataset `tree` indexes.
std::vector<PoolQuery> MakePool(const WorkloadSpec& spec, const IrTree& tree,
                                Rng* rng);

/// One slot of the request stream: a pool query or a MUTATE.
struct StreamSlot {
  /// Pool index, or -1 for a MUTATE.
  int64_t query = -1;
  MutateRequest mutation;
};

/// The request stream: `slots[i]` describes `ops[i]`. Long enough that no
/// phase wraps around, so every remove names a distinct live object.
struct Stream {
  std::vector<StreamSlot> slots;
  std::vector<WireOp> ops;
};

Stream MakeStream(const WorkloadSpec& spec, const Dataset& dataset,
                  const std::vector<PoolQuery>& pool, size_t length,
                  Rng* rng);

/// Empty when `got` answers `pq` correctly; otherwise why not. Against a
/// complete reference, a complete answer must equal it bit for bit and a
/// truncated one must be feasible and no cheaper. Without one (reads racing
/// writes, or a reference that hit its own deadline) the answer must be
/// feasible at its stated cost: its set covers q.psi and EvaluateCost of
/// that set is the reported cost, bit for bit.
std::string CheckAnswer(const QueryResult& got, const PoolQuery& pq,
                        const CoskqResult* want, const Dataset& dataset);

/// The pool as wire ops, each entry once (the quiesced re-check pass).
std::vector<WireOp> PoolOps(const std::vector<PoolQuery>& pool);

}  // namespace coskq::bench

#endif  // COSKQ_BENCHMARK_WORKLOADS_H_
