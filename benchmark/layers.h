#ifndef COSKQ_BENCHMARK_LAYERS_H_
#define COSKQ_BENCHMARK_LAYERS_H_

#include <stddef.h>

#include <string>
#include <vector>

#include "core/solver.h"
#include "metrics.h"
#include "serving.h"
#include "workloads.h"

namespace coskq::bench {

class Tracer;

/// What the traced run replays through each layer's public calls.
struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  /// The dataset and index the references were solved on.
  SingleDeployment* reference = nullptr;
  const std::vector<PoolQuery>* pool = nullptr;
  const std::vector<CoskqResult>* answers = nullptr;
  const Stream* stream = nullptr;
  /// Stream slots the open-loop phases send (the cache replay length).
  size_t stream_slots = 0;
  /// Work directory for a temporary cluster build.
  std::string workdir;
  /// The served cluster of a routed workload; nullptr otherwise (the
  /// cluster replay then builds and starts its own).
  ClusterDeployment* cluster = nullptr;
  /// Offline BuildShardedCluster time of the served cluster (routed only).
  double cluster_build_s = 0.0;
};

/// Index, solver, engine, cache, codec and cluster replays, one span per
/// call. Runs before the wire phases, while the servers are idle.
void MeasureLayers(const LayerInputs& in, Tracer* tracer, MetricSet* out);

/// Index writes: inserts and removes, nearest-neighbour sets over the
/// pending delta, and a synchronous refreeze. Runs last, after the servers
/// stopped, because it changes the reference index.
void MeasureIndexWrites(const LayerInputs& in, Tracer* tracer,
                        MetricSet* out);

}  // namespace coskq::bench

#endif  // COSKQ_BENCHMARK_LAYERS_H_
