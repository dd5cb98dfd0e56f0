#ifndef COSKQ_BENCHMARK_SERVING_H_
#define COSKQ_BENCHMARK_SERVING_H_

#include <stdint.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/manifest.h"
#include "cluster/router.h"
#include "core/solver.h"
#include "data/dataset.h"
#include "index/irtree.h"
#include "server/server.h"

namespace coskq::bench {

class Tracer;
struct WorkloadSpec;

/// Any failure that must end the run with a nonzero exit and no metrics.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Wall time of each set-up step, in seconds.
struct SetupTimes {
  double load_s = 0.0;
  double build_s = 0.0;
  double start_s = 0.0;
  double total() const { return load_s + build_s + start_s; }
};

/// A dataset loaded from its file and the frozen IR-tree built over it;
/// with `server` set, a CoskqServer answering from them. Members are
/// destroyed in reverse order, so the server stops before its index goes.
struct SingleDeployment {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<IrTree> tree;
  std::unique_ptr<CoskqServer> server;

  CoskqContext context() const { return {dataset.get(), tree.get()}; }
};

/// Dataset::LoadFromFile, then IrTree build + Freeze().
std::unique_ptr<SingleDeployment> LoadAndBuild(const std::string& path,
                                               SetupTimes* times,
                                               Tracer* tracer);

/// Starts a CoskqServer over `d` with the workload's serving settings.
void StartServer(const WorkloadSpec& spec, SingleDeployment* d,
                 SetupTimes* times);

/// Shard servers loaded from a cluster directory (dataset files + frozen
/// snapshots) behind a ClusterRouter.
struct ClusterDeployment {
  ClusterManifest manifest;
  std::vector<std::unique_ptr<Dataset>> datasets;
  std::vector<std::unique_ptr<IrTree>> trees;
  std::vector<std::unique_ptr<CoskqServer>> servers;
  std::unique_ptr<ClusterRouter> router;
};

std::unique_ptr<ClusterDeployment> StartCluster(const std::string& dir,
                                                const ClusterManifest& manifest,
                                                int workers_per_shard,
                                                SetupTimes* times);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();
/// Restarts the VmHWM peak from the current resident set (best effort).
void ResetPeakRss();

}  // namespace coskq::bench

#endif  // COSKQ_BENCHMARK_SERVING_H_
