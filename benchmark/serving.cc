#include "serving.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "index/snapshot.h"
#include "trace.h"
#include "util/timer.h"
#include "workloads.h"

namespace coskq::bench {

namespace {

Dataset LoadDataset(const std::string& path) {
  StatusOr<Dataset> loaded = Dataset::LoadFromFile(path);
  if (!loaded.ok()) {
    throw BenchError("load " + path + ": " + loaded.status().ToString());
  }
  return std::move(*loaded);
}

}  // namespace

std::unique_ptr<SingleDeployment> LoadAndBuild(const std::string& path,
                                               SetupTimes* times,
                                               Tracer* tracer) {
  auto d = std::make_unique<SingleDeployment>();
  SpanTimer load(tracer, "data.load");
  d->dataset = std::make_unique<Dataset>(LoadDataset(path));
  times->load_s += load.Stop() / 1e6;
  SpanTimer build(tracer, "index.build");
  d->tree = std::make_unique<IrTree>(d->dataset.get());
  d->tree->Freeze();
  times->build_s += build.Stop() / 1e6;
  return d;
}

void StartServer(const WorkloadSpec& spec, SingleDeployment* d,
                 SetupTimes* times) {
  ServerOptions options;
  options.num_workers = spec.workers;
  options.result_cache_mb = spec.cache_mb;
  if (spec.mutate_fraction > 0.0) {
    options.enable_mutations = true;
    options.mutable_dataset = d->dataset.get();
    options.mutable_index = d->tree.get();
    options.refreeze_threshold = spec.refreeze_threshold;
  }
  WallTimer start;
  d->server = std::make_unique<CoskqServer>(d->context(), options);
  const Status started = d->server->Start();
  if (!started.ok()) {
    throw BenchError("server start: " + started.ToString());
  }
  times->start_s += start.ElapsedSeconds();
}

std::unique_ptr<ClusterDeployment> StartCluster(const std::string& dir,
                                                const ClusterManifest& manifest,
                                                int workers_per_shard,
                                                SetupTimes* times) {
  auto c = std::make_unique<ClusterDeployment>();
  c->manifest = manifest;
  RouterOptions router_options;
  router_options.client_options.connect_timeout_ms = 2000;
  router_options.client_options.io_timeout_ms = 30000;
  for (const ShardManifestEntry& shard : manifest.shards) {
    WallTimer load;
    c->datasets.push_back(std::make_unique<Dataset>(
        LoadDataset(dir + "/" + shard.dataset_file)));
    times->load_s += load.ElapsedSeconds();
    WallTimer build;
    StatusOr<std::unique_ptr<IrTree>> tree =
        LoadSnapshot(c->datasets.back().get(), dir + "/" + shard.snapshot_file);
    if (!tree.ok()) {
      throw BenchError("shard snapshot: " + tree.status().ToString());
    }
    c->trees.push_back(std::move(*tree));
    times->build_s += build.ElapsedSeconds();
    WallTimer start;
    ServerOptions options;
    options.num_workers = workers_per_shard;
    options.index_from_snapshot = true;
    c->servers.push_back(std::make_unique<CoskqServer>(
        CoskqContext{c->datasets.back().get(), c->trees.back().get()},
        options));
    const Status started = c->servers.back()->Start();
    if (!started.ok()) {
      throw BenchError("shard server start: " + started.ToString());
    }
    router_options.shards.push_back(
        ShardAddress{"127.0.0.1", c->servers.back()->port()});
    times->start_s += start.ElapsedSeconds();
  }
  WallTimer start;
  c->router = std::make_unique<ClusterRouter>(manifest, router_options);
  const Status started = c->router->Start();
  if (!started.ok()) {
    throw BenchError("router start: " + started.ToString());
  }
  times->start_s += start.ElapsedSeconds();
  return c;
}

namespace {

/// A "Vm...:" field of /proc/self/status, in MiB.
double StatusFieldMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      kb = std::strtod(line + len, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }

void ResetPeakRss() {
  // "5" resets the peak resident set size (proc(5), /proc/pid/clear_refs).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f != nullptr) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace coskq::bench
