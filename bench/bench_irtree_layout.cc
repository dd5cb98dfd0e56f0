// F2 — IR-tree cold start: STR rebuild versus snapshot load.
//
// Times index preparation three ways: STR rebuild from the dataset,
// SaveSnapshot, and LoadSnapshot (mmap). load_speedup = rebuild / load is
// the cold-start win a server gets from `serve --index-snapshot`.
//
// The pointer-vs-frozen solver cells (F1) retired with the pointer tree;
// frozen solver speed is measured by bench_hotpath, bench_simd and the
// repository benchmark (benchmark/).
//
// Writes BENCH_irtree_layout.json for tools/bench_compare.py.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/bench_config.h"
#include "benchlib/harness.h"
#include "benchlib/json_writer.h"
#include "benchlib/table.h"
#include "index/irtree.h"
#include "index/residency.h"
#include "index/snapshot.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace coskq {
namespace {

struct ColdStartCell {
  std::string dataset;
  double rebuild_ms = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double load_speedup = 0.0;
  uint64_t snapshot_bytes = 0;
};

ColdStartCell RunColdStart(const BenchWorkload& w) {
  ColdStartCell cell;
  cell.dataset = w.name;
  const std::string path = "/tmp/coskq_bench_layout_" + w.name + ".cqix";

  // Preparation is millisecond-scale, so take the min over several rounds.
  constexpr size_t kColdStartRounds = 7;
  WallTimer timer;
  for (size_t round = 0; round < kColdStartRounds; ++round) {
    timer.Restart();
    IrTree rebuilt(&w.dataset);
    const double b = timer.ElapsedMillis();
    cell.rebuild_ms = round == 0 ? b : std::min(cell.rebuild_ms, b);

    timer.Restart();
    if (!SaveSnapshot(&rebuilt, path).ok()) {
      std::fprintf(stderr, "FATAL: SaveSnapshot failed\n");
      std::exit(1);
    }
    const double s = timer.ElapsedMillis();
    cell.save_ms = round == 0 ? s : std::min(cell.save_ms, s);

    // The save just wrote the file through the page cache, so an immediate
    // load would time a cache hit, not a cold start. Ask the kernel to drop
    // the file's cached pages first (best effort; method recorded in the
    // JSON as cold_method).
    (void)internal_index::DropFileCache(path);

    timer.Restart();
    auto loaded = LoadSnapshot(&w.dataset, path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "FATAL: LoadSnapshot failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    const double l = timer.ElapsedMillis();
    cell.load_ms = round == 0 ? l : std::min(cell.load_ms, l);
    if ((*loaded)->NodeCount() != w.index->NodeCount()) {
      std::fprintf(stderr, "FATAL: snapshot-loaded tree shape diverged\n");
      std::exit(1);
    }
  }
  auto info = ReadSnapshotInfo(path);
  cell.snapshot_bytes = info.ok() ? info->file_bytes : 0;
  std::remove(path.c_str());
  cell.load_speedup =
      cell.load_ms > 0.0 ? cell.rebuild_ms / cell.load_ms : 0.0;
  return cell;
}

void Run() {
  const BenchConfig config = BenchConfig::FromEnv();
  std::printf("== F2: IR-tree cold start ==\n");
  std::printf("config: %s\n\n", config.ToString().c_str());

  BenchWorkload hotel = MakeHotelWorkload(config);
  BenchWorkload web = MakeWebWorkload(config);

  JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value("bench_irtree_layout");
  json.Key("scale").Value(config.scale);
  json.Key("queries").Value(config.queries);
  json.Key("seed").Value(config.seed);

  std::printf("== F2: cold start — STR rebuild vs snapshot load ==\n");
  TablePrinter cold({"Dataset", "Rebuild", "Save", "Load (mmap)",
                     "Load speedup", "Snapshot bytes"});
  // How the load rounds defeat the OS page cache left warm by the save.
  json.Key("cold_method").Value("posix_fadvise(DONTNEED) before each load");
  json.Key("cold_start").BeginArray();
  for (BenchWorkload* wp : {&hotel, &web}) {
    const ColdStartCell cell = RunColdStart(*wp);
    cold.AddRow({cell.dataset, FormatMillis(cell.rebuild_ms),
                 FormatMillis(cell.save_ms), FormatMillis(cell.load_ms),
                 FormatDouble(cell.load_speedup, 1) + "x",
                 FormatWithCommas(cell.snapshot_bytes)});
    json.BeginObject();
    json.Key("dataset").Value(cell.dataset);
    json.Key("rebuild_ms").Value(cell.rebuild_ms);
    json.Key("save_ms").Value(cell.save_ms);
    json.Key("load_ms").Value(cell.load_ms);
    json.Key("load_speedup").Value(cell.load_speedup);
    json.Key("snapshot_bytes").Value(cell.snapshot_bytes);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  cold.Print();

  const std::string path = "BENCH_irtree_layout.json";
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
