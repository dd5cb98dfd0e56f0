// E4 — "Scalability test", out-of-core edition (DESIGN.md §14).
//
// The paper grows the GN dataset to {2M, 4M, 6M, 8M, 10M} objects by adding
// objects at the location of a random existing object with the keyword
// document of another random object, then measures all algorithms at
// |q.ψ| = 10. This harness applies the same construction (sizes multiplied
// by COSKQ_BENCH_SCALE; COSKQ_BENCH_SIZES overrides the size list) and then
// measures what actually changes at paper scale: how the frozen index
// behaves when it no longer fits warm memory.
//
// Per size the harness builds and snapshots the index twice — once per
// frozen body layout (bfs and level-grouped) — and replays the same solver
// batch through three load modes:
//
//   warm    LoadSnapshot with MAP_POPULATE: every page resident before the
//           first query. The layouts must tie here (within the gate).
//   cold    page cache dropped (posix_fadvise DONTNEED), cold mmap
//           (no MAP_POPULATE, MADV_RANDOM, checksum verified by streamed
//           reads), so every first touch is a major fault. The layout A/B
//           here is deliberately honest: dense |q.ψ|=10 batches end with
//           the resident set ≈ the whole body (the term arena dominates,
//           see DESIGN.md §14), so expect a tie — a level-grouped win
//           only appears in scattered/trimmed access patterns.
//   budget  cold plus a resident-set budget of body/4, enforced by mincore
//           sampling + MADV_DONTNEED trims (FrozenStore::MaybeEnforceBudget)
//           — the bounded-memory configuration a paper-scale server runs.
//
// Every round records the batch wall in RoundSamples (bench_compare.py
// gates on the median twin), and cold rounds record the getrusage
// major/minor page-fault deltas. All modes and layouts must return
// bit-identical solver results — any divergence aborts.
//
// Solver running-time/ratio trajectories (the paper's E4 figure proper)
// live in bench_maxsum_vary_qkw / bench_dia_vary_qkw / bench_datasets at
// the main dataset sizes; this harness owns the memory axis. Paper-scale
// dataset *files* are generated in bounded memory by
// `coskq_cli generate --augment-to` (StreamAugmentedToFile); here the grown
// dataset is materialized because the solvers need it resident anyway.
//
// Writes BENCH_scalability.json for tools/bench_compare.py. Cell identity
// includes the object count (dataset=GN-<objects>), so runs at different
// scales are "new, no baseline" rather than false regressions.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/bench_config.h"
#include "benchlib/harness.h"
#include "benchlib/json_writer.h"
#include "benchlib/table.h"
#include "data/augment.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "index/residency.h"
#include "index/snapshot.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace coskq {
namespace {

constexpr size_t kQueryKeywords = 10;
constexpr size_t kTimingRounds = 3;

std::vector<size_t> PaperSizes() {
  std::vector<size_t> sizes = {2000000, 4000000, 6000000, 8000000, 10000000};
  const char* env = std::getenv("COSKQ_BENCH_SIZES");
  if (env == nullptr) {
    return sizes;
  }
  std::vector<size_t> parsed;
  std::string token;
  for (const char* p = env;; ++p) {
    if (*p != '\0' && *p != ',') {
      token.push_back(*p);
      continue;
    }
    uint64_t value = 0;
    if (!token.empty() && ParseUint64(token, &value) && value > 0) {
      parsed.push_back(static_cast<size_t>(value));
    }
    token.clear();
    if (*p == '\0') {
      break;
    }
  }
  return parsed.empty() ? sizes : parsed;
}

BatchOptions SequentialOptions(const std::string& solver) {
  BatchOptions options;
  options.solver_name = solver;
  options.num_threads = 1;
  options.use_query_masks = true;
  return options;
}

bool SameResults(const BatchOutcome& a, const BatchOutcome& b) {
  if (a.results.size() != b.results.size()) {
    return false;
  }
  for (size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].feasible != b.results[i].feasible ||
        a.results[i].set != b.results[i].set ||
        a.results[i].cost != b.results[i].cost) {
      return false;
    }
  }
  return true;
}

uint64_t MedianU64(std::vector<uint64_t> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One frozen layout built over the grown dataset and saved to /tmp.
struct PreparedLayout {
  FrozenLayout layout = FrozenLayout::kBfs;
  std::string path;
  double build_freeze_ms = 0.0;
  double save_ms = 0.0;
  uint64_t snapshot_bytes = 0;
  uint64_t body_bytes = 0;
};

PreparedLayout PrepareSnapshot(const Dataset& dataset, FrozenLayout layout,
                               const std::string& tag) {
  PreparedLayout p;
  p.layout = layout;
  p.path = "/tmp/coskq_bench_scal_" + tag + "_" + FrozenLayoutName(layout) +
           ".cqix";
  WallTimer timer;
  IrTree::Options options;
  options.frozen_layout = layout;
  IrTree tree(&dataset, options);
  p.build_freeze_ms = timer.ElapsedMillis();
  timer.Restart();
  if (!SaveSnapshot(&tree, p.path).ok()) {
    std::fprintf(stderr, "FATAL: SaveSnapshot(%s) failed\n", p.path.c_str());
    std::exit(1);
  }
  p.save_ms = timer.ElapsedMillis();
  auto info = ReadSnapshotInfo(p.path);
  if (!info.ok()) {
    std::fprintf(stderr, "FATAL: ReadSnapshotInfo(%s): %s\n", p.path.c_str(),
                 info.status().ToString().c_str());
    std::exit(1);
  }
  p.snapshot_bytes = info->file_bytes;
  p.body_bytes = info->body_bytes;
  return p;
}

/// Per-round measurements of one (layout, load mode, solver) cell.
struct ModeCell {
  RoundSamples wall;  // solver-batch wall per round
  RoundSamples load;  // cold modes: LoadSnapshot wall per round
  std::vector<uint64_t> major_faults;  // cold modes: per-round batch deltas
  std::vector<uint64_t> minor_faults;
  uint64_t memory_budget_bytes = 0;
  uint64_t budget_trims = 0;
  uint64_t body_resident_bytes = 0;
  bool identical = true;
};

/// Warm mode: one populated mapping, repeats calibrated so each timed round
/// runs at least ~250 ms of solves (small scales finish a batch in
/// microseconds, where timer noise swamps a layout effect).
ModeCell MeasureWarm(const Dataset& dataset, const std::string& path,
                     const std::string& solver,
                     const std::vector<CoskqQuery>& queries,
                     const BatchOutcome* reference,
                     BatchOutcome* outcome_out) {
  ModeCell cell;
  auto loaded = LoadSnapshot(&dataset, path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "FATAL: warm LoadSnapshot(%s): %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  BatchEngine engine(CoskqContext{&dataset, loaded->get()},
                     SequentialOptions(solver));
  BatchOutcome warm_up = engine.Run(queries);
  if (reference != nullptr) {
    cell.identical = SameResults(warm_up, *reference);
  }
  const size_t repeats = static_cast<size_t>(std::min(
      1000.0,
      std::max(1.0, std::ceil(250.0 / std::max(0.01,
                                               warm_up.stats.wall_ms)))));
  for (size_t round = 0; round < kTimingRounds; ++round) {
    double total = 0.0;
    for (size_t r = 0; r < repeats; ++r) {
      total += engine.Run(queries).stats.wall_ms;
    }
    cell.wall.Add(total / static_cast<double>(repeats));
  }
  if (outcome_out != nullptr) {
    *outcome_out = std::move(warm_up);
  }
  return cell;
}

/// Cold / budget mode: each round drops the snapshot's page cache, loads a
/// fresh cold mapping, and times exactly one batch — repeats would re-run
/// on pages the first pass already faulted in, measuring warm behavior.
ModeCell MeasureCold(const Dataset& dataset, const std::string& path,
                     const std::string& solver,
                     const std::vector<CoskqQuery>& queries,
                     uint64_t memory_budget_bytes,
                     const BatchOutcome* reference) {
  ModeCell cell;
  cell.memory_budget_bytes = memory_budget_bytes;
  SnapshotLoadOptions load_options;
  load_options.cold = true;
  load_options.drop_page_cache = true;
  load_options.memory_budget_bytes = memory_budget_bytes;
  for (size_t round = 0; round < kTimingRounds; ++round) {
    (void)internal_index::DropFileCache(path);
    WallTimer timer;
    auto loaded = LoadSnapshot(&dataset, path, load_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "FATAL: cold LoadSnapshot(%s): %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    cell.load.Add(timer.ElapsedMillis());
    BatchEngine engine(CoskqContext{&dataset, loaded->get()},
                       SequentialOptions(solver));
    const internal_index::FaultCounters before =
        internal_index::ProcessFaultCounters();
    BatchOutcome outcome = engine.Run(queries);
    const internal_index::FaultCounters after =
        internal_index::ProcessFaultCounters();
    cell.wall.Add(outcome.stats.wall_ms);
    cell.major_faults.push_back(after.major - before.major);
    cell.minor_faults.push_back(after.minor - before.minor);
    if (reference != nullptr && !SameResults(outcome, *reference)) {
      cell.identical = false;
    }
    const IndexMemoryStats mem = (*loaded)->MemoryStats();
    cell.budget_trims = mem.budget_trims;
    cell.body_resident_bytes = mem.body_resident_bytes;
  }
  return cell;
}

void EmitModeCell(JsonWriter* json, const std::string& op,
                  const std::string& solver, const std::string& dataset,
                  size_t objects, const ModeCell& cell, bool cold_mode) {
  json->BeginObject();
  json->Key("op").Value(op);
  json->Key("solver").Value(solver);
  json->Key("dataset").Value(dataset);
  json->Key("threads").Value(1);
  json->Key("objects").Value(objects);
  json->Key("batch_wall_ms").Value(cell.wall.best());
  json->Key("batch_wall_median_ms").Value(cell.wall.median());
  if (cold_mode) {
    json->Key("load_ms").Value(cell.load.best());
    json->Key("load_median_ms").Value(cell.load.median());
    json->Key("major_faults").Value(MedianU64(cell.major_faults));
    json->Key("minor_faults").Value(MedianU64(cell.minor_faults));
    json->Key("body_resident_bytes").Value(cell.body_resident_bytes);
  }
  if (cell.memory_budget_bytes > 0) {
    json->Key("memory_budget_bytes").Value(cell.memory_budget_bytes);
    json->Key("budget_trims").Value(cell.budget_trims);
  }
  json->Key("identical").Value(cell.identical);
  json->EndObject();
}

void Run() {
  const BenchConfig config = BenchConfig::FromEnv();
  const std::vector<size_t> sizes = PaperSizes();
  std::printf("== E4: out-of-core scalability on GN-augmented datasets ==\n");
  std::printf("config: %s, |q.psi|=%zu\n", config.ToString().c_str(),
              kQueryKeywords);
  std::printf("paper sizes x scale=%g:", config.scale);
  for (size_t s : sizes) {
    std::printf(" %s", FormatWithCommas(static_cast<size_t>(
                           static_cast<double>(s) * config.scale))
                           .c_str());
  }
  std::printf("\n\n");

  // Base GN-like dataset, grown per step. The workload's built tree is
  // not used — every measured index comes from a snapshot load.
  BenchWorkload base = MakeGnWorkload(config);
  base.index.reset();

  JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value("bench_scalability/out_of_core");
  json.Key("scale").Value(config.scale);
  json.Key("queries").Value(config.queries);
  json.Key("query_keywords").Value(kQueryKeywords);
  json.Key("seed").Value(config.seed);
  json.Key("timing_rounds").Value(kTimingRounds);
  json.Key("cold_method")
      .Value("posix_fadvise(DONTNEED) + cold mmap before each round");
  json.Key("cells").BeginArray();

  TablePrinter prepare_table(
      {"|O|", "Layout", "Build+freeze", "Save", "Snapshot bytes"});
  TablePrinter summary_table({"|O|", "Solver", "Warm lg/bfs", "Cold bfs med",
                              "Cold lg med", "Cold speedup", "Majflt bfs",
                              "Majflt lg", "Budget trims lg"});

  // Augmentation never shrinks, so two requested sizes at or below the
  // base dataset clamp to the same effective |O|; skip the duplicates or
  // the JSON would carry two cells with identical identity.
  size_t prev_objects = 0;
  for (size_t paper_size : sizes) {
    const size_t target = static_cast<size_t>(
        static_cast<double>(paper_size) * config.scale);
    Dataset derived = base.dataset.Clone();
    Rng rng(config.seed + paper_size);
    AugmentToSize(&derived, target, &rng);

    BenchWorkload workload;
    workload.dataset = std::move(derived);
    const size_t objects = workload.dataset.NumObjects();
    if (objects == prev_objects) {
      std::printf("-- GN-%zu: duplicate of previous size (base %s), skipped --\n",
                  objects, FormatWithCommas(objects).c_str());
      continue;
    }
    prev_objects = objects;
    workload.name = "GN-" + std::to_string(objects);
    const std::string dataset_id = workload.name;
    const std::vector<CoskqQuery> queries =
        MakeQueries(workload, kQueryKeywords, config);
    std::printf("-- %s --\n", dataset_id.c_str());

    const PreparedLayout bfs = PrepareSnapshot(
        workload.dataset, FrozenLayout::kBfs, std::to_string(objects));
    const PreparedLayout lg =
        PrepareSnapshot(workload.dataset, FrozenLayout::kLevelGrouped,
                        std::to_string(objects));
    for (const PreparedLayout* p : {&bfs, &lg}) {
      prepare_table.AddRow({FormatWithCommas(objects),
                            FrozenLayoutName(p->layout),
                            FormatMillis(p->build_freeze_ms),
                            FormatMillis(p->save_ms),
                            FormatWithCommas(p->snapshot_bytes)});
      json.BeginObject();
      json.Key("op").Value(std::string("prepare-") +
                           FrozenLayoutName(p->layout));
      json.Key("dataset").Value(dataset_id);
      json.Key("objects").Value(objects);
      json.Key("build_freeze_ms").Value(p->build_freeze_ms);
      json.Key("save_ms").Value(p->save_ms);
      json.Key("snapshot_bytes").Value(p->snapshot_bytes);
      json.Key("body_bytes").Value(p->body_bytes);
      json.EndObject();
    }

    // Budget: a quarter of the body must stay under a floor that keeps the
    // enforcement meaningful at tiny CI scales.
    const uint64_t budget_bytes =
        std::max<uint64_t>(lg.body_bytes / 4, 256 * 1024);

    for (const char* solver : {"maxsum-appro", "dia-appro"}) {
      BatchOutcome reference;
      const ModeCell warm_bfs = MeasureWarm(
          workload.dataset, bfs.path, solver, queries, nullptr, &reference);
      const ModeCell warm_lg = MeasureWarm(workload.dataset, lg.path, solver,
                                           queries, &reference, nullptr);
      const ModeCell cold_bfs = MeasureCold(workload.dataset, bfs.path,
                                            solver, queries, 0, &reference);
      const ModeCell cold_lg = MeasureCold(workload.dataset, lg.path, solver,
                                           queries, 0, &reference);
      const ModeCell budget_bfs =
          MeasureCold(workload.dataset, bfs.path, solver, queries,
                      budget_bytes, &reference);
      const ModeCell budget_lg =
          MeasureCold(workload.dataset, lg.path, solver, queries,
                      budget_bytes, &reference);

      const struct {
        const char* op;
        const ModeCell* cell;
        bool cold;
      } cells[] = {
          {"warm-bfs", &warm_bfs, false},
          {"warm-level-grouped", &warm_lg, false},
          {"cold-bfs", &cold_bfs, true},
          {"cold-level-grouped", &cold_lg, true},
          {"budget-bfs", &budget_bfs, true},
          {"budget-level-grouped", &budget_lg, true},
      };
      for (const auto& c : cells) {
        EmitModeCell(&json, c.op, solver, dataset_id, objects, *c.cell,
                     c.cold);
        if (!c.cell->identical) {
          std::fprintf(stderr,
                       "FATAL: %s (%s on %s) diverged from warm-bfs\n", c.op,
                       solver, dataset_id.c_str());
          std::exit(1);
        }
      }

      const double warm_ratio = warm_bfs.wall.median() > 0.0
                                    ? warm_lg.wall.median() /
                                          warm_bfs.wall.median()
                                    : 0.0;
      const double cold_speedup = cold_lg.wall.median() > 0.0
                                      ? cold_bfs.wall.median() /
                                            cold_lg.wall.median()
                                      : 0.0;
      summary_table.AddRow(
          {FormatWithCommas(objects), solver, FormatDouble(warm_ratio, 3),
           FormatMillis(cold_bfs.wall.median()),
           FormatMillis(cold_lg.wall.median()),
           FormatDouble(cold_speedup, 2) + "x",
           FormatWithCommas(MedianU64(cold_bfs.major_faults)),
           FormatWithCommas(MedianU64(cold_lg.major_faults)),
           FormatWithCommas(budget_lg.budget_trims)});
      json.BeginObject();
      json.Key("op").Value("summary");
      json.Key("solver").Value(solver);
      json.Key("dataset").Value(dataset_id);
      json.Key("objects").Value(objects);
      json.Key("cold_median_speedup").Value(cold_speedup);
      json.Key("warm_lg_over_bfs").Value(warm_ratio);
      json.Key("cold_major_faults_bfs")
          .Value(MedianU64(cold_bfs.major_faults));
      json.Key("cold_major_faults_lg").Value(MedianU64(cold_lg.major_faults));
      json.EndObject();
    }
    std::remove(bfs.path.c_str());
    std::remove(lg.path.c_str());
  }
  json.EndArray();
  json.EndObject();

  std::printf("\n(a) index preparation per layout\n");
  prepare_table.Print();
  std::printf("\n(b) solver batches: warm parity, cold layout effect\n");
  summary_table.Print();

  const std::string path = "BENCH_scalability.json";
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
