// coskq_servebench — the repository benchmark (README.md in this directory).
//
// One process runs one workload: it generates the workload's dataset and
// request stream from --seed, brings the servers up in-process on
// ephemeral ports (timing the set-up), solves every pool query directly
// with BatchEngine as the reference, then drives the servers over loopback
// TCP from one generator thread: a discarded warm-up, the nominal open-loop
// phase, and a closed-loop saturation phase. Every reply is checked against
// the reference before any metric is printed.
//
//   coskq_servebench --workload W [--seed S] [--seconds N] [--trace 0|1]
//                    [--smoke] [--corrupt-reference] [--out-dir D]
//
// --seconds and --trace are part of the interface BENCHMARK.json's command
// is called with: every caller passes --seconds (its run_seconds) and
// --trace 0 or 1.
//
// Prints "workload metric value unit" lines, then one JSON line with the
// gated metrics (--trace 0: end-to-end; --trace 1: per-layer). Exits
// nonzero, printing no metrics, when any reply is wrong or the generator
// fell behind its schedule.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/partitioner.h"
#include "engine/batch_engine.h"
#include "layers.h"
#include "loadgen.h"
#include "metrics.h"
#include "serving.h"
#include "trace.h"
#include "util/timer.h"
#include "workloads.h"

namespace coskq::bench {
namespace {

/// Generator connections: one per core of the 4-core reference machine.
constexpr int kConnections = 4;
/// An untraced run sets up kSetupsBefore times before the wire phases (the
/// last one serves), then again after them: at least kMinSetupsAfter times,
/// and more while those took less than kSetupAfterBudgetS. setup_s is the
/// median of all. Spreading the set-ups over the run keeps a slow spell of
/// the shared machine, which lasts seconds, from spoiling most of them.
constexpr int kSetupsBefore = 2;
constexpr int kMinSetupsAfter = 3;
constexpr int kMaxSetupsAfter = 12;
constexpr double kSetupAfterBudgetS = 3.0;
/// Outstanding requests per connection in the saturation phase: enough to
/// keep the server busy instead of timing thread wake-ups.
constexpr size_t kSaturationDepth = 8;
/// Latency percentiles and throughput are medians over this many equal
/// slices of their phase, so a stall of the shared machine that spoils one
/// slice moves the reported number little.
constexpr size_t kWindows = 5;
/// A run whose generator sent its median request later than this after its
/// slot could not keep its schedule: it measured the generator, not the
/// server, and is refused. The p99 lag is only reported. On a shared 4-core
/// VM it exceeded 5 ms in whole runs, when stalls of the machine held up
/// the server as well and delayed more than 1% of sends; the latency is
/// charged from the schedule either way.
constexpr double kMaxGenLagP50Ms = 1.0;
constexpr int kReferenceThreads = 4;
constexpr double kReferenceDeadlineFactor = 10.0;
constexpr uint32_t kShards = 4;
/// Closed-loop requests per second the mixed stream reserves per unit of
/// nominal rate (writes must not wrap around, so it is pre-generated).
constexpr double kSaturationHeadroom = 30.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt_reference = false;
  std::string out_dir = "build/benchmark";
};

/// Phase lengths in seconds. The untraced run splits --seconds into
/// warm-up, nominal and saturation; the traced run adds a traced nominal
/// phase after the untraced one.
struct Phases {
  double warmup = 0.0;
  double nominal = 0.0;
  double saturation = 0.0;
  double traced = 0.0;
};

Phases PhasesFor(const Options& o) {
  if (o.smoke) {
    return Phases{1.0, 2.0, 2.0, o.trace ? 2.0 : 0.0};
  }
  const double s = o.seconds;
  return o.trace ? Phases{0.1 * s, 0.35 * s, 0.2 * s, 0.35 * s}
                 : Phases{0.1 * s, 0.7 * s, 0.2 * s, 0.0};
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: coskq_servebench --workload W [--seed S] "
               "[--seconds N] [--trace 0|1] [--smoke] [--corrupt-reference] "
               "[--out-dir D]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        Usage("--trace takes 0 or 1");
      }
      o.trace = v == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (FindWorkload(o.workload) == nullptr) {
    Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!(o.seconds >= 1.0 && o.seconds <= 600.0)) {
    Usage("--seconds must be in [1, 600]");
  }
  return o;
}

/// Removes the run's work directory on every exit path.
struct WorkDir {
  explicit WorkDir(std::string p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  std::string path;
};

/// Direct BatchEngine solves of the pool. The deadline is a multiple of the
/// served one, so every query the server completes completes here too; a
/// reference that still hits it only bounds the answer (see CheckAnswer).
std::vector<CoskqResult> SolveReferences(const CoskqContext& context,
                                         const std::vector<PoolQuery>& pool,
                                         double deadline_ms) {
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < pool.size(); ++i) {
    groups[pool[i].solver_name].push_back(i);
  }
  std::vector<CoskqResult> out(pool.size());
  for (const auto& [name, members] : groups) {
    BatchOptions options;
    options.solver_name = name;
    options.num_threads = kReferenceThreads;
    options.deadline_ms = deadline_ms;
    std::vector<CoskqQuery> queries;
    for (size_t i : members) {
      queries.push_back(pool[i].query);
    }
    BatchOutcome outcome = BatchEngine(context, options).Run(queries);
    if (!outcome.status.ok()) {
      throw BenchError("reference solve: " + outcome.status.ToString());
    }
    for (size_t j = 0; j < members.size(); ++j) {
      out[members[j]] = std::move(outcome.results[j]);
    }
  }
  return out;
}

/// Flips one bit of one reference answer: the first one the stream sends
/// whose solve is far inside the deadline, so its reply is never truncated
/// and must match bit for bit.
void CorruptOneReference(const std::vector<size_t>& order, double deadline_ms,
                         std::vector<CoskqResult>* answers) {
  for (size_t i : order) {
    CoskqResult& r = (*answers)[i];
    if (r.feasible && r.stats.elapsed_ms < deadline_ms / 10.0) {
      uint64_t bits = 0;
      std::memcpy(&bits, &r.cost, sizeof(bits));
      bits ^= 1;
      std::memcpy(&r.cost, &bits, sizeof(bits));
      return;
    }
  }
}

/// Verdicts over every reply of the run.
struct Gate {
  size_t attempted = 0;
  size_t failed = 0;  // OVERLOADED, ERROR and transport failures
  size_t shed = 0;
  size_t wrong = 0;
  std::vector<std::string> errors;
  std::set<uint32_t> inserted;

  void Wrong(const std::string& why) {
    ++wrong;
    if (errors.size() < 8) {
      errors.push_back(why);
    }
  }
};

/// Checks one record. Returns the decoded QUERY result through `result`
/// (nullptr-safe) when the reply was a RESULT.
void CheckRecord(const OpRecord& r, const StreamSlot& slot,
                 const std::vector<PoolQuery>& pool, const CoskqResult* want,
                 const Dataset& dataset, size_t corpus, Gate* gate,
                 QueryResult* result) {
  ++gate->attempted;
  if (r.state != OpRecord::State::kReplied) {
    ++gate->failed;
    return;
  }
  if (r.reply_verb == Verb::kOverloaded || r.reply_verb == Verb::kError) {
    ++gate->failed;
    gate->shed += r.reply_verb == Verb::kOverloaded ? 1 : 0;
    return;
  }
  if (slot.query >= 0) {
    QueryResult got;
    if (r.reply_verb != Verb::kResult || !DecodeQueryResult(r.reply, &got)) {
      gate->Wrong("QUERY answered with a malformed reply");
      return;
    }
    const std::string why =
        CheckAnswer(got, pool[slot.query], want, dataset);
    if (!why.empty()) {
      gate->Wrong("pool query " + std::to_string(slot.query) + ": " + why);
    }
    if (result != nullptr) {
      *result = std::move(got);
    }
    return;
  }
  MutateReply ack;
  if (r.reply_verb != Verb::kMutateReply || !DecodeMutateReply(r.reply, &ack)) {
    gate->Wrong("MUTATE answered with a malformed reply");
    return;
  }
  if (slot.mutation.op == MutateRequest::Op::kInsert) {
    if (ack.object_id < corpus || !gate->inserted.insert(ack.object_id).second) {
      gate->Wrong("insert acked with a reused object id");
    }
  } else if (ack.object_id != slot.mutation.object_id) {
    gate->Wrong("remove acked a different object id");
  }
}

struct RunContext {
  const WorkloadSpec* spec = nullptr;
  const std::vector<PoolQuery>* pool = nullptr;
  const std::vector<CoskqResult>* answers = nullptr;  // null: live writes
  const Stream* stream = nullptr;
  const Dataset* dataset = nullptr;
  size_t corpus = 0;
};

/// Latency and SLO tallies of one phase's QUERYs.
struct PhaseStats {
  std::vector<double> latency_ms;  // RESULT replies, from scheduled send
  std::vector<double> due_ms;      // their slots in the schedule
  std::vector<double> success_ms;  // reply times of every success
  std::vector<double> rtt_us;      // send to reply
  std::vector<double> server_wait_ms;  // rtt minus the reported solve time
  std::vector<double> lag_ms;
  std::vector<double> mutate_ms;
  size_t queries = 0;
  size_t within_limit = 0;
};

PhaseStats CheckPhase(const PhaseResult& phase, const RunContext& rc,
                      Gate* gate) {
  PhaseStats s;
  for (const OpRecord& r : phase.records) {
    const StreamSlot& slot = rc.stream->slots[r.op];
    const CoskqResult* want =
        rc.answers != nullptr && slot.query >= 0 ? &(*rc.answers)[slot.query]
                                                 : nullptr;
    const size_t failed_before = gate->failed;
    QueryResult got;
    got.outcome = QueryOutcome::kInfeasible;
    CheckRecord(r, slot, *rc.pool, want, *rc.dataset, rc.corpus, gate, &got);
    s.lag_ms.push_back(r.lag_ms());
    const bool ok = gate->failed == failed_before;
    if (ok) {
      s.success_ms.push_back(r.replied_ms);
    }
    if (slot.query < 0) {
      if (ok) {
        s.mutate_ms.push_back(r.latency_ms());
      }
      continue;
    }
    ++s.queries;
    if (!ok) {
      continue;
    }
    s.latency_ms.push_back(r.latency_ms());
    s.due_ms.push_back(r.due_ms);
    s.rtt_us.push_back(r.rtt_ms() * 1e3);
    // A cache hit echoes the solve time of the answer it replays, so a
    // reply faster than its reported solve was not solved now: left out.
    if (r.rtt_ms() >= got.solve_ms) {
      s.server_wait_ms.push_back(r.rtt_ms() - got.solve_ms);
    }
    if (r.latency_ms() <= rc.spec->limit_ms &&
        got.outcome != QueryOutcome::kDeadlineTruncated) {
      ++s.within_limit;
    }
  }
  return s;
}

/// Median over kWindows equal slices of [0, span_ms) of percentile `p` of
/// the values whose time falls in each slice.
double WindowedPercentile(const std::vector<double>& at_ms,
                          const std::vector<double>& values, double span_ms,
                          double p) {
  std::vector<std::vector<double>> slices(kWindows);
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t k = static_cast<size_t>(at_ms[i] / span_ms * kWindows);
    slices[std::min(k, kWindows - 1)].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : slices) {
    if (!slice.empty()) {
      per_slice.push_back(Percentile(slice, p));
    }
  }
  return Median(per_slice);
}

/// Median over kWindows equal slices of [0, span_ms) of the completions
/// per second in each slice.
double WindowedRate(const std::vector<double>& at_ms, double span_ms) {
  std::vector<double> counts(kWindows, 0.0);
  for (double t : at_ms) {
    if (t < span_ms) {
      counts[static_cast<size_t>(t / span_ms * kWindows)] += 1.0;
    }
  }
  return Median(counts) * kWindows / (span_ms / 1e3);
}

void PrintMetrics(const std::string& workload, const MetricSet& set) {
  for (const Metric& m : set.all()) {
    std::printf("%s %s %.10g %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
}

std::string MetricsJson(const MetricSet& set) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < set.all().size(); ++i) {
    const Metric& m = set.all()[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    out += buf;
  }
  return out + "}";
}

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(text.c_str(), f) < 0 || std::fclose(f) != 0) {
    throw BenchError("cannot write " + path);
  }
}

void Log(const WorkloadSpec& spec, const char* what, double seconds) {
  std::fprintf(stderr, "[%s] %s %.2fs\n", spec.name, what, seconds);
}

int Run(const Options& opt) {
  const WorkloadSpec& spec = *FindWorkload(opt.workload);
  const Phases phases = PhasesFor(opt);
  std::filesystem::create_directories(opt.out_dir);
  const WorkDir work(opt.out_dir + "/work/" + spec.name + "-" +
                        std::to_string(opt.seed) + "-" +
                        std::to_string(getpid()));
  Tracer tracer;
  Tracer* const trace = opt.trace ? &tracer : nullptr;

  // Inputs: the dataset file the servers load (generation is not set-up).
  WallTimer step;
  const std::string data_path = work.path + "/dataset.txt";
  {
    const Dataset generated = MakeDataset(spec);
    const Status saved = generated.SaveToFile(data_path);
    if (!saved.ok()) {
      throw BenchError("save dataset: " + saved.ToString());
    }
  }
  Log(spec, "generate", step.ElapsedSeconds());

  // Set-up. The routed workload's reference tree and offline cluster build
  // are made once and are not part of it.
  std::unique_ptr<SingleDeployment> reference;
  std::unique_ptr<ClusterDeployment> cluster;
  ClusterManifest manifest;
  SetupTimes reference_times;
  double cluster_build_s = 0.0;
  const std::string cluster_dir = work.path + "/cluster";
  if (spec.routed) {
    reference = LoadAndBuild(data_path, &reference_times, trace);
    std::filesystem::create_directories(cluster_dir);
    BuildClusterOptions build;
    build.num_shards = kShards;
    WallTimer timer;
    StatusOr<ClusterManifest> built =
        BuildShardedCluster(*reference->dataset, cluster_dir, build);
    cluster_build_s = timer.ElapsedSeconds();
    if (!built.ok()) {
      throw BenchError("cluster build: " + built.status().ToString());
    }
    manifest = std::move(*built);
  }
  // Replaces the serving deployment with a freshly set-up one and records
  // how long that took.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    SetupTimes times;
    if (spec.routed) {
      cluster.reset();
      cluster = StartCluster(cluster_dir, manifest, spec.workers, &times);
    } else {
      reference.reset();
      reference = LoadAndBuild(data_path, &times, trace);
      StartServer(spec, reference.get(), &times);
      reference_times = times;
    }
    setup_s.push_back(times.total());
  };
  step.Restart();
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupsBefore); ++rep) {
    set_up();
  }
  Log(spec, "setup", step.ElapsedSeconds());
  const uint16_t port =
      spec.routed ? cluster->router->port() : reference->server->port();

  // Pool, stream and reference answers.
  Rng rng(opt.seed + 1);
  const Dataset& dataset = *reference->dataset;
  const size_t corpus = dataset.NumObjects();
  const std::vector<PoolQuery> pool = MakePool(spec, *reference->tree, &rng);
  const size_t open_slots = static_cast<size_t>(
      spec.rate * (phases.warmup + phases.nominal + phases.traced)) + 1;
  const size_t sat_slots =
      spec.mutate_fraction > 0.0
          ? static_cast<size_t>(kSaturationHeadroom * spec.rate *
                                phases.saturation)
          : 0;
  const Stream stream =
      MakeStream(spec, dataset, pool, open_slots + sat_slots, &rng);
  step.Restart();
  std::vector<CoskqResult> answers =
      SolveReferences(reference->context(), pool,
                      kReferenceDeadlineFactor * spec.deadline_ms);
  Log(spec, "reference", step.ElapsedSeconds());
  // rss_mb is the peak under load, not the transients of set-up.
  ResetPeakRss();
  const bool live_writes = spec.mutate_fraction > 0.0;
  if (opt.corrupt_reference && !live_writes) {
    std::vector<size_t> order;
    for (const StreamSlot& slot : stream.slots) {
      if (slot.query >= 0) {
        order.push_back(static_cast<size_t>(slot.query));
      }
    }
    CorruptOneReference(order, spec.deadline_ms, &answers);
  }

  MetricSet gated;
  MetricSet info;
  LayerInputs layer_inputs;
  layer_inputs.spec = &spec;
  layer_inputs.reference = reference.get();
  layer_inputs.pool = &pool;
  layer_inputs.answers = &answers;
  layer_inputs.stream = &stream;
  layer_inputs.stream_slots = open_slots;
  layer_inputs.workdir = work.path;
  layer_inputs.cluster = cluster.get();
  layer_inputs.cluster_build_s = cluster_build_s;
  if (opt.trace) {
    step.Restart();
    gated.Add("data.load_s", reference_times.load_s, "s");
    gated.Add("index.build_s", reference_times.build_s, "s");
    MeasureLayers(layer_inputs, trace, &gated);
    Log(spec, "layers", step.ElapsedSeconds());
  }

  // Wire phases.
  LoadGenerator gen;
  const Status connected = gen.Connect(port, kConnections);
  if (!connected.ok()) {
    throw BenchError("generator: " + connected.ToString());
  }
  RunContext rc;
  rc.spec = &spec;
  rc.pool = &pool;
  rc.answers = live_writes ? nullptr : &answers;
  rc.stream = &stream;
  rc.dataset = &dataset;
  rc.corpus = corpus;
  Gate gate;
  step.Restart();
  const PhaseResult warm =
      gen.OpenLoop(stream.ops, 0, spec.rate, phases.warmup, nullptr);
  size_t pos = warm.records.size();
  const PhaseResult nominal =
      gen.OpenLoop(stream.ops, pos, spec.rate, phases.nominal, nullptr);
  pos += nominal.records.size();
  // Peak since the reset: the servers' memory under the nominal load, and
  // the harness's, whose size the schedule fixes.
  const double serving_rss_mb = PeakRssMb();
  PhaseResult traced;
  if (opt.trace) {
    traced = gen.OpenLoop(stream.ops, pos, spec.rate, phases.traced, trace);
    pos += traced.records.size();
  }
  const PhaseResult saturation = gen.ClosedLoop(
      stream.ops, pos, phases.saturation,
      live_writes ? stream.ops.size() - pos : static_cast<size_t>(-1),
      kSaturationDepth);
  Log(spec, "wire", step.ElapsedSeconds());

  CheckPhase(warm, rc, &gate);
  const PhaseStats nom = CheckPhase(nominal, rc, &gate);
  const PhaseStats tr = CheckPhase(traced, rc, &gate);
  const PhaseStats sat = CheckPhase(saturation, rc, &gate);

  // Writes: once every reply is in and the last refreeze finished, the
  // whole pool must read exactly what a direct solve over the mutated
  // index returns, so a stale cached answer fails the run.
  if (live_writes) {
    step.Restart();
    reference->tree->WaitForRefreeze();
    const std::vector<WireOp> pool_ops = PoolOps(pool);
    const PhaseResult recheck =
        gen.ClosedLoop(pool_ops, 0, 1e9, pool_ops.size(), kSaturationDepth);
    std::vector<CoskqResult> fresh =
        SolveReferences(reference->context(), pool,
                        kReferenceDeadlineFactor * spec.deadline_ms);
    if (opt.corrupt_reference) {
      std::vector<size_t> order(pool.size());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
      }
      CorruptOneReference(order, spec.deadline_ms, &fresh);
    }
    for (const OpRecord& r : recheck.records) {
      StreamSlot slot;
      slot.query = static_cast<int64_t>(r.op);
      CheckRecord(r, slot, pool, &fresh[r.op], dataset, corpus, &gate,
                  nullptr);
    }
    Log(spec, "recheck", step.ElapsedSeconds());
  }

  if (gate.wrong > 0) {
    for (const std::string& e : gate.errors) {
      std::fprintf(stderr, "MISMATCH: %s\n", e.c_str());
    }
    throw BenchError(std::to_string(gate.wrong) +
                     " replies differ from the reference");
  }
  const double lag_p50 = Percentile(nom.lag_ms, 50.0);
  const double lag_p99 = Percentile(nom.lag_ms, 99.0);
  if (lag_p50 > kMaxGenLagP50Ms) {
    throw BenchError("generator lag p50 " + std::to_string(lag_p50) +
                     " ms exceeds " + std::to_string(kMaxGenLagP50Ms) +
                     " ms: the run measured the generator");
  }

  const double nominal_ms = phases.nominal * 1e3;
  const double sat_qps =
      WindowedRate(sat.success_ms, phases.saturation * 1e3);
  if (opt.trace) {
    const double untraced_p50 = Percentile(nom.latency_ms, 50.0);
    const double traced_p50 = Percentile(tr.latency_ms, 50.0);
    // Latency percentiles and throughput vary more between runs than the
    // bounds allow (README.md, "Dropped from the gates"), so they are
    // reported here rather than gated.
    gated.Add("server.p50_ms",
              WindowedPercentile(nom.due_ms, nom.latency_ms, nominal_ms, 50.0),
              "ms");
    gated.Add("server.p95_ms",
              WindowedPercentile(nom.due_ms, nom.latency_ms, nominal_ms, 95.0),
              "ms");
    gated.Add("server.p99_ms", Percentile(nom.latency_ms, 99.0), "ms");
    gated.Add("server.sat_qps", sat_qps, "1/s");
    gated.Add("server.rtt_us", Percentile(tr.rtt_us, 50.0), "us");
    gated.Add("server.overhead_us",
              Percentile(tr.server_wait_ms, 50.0) * 1e3, "us");
    gated.Add("server.wait_p99_ms", Percentile(tr.server_wait_ms, 99.0),
              "ms");
    gated.Add("server.shed_frac",
              Ratio(static_cast<double>(gate.shed),
                    static_cast<double>(gate.attempted)),
              "fraction");
    gated.Add("server.gen_lag_p99_ms", lag_p99, "ms");
    gated.Add("server.trace_overhead", Ratio(traced_p50, untraced_p50),
              "ratio");
    std::printf("%s tracing overhead: traced p50 %.4f ms vs untraced p50 "
                "%.4f ms (%+.1f%%)\n",
                spec.name, traced_p50, untraced_p50,
                100.0 * (Ratio(traced_p50, untraced_p50) - 1.0));
    reference->server.reset();
    cluster.reset();
    MeasureIndexWrites(layer_inputs, trace, &gated);

    std::string layers = "{\"workload\": \"" + std::string(spec.name) +
                         "\", \"seed\": " + std::to_string(opt.seed) +
                         ", \"metrics\": " + MetricsJson(gated) +
                         ", \"self_time_us\": {";
    bool first = true;
    for (const auto& [name, t] : tracer.SelfTimes()) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"count\": %llu, \"total_us\": %.3f, "
                    "\"self_us\": %.3f}",
                    first ? "" : ", ", name.c_str(),
                    static_cast<unsigned long long>(t.count), t.total_us,
                    t.self_us);
      layers += buf;
      first = false;
    }
    WriteFile(opt.out_dir + "/layers_" + spec.name + ".json",
              layers + "}}\n");
    if (!tracer.WriteChromeTrace(opt.out_dir + "/trace_" + spec.name +
                                 ".json")) {
      throw BenchError("cannot write the trace file");
    }
  } else {
    step.Restart();
    for (int rep = 0;
         rep < kMaxSetupsAfter && (rep < kMinSetupsAfter ||
                                   step.ElapsedSeconds() < kSetupAfterBudgetS);
         ++rep) {
      set_up();
    }
    Log(spec, "setup again", step.ElapsedSeconds());
    gated.Add("setup_s", Median(setup_s), "s");
    gated.Add("slo_frac",
              Ratio(static_cast<double>(nom.within_limit),
                    static_cast<double>(nom.queries)),
              "fraction");
    info.Add("fail_frac",
             Ratio(static_cast<double>(gate.failed),
                   static_cast<double>(gate.attempted)),
             "fraction");
    info.Add("nominal_queries", static_cast<double>(nom.queries), "count");
    info.Add("gen_lag_p50_ms", lag_p50, "ms");
    info.Add("gen_lag_p99_ms", lag_p99, "ms");
    info.Add("p50_ms",
             WindowedPercentile(nom.due_ms, nom.latency_ms, nominal_ms, 50.0),
             "ms");
    info.Add("p95_ms",
             WindowedPercentile(nom.due_ms, nom.latency_ms, nominal_ms, 95.0),
             "ms");
    info.Add("p99_ms", Percentile(nom.latency_ms, 99.0), "ms");
    info.Add("sat_qps", sat_qps, "1/s");
    info.Add("setups", static_cast<double>(setup_s.size()), "count");
    if (live_writes) {
      info.Add("mutate_p50_ms", Percentile(nom.mutate_ms, 50.0), "ms");
      info.Add("mutate_p99_ms", Percentile(nom.mutate_ms, 99.0), "ms");
    }
    gated.Add("rss_mb", serving_rss_mb, "MiB");
  }

  PrintMetrics(spec.name, gated);
  PrintMetrics(spec.name, info);
  MetricSet all = gated;
  for (const Metric& m : info.all()) {
    all.Add(m.name, m.value, m.unit);
  }
  WriteFile(opt.out_dir + "/run_" + spec.name + "_" +
                std::to_string(opt.seed) + (opt.trace ? "_trace" : "") +
                ".json",
            "{\"workload\": \"" + std::string(spec.name) +
                "\", \"seed\": " + std::to_string(opt.seed) +
                ", \"metrics\": " + MetricsJson(all) + "}\n");
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              gate.attempted, gate.failed, MetricsJson(gated).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace coskq::bench

int main(int argc, char** argv) {
  using coskq::bench::Options;
  for (const char* var : {"COSKQ_KERNEL", "COSKQ_RESULT_CACHE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "error: %s is set; the benchmark measures the default "
                   "configuration only\n",
                   var);
      return 2;
    }
  }
  const Options options = coskq::bench::ParseArgs(argc, argv);
  try {
    return coskq::bench::Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FATAL: %s\n", e.what());
    return 1;
  }
}
