#!/usr/bin/env bash
# CI matrix for the coskq tree: {Release, ThreadSanitizer, ASan+UBSan} x the
# fast test tier (`ctest -L fast`). The Release job also runs the slow tier.
#
# The TSan job is the enforcement mechanism for three concurrency contracts:
# the BatchEngine contract that concurrent solves over one immutable
# CoskqContext are race-free (engine_batch_test re-run with
# COSKQ_TEST_THREADS=8 so every batch assertion doubles as an 8-worker race
# probe), the live-update contract that a background Refreeze() epoch
# swap is invisible to in-flight readers (index_refreeze_race_test run
# explicitly so the writer/refreezer/query-storm interleaving is always
# probed under TSan, not just in the plain fast tier), and the contract that
# the parallel set-up path builds exactly the sequential result
# (setup_identity_test, run explicitly the same way). It also re-runs
# cache_invalidation_test with COSKQ_TEST_THREADS=8: the result-cache
# storm races query/mutate lanes against background refreezes over the
# sharded cache's per-shard leaf mutexes.
#
# The fast tier includes the serving layer (server_codec_test and the
# server_loopback_test, which binds a real epoll server on localhost) and
# the cluster layer (cluster_partition_test and cluster_router_diff_test,
# which stands up a real 4-shard cluster behind a ClusterRouter and asserts
# routed answers bit-identical to the single-dataset run for every solver
# family), so both sanitizer jobs exercise the event loop, the wire codecs,
# the scatter-gather path, and the worker handoff on every build. The TSan
# job additionally re-runs cluster_router_diff_test explicitly — the router
# is thread-per-connection with per-connection shard clients, and that
# interleaving must stay probed even if test labels change. The release job
# adds a subprocess-level 3-shard smoke: `coskq_cli shard build` + three
# `serve` processes + `route`, soaked with coskq_load and drained with
# SIGTERM.
#
# The perf job is opt-in (not part of the default matrix): it builds
# Release, runs the repository benchmark's four workloads in smoke mode
# (benchmark/run.sh --smoke: every reply checked bitwise) plus one
# --corrupt-reference run that must fail, runs the A/B benchmarks (hot path, dataset suite, frozen IR-tree
# layout, out-of-core scalability) at the same scale the committed
# BENCH_*.json baselines were recorded at, and gates on
# tools/bench_compare.py: any directional metric more than 25% worse than
# its committed baseline fails the job. It also smoke-tests the
# bounded-memory contract: a budget-capped cold-mmap batch must finish
# under a hard `ulimit -v` cap and report the DESIGN.md §14 paging
# counters. Set
# COSKQ_PERF_WARN_ONLY=1 to report regressions without failing (the escape
# hatch for noisy shared runners). The job then builds an index snapshot
# once with `coskq_cli index build`, records cold-start (rebuild) vs
# warm-start (snapshot load) times, and reuses the snapshot for two
# 10-second coskq_load soaks against a live `coskq_cli serve
# --index-snapshot` instance: a read-only one (saturation + graceful
# SIGTERM drain must both hold) and a mixed read/write one
# (--enable-mutations + --mutate-fraction 0.05, with background refreezes
# folding the delta mid-soak). The read-only server soak and the cluster
# router soak both run with --result-cache-mb 64 under a --zipf-theta 1.0
# production-shaped stream, and each gates on the server-side result cache
# reporting a non-zero hit count through the v6 STATS tail.
#
# Usage: tools/ci.sh [job...]
#   jobs: release tsan asan perf  (default: release tsan asan)

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=("$@")
if [ ${#JOBS[@]} -eq 0 ]; then
  JOBS=(release tsan asan)
fi

NPROC=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

configure_and_build() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$NPROC"
}

run_fast_tests() {
  local dir=$1
  ctest --test-dir "$dir" --output-on-failure -L fast -j "$NPROC"
}

for job in "${JOBS[@]}"; do
  case "$job" in
    release)
      echo "== CI job: Release, full test suite =="
      configure_and_build build-ci-release -DCMAKE_BUILD_TYPE=Release \
          -DCOSKQ_SANITIZE=""
      ctest --test-dir build-ci-release --output-on-failure -j "$NPROC"
      # The SIMD kernel layer must be a pure optimization: with the scalar
      # reference table forced, every fast-tier answer (including the
      # frozen-vs-pointer differential suite) must still hold bit-exactly.
      echo "== release: fast tier re-run with COSKQ_KERNEL=scalar =="
      COSKQ_KERNEL=scalar ctest --test-dir build-ci-release \
          --output-on-failure -L fast -j "$NPROC"
      # The result cache must be a pure optimization too: with the cache
      # force-disabled through its environment kill switch, every fast-tier
      # answer (including cache_invalidation_test, whose freshness
      # assertions hold trivially without a cache) must still pass.
      echo "== release: fast tier re-run with COSKQ_RESULT_CACHE=off =="
      COSKQ_RESULT_CACHE=off ctest --test-dir build-ci-release \
          --output-on-failure -L fast -j "$NPROC"

      echo "== release: 3-shard cluster subprocess smoke =="
      # The real deployment shape, one binary per process: shard build,
      # three shard servers from the artifacts, a router over their port
      # files, a short saturating load, and a SIGTERM drain that must
      # report the cluster fan-out counters. (Bit-identity itself is
      # asserted by cluster_router_diff_test in the fast tier above.)
      CL_DIR=build-ci-release/cluster-smoke
      rm -rf "$CL_DIR" && mkdir -p "$CL_DIR"
      ./build-ci-release/tools/coskq_cli generate 3000 "$CL_DIR/data.txt" \
          --seed 13 > /dev/null
      ./build-ci-release/tools/coskq_cli shard build "$CL_DIR/data.txt" \
          "$CL_DIR/shards" --shards 3
      SHARD_PIDS=()
      for s in 0 1 2; do
        ./build-ci-release/tools/coskq_cli serve \
            "$CL_DIR/shards/shard_000$s.txt" --port 0 --workers 2 \
            --index-snapshot "$CL_DIR/shards/shard_000$s.cqix" \
            --port-file "$CL_DIR/port$s" > "$CL_DIR/shard$s.log" &
        SHARD_PIDS+=($!)
      done
      for s in 0 1 2; do
        for _ in $(seq 1 100); do
          [ -s "$CL_DIR/port$s" ] && break
          sleep 0.1
        done
        [ -s "$CL_DIR/port$s" ] || { echo "shard $s never bound"; exit 1; }
      done
      ./build-ci-release/tools/coskq_cli route "$CL_DIR/shards/cluster.cqmf" \
          --port 0 --port-file "$CL_DIR/router-port" \
          --shard "$(cat "$CL_DIR/port0")" \
          --shard "$(cat "$CL_DIR/port1")" \
          --shard "$(cat "$CL_DIR/port2")" > "$CL_DIR/router.log" &
      ROUTE_PID=$!
      for _ in $(seq 1 100); do
        [ -s "$CL_DIR/router-port" ] && break
        sleep 0.1
      done
      [ -s "$CL_DIR/router-port" ] || { echo "router never bound"; exit 1; }
      ./build-ci-release/tools/coskq_load 127.0.0.1 \
          "$(cat "$CL_DIR/router-port")" "$CL_DIR/data.txt" --qps 100 \
          --duration-s 3 --connections 2 --seed 17
      kill -TERM "$ROUTE_PID"
      wait "$ROUTE_PID"  # Non-zero (drain failure/crash) fails the job.
      for pid in "${SHARD_PIDS[@]}"; do
        kill -TERM "$pid"
        wait "$pid"
      done
      grep -q "cluster{" "$CL_DIR/router.log"
      grep -q "shard2{" "$CL_DIR/router.log"
      ;;
    tsan)
      echo "== CI job: ThreadSanitizer, fast tier + 8-thread batch =="
      configure_and_build build-ci-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCOSKQ_SANITIZE=thread -DCOSKQ_BUILD_BENCHMARKS=OFF \
          -DCOSKQ_BUILD_EXAMPLES=OFF
      run_fast_tests build-ci-tsan
      COSKQ_TEST_THREADS=8 TSAN_OPTIONS="halt_on_error=1" \
          ./build-ci-tsan/tests/engine_batch_test
      # Live updates: mutations + RefreezeAsync racing a saturating query
      # batch. This is the binary the delta/refreeze lock order was written
      # for; run it explicitly so a labels change can never drop it.
      TSAN_OPTIONS="halt_on_error=1" \
          ./build-ci-tsan/tests/index_refreeze_race_test
      # The set-up path: chunk-parallel dataset load and level-parallel STR
      # build over a 93k-object corpus, checked against recorded goldens and
      # a sequential reference parser. Run explicitly for the same reason.
      TSAN_OPTIONS="halt_on_error=1" \
          ./build-ci-tsan/tests/setup_identity_test
      # The cluster router: thread-per-connection scatter-gather over
      # per-connection shard clients, plus the bit-identity acceptance
      # sweep. Run explicitly so a labels change can never drop it.
      TSAN_OPTIONS="halt_on_error=1" \
          ./build-ci-tsan/tests/cluster_router_diff_test
      # The result cache storm: 8 lanes racing insert/probe/remove loops
      # over the sharded cache while background refreezes advance the
      # epoch underneath — the per-shard leaf mutexes and the stamp reads
      # on the event-loop thread are what TSan is probing here.
      COSKQ_TEST_THREADS=8 TSAN_OPTIONS="halt_on_error=1" \
          ./build-ci-tsan/tests/cache_invalidation_test
      ;;
    asan)
      echo "== CI job: AddressSanitizer+UBSan, fast tier =="
      configure_and_build build-ci-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCOSKQ_SANITIZE=address,undefined -DCOSKQ_BUILD_BENCHMARKS=OFF \
          -DCOSKQ_BUILD_EXAMPLES=OFF
      run_fast_tests build-ci-asan
      # The AVX2 kernels use unaligned 256-bit loads over SoA stripes whose
      # alignment the snapshot format only guarantees to 8 bytes; one forced
      # run under ASan+UBSan probes those loads for overreads wherever the
      # hardware allows (the kernels are function-level target("avx2"), so
      # the binary itself is baseline x86-64 and safe to build anywhere).
      if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
        echo "== asan: kernel sweep re-run with COSKQ_KERNEL=avx2 =="
        COSKQ_KERNEL=avx2 ./build-ci-asan/tests/index_kernels_test
        COSKQ_KERNEL=avx2 ./build-ci-asan/tests/index_frozen_diff_test
      else
        echo "== asan: no AVX2 on this host; skipping forced-kernel run =="
      fi
      ;;
    perf)
      echo "== CI job: perf, A/B benchmarks gated against committed baselines =="
      # Note: the perf build is plain Release with NO global -march flag.
      # The SIMD kernels carry function-level __attribute__((target))
      # annotations, so the same baseline-x86-64 binary contains scalar,
      # SSE2, and AVX2 paths and picks one at runtime — what ships is what
      # gets benchmarked.
      configure_and_build build-ci-perf -DCMAKE_BUILD_TYPE=Release \
          -DCOSKQ_SANITIZE=""
      mkdir -p build-ci-perf/perf

      # Prove the gates themselves work before trusting them with a
      # verdict: the 25% baseline diff below, and the repository
      # benchmark's pair rule that compares two commits.
      python3 tools/bench_compare.py --self-test
      python3 benchmark/compare.py --self-test

      # The regression gate: each benchmark runs at the exact config its
      # committed BENCH_*.json baseline was recorded at, and bench_compare
      # fails the job on any directional metric >25% worse. The escape hatch
      # for noisy shared runners is COSKQ_PERF_WARN_ONLY=1.
      #
      # Since the live-update layer landed, the read-path benches
      # (BENCH_hotpath, BENCH_irtree_layout, BENCH_simd) double as the
      # empty-delta tax gate: every frozen traversal now passes through the
      # delta-merge wrappers, and these baselines were recorded before that
      # layer existed, so a delta check that costs pure reads >25% fails
      # here.
      COMPARE_FLAGS=(--threshold 25)
      if [ "${COSKQ_PERF_WARN_ONLY:-0}" != "0" ]; then
        COMPARE_FLAGS+=(--warn-only)
      fi
      run_gated_bench() {
        local bench=$1 baseline=$2 queries=$3
        ( cd build-ci-perf/perf &&
          COSKQ_BENCH_SCALE="${COSKQ_BENCH_SCALE:-0.02}" \
          COSKQ_BENCH_QUERIES="${COSKQ_BENCH_QUERIES:-$queries}" \
              "../bench/$bench" )
        if [ -f "$baseline" ]; then
          python3 tools/bench_compare.py "${COMPARE_FLAGS[@]}" "$baseline" \
              "build-ci-perf/perf/$baseline"
        else
          echo "no committed $baseline; skipping comparison"
        fi
      }
      run_gated_bench bench_hotpath BENCH_hotpath.json 100
      run_gated_bench bench_irtree_layout BENCH_irtree_layout.json 100
      run_gated_bench bench_simd BENCH_simd.json 100
      run_gated_bench bench_datasets BENCH_datasets.json 20
      # Out-of-core scalability (DESIGN.md §14). Two growth points at CI
      # scale keep the job bounded; cell identity embeds the object count,
      # so these small runs are "new, no baseline" against the committed
      # paper-scale BENCH_scalability.json rather than false regressions.
      # A full-scale re-run (COSKQ_BENCH_SCALE=1 COSKQ_BENCH_SIZES=2000000)
      # compares cell-for-cell against the committed baseline.
      COSKQ_BENCH_SIZES="${COSKQ_BENCH_SIZES:-2000000,4000000}" \
          run_gated_bench bench_scalability BENCH_scalability.json 20
      # Scatter-gather cluster (DESIGN.md §15): router vs single server,
      # with the bench itself enforcing bit-identity and a non-zero prune
      # rate from both shard lower bounds before it writes the report.
      run_gated_bench bench_cluster BENCH_cluster.json 20
      # Result cache (DESIGN.md §16): cache-on vs cache-off single server
      # under Zipf(1.0)+hotspot traffic, with the bench itself enforcing
      # bit-identity against the direct solve, a >=50% hit rate, and a >=3x
      # cached p50 speedup before it writes the report.
      run_gated_bench bench_cache BENCH_cache.json 20

      echo "== perf: repository benchmark smoke (benchmark/run.sh) =="
      # Every workload end to end with short phases: the run exits nonzero
      # unless every reply is bitwise identical to a direct solve. A run
      # with one reference answer flipped must then fail, which proves that
      # gate fires.
      benchmark/run.sh --smoke
      if benchmark/run.sh --smoke --workload appro_zipf --corrupt-reference \
          > build-ci-perf/corrupt-reference.log 2>&1; then
        echo "benchmark accepted a corrupted reference answer"
        exit 1
      fi

      echo "== perf: out-of-core smoke under a hard address-space cap =="
      # A budget-capped cold-mmap batch must complete inside a 256 MiB
      # ulimit -v sandbox (the cap counts the mmap itself, so it must
      # exceed the snapshot file size — here ~7 MB — by the process's
      # baseline needs) and must report the §14 paging counters. This is
      # the bounded-memory contract a paper-scale deployment relies on.
      OOC_DIR=build-ci-perf/ooc
      mkdir -p "$OOC_DIR"
      ./build-ci-perf/tools/coskq_cli generate 100000 "$OOC_DIR/ooc.txt" \
          --seed 9 > /dev/null
      ./build-ci-perf/tools/coskq_cli index build "$OOC_DIR/ooc.txt" \
          "$OOC_DIR/ooc.cqix" --layout level-grouped > /dev/null
      ( ulimit -v 262144
        ./build-ci-perf/tools/coskq_cli batch "$OOC_DIR/ooc.txt" \
            maxsum-appro 50 6 --index-snapshot "$OOC_DIR/ooc.cqix" --cold \
            --drop-page-cache --memory-budget 2097152 ) \
          | tee "$OOC_DIR/ooc.log"
      grep -q "index memory: layout=level-grouped cold" "$OOC_DIR/ooc.log"
      grep -q "major_faults=" "$OOC_DIR/ooc.log"
      grep -q "budget=2,097,152" "$OOC_DIR/ooc.log"

      echo "== perf: snapshot build + cold-start vs warm-start =="
      SOAK_DIR=build-ci-perf/soak
      mkdir -p "$SOAK_DIR"
      ./build-ci-perf/tools/coskq_cli generate 20000 "$SOAK_DIR/soak.txt" \
          --seed 7 > /dev/null
      # Build the index snapshot once; every serve below reuses it.
      ./build-ci-perf/tools/coskq_cli index build "$SOAK_DIR/soak.txt" \
          "$SOAK_DIR/soak.cqix" | tee "$SOAK_DIR/build.log"
      ./build-ci-perf/tools/coskq_cli index inspect "$SOAK_DIR/soak.cqix" \
          > /dev/null
      # Cold start: serve builds the tree in-process. Warm start: serve
      # mmap-loads the snapshot. Both report "IR-tree <how> in <ms>" on
      # stdout; the job summary quotes the two lines side by side.
      start_and_stop_server() {
        local log=$1
        shift
        rm -f "$SOAK_DIR/port"
        ./build-ci-perf/tools/coskq_cli serve "$SOAK_DIR/soak.txt" --port 0 \
            --workers 2 --queue-cap 16 --port-file "$SOAK_DIR/port" "$@" \
            > "$log" &
        SERVE_PID=$!
        for _ in $(seq 1 100); do
          [ -s "$SOAK_DIR/port" ] && break
          sleep 0.1
        done
        [ -s "$SOAK_DIR/port" ] || { echo "server never bound"; exit 1; }
      }
      start_and_stop_server "$SOAK_DIR/cold.log"
      kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
      start_and_stop_server "$SOAK_DIR/warm.log" \
          --index-snapshot "$SOAK_DIR/soak.cqix"
      kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
      echo "== perf job summary: server start =="
      echo "cold (rebuild):       $(grep -o 'IR-tree .* ms' "$SOAK_DIR/cold.log")"
      echo "warm (snapshot load): $(grep -o 'IR-tree .* ms' "$SOAK_DIR/warm.log")"

      echo "== perf: 10-second coskq_load soak against a live server =="
      start_and_stop_server "$SOAK_DIR/soak.log" \
          --index-snapshot "$SOAK_DIR/soak.cqix" --result-cache-mb 64
      # Offered load well above two workers' capacity: the soak passes only
      # if the server keeps answering (shedding OVERLOADED as needed) for
      # the whole window without a transport error or accept-loop stall.
      # The Zipf(1.0) tuple pool makes the stream production-shaped, and
      # the grep gates on the server-side cache actually absorbing repeats
      # (coskq_load prints the STATS hit/miss delta for this run).
      ./build-ci-perf/tools/coskq_load 127.0.0.1 "$(cat "$SOAK_DIR/port")" \
          "$SOAK_DIR/soak.txt" --qps 200 --duration-s 10 --connections 4 \
          --deadline-ms 50 --seed 11 --zipf-theta 1.0 \
          | tee "$SOAK_DIR/load.log"
      grep -Eq "server result cache: \+[1-9][0-9]* hits" "$SOAK_DIR/load.log"
      kill -TERM "$SERVE_PID"
      wait "$SERVE_PID"  # Non-zero (drain failure/crash) fails the job.
      cat "$SOAK_DIR/soak.log"

      echo "== perf: 10-second coskq_load soak against the cluster router =="
      # The same saturating soak shape, but through the scatter-gather
      # path: 3 shard servers + router, offered load above capacity, and a
      # SIGTERM drain that must exit clean with the cluster counters in the
      # drain line. The router sheds nothing itself (routing happens on the
      # connection thread), so this probes shard-client backpressure.
      CLS_DIR=build-ci-perf/cluster-soak
      rm -rf "$CLS_DIR" && mkdir -p "$CLS_DIR"
      ./build-ci-perf/tools/coskq_cli shard build "$SOAK_DIR/soak.txt" \
          "$CLS_DIR/shards" --shards 3
      CLS_PIDS=()
      for s in 0 1 2; do
        ./build-ci-perf/tools/coskq_cli serve \
            "$CLS_DIR/shards/shard_000$s.txt" --port 0 --workers 2 \
            --index-snapshot "$CLS_DIR/shards/shard_000$s.cqix" \
            --port-file "$CLS_DIR/port$s" > "$CLS_DIR/shard$s.log" &
        CLS_PIDS+=($!)
      done
      for s in 0 1 2; do
        for _ in $(seq 1 100); do
          [ -s "$CLS_DIR/port$s" ] && break
          sleep 0.1
        done
        [ -s "$CLS_DIR/port$s" ] || { echo "shard $s never bound"; exit 1; }
      done
      ./build-ci-perf/tools/coskq_cli route "$CLS_DIR/shards/cluster.cqmf" \
          --port 0 --port-file "$CLS_DIR/router-port" \
          --shard "$(cat "$CLS_DIR/port0")" \
          --shard "$(cat "$CLS_DIR/port1")" \
          --shard "$(cat "$CLS_DIR/port2")" --result-cache-mb 64 \
          > "$CLS_DIR/router.log" &
      ROUTE_PID=$!
      for _ in $(seq 1 100); do
        [ -s "$CLS_DIR/router-port" ] && break
        sleep 0.1
      done
      [ -s "$CLS_DIR/router-port" ] || { echo "router never bound"; exit 1; }
      # Same Zipf-shaped stream through the scatter-gather path: a router
      # cache hit skips the whole probe/harvest/re-solve fan-out, and the
      # grep gates on that actually happening during the soak.
      ./build-ci-perf/tools/coskq_load 127.0.0.1 \
          "$(cat "$CLS_DIR/router-port")" "$SOAK_DIR/soak.txt" --qps 150 \
          --duration-s 10 --connections 4 --deadline-ms 100 --seed 19 \
          --zipf-theta 1.0 | tee "$CLS_DIR/load.log"
      grep -Eq "server result cache: \+[1-9][0-9]* hits" "$CLS_DIR/load.log"
      kill -TERM "$ROUTE_PID"
      wait "$ROUTE_PID"  # Non-zero (drain failure/crash) fails the job.
      for pid in "${CLS_PIDS[@]}"; do
        kill -TERM "$pid"
        wait "$pid"
      done
      grep -q "cluster{" "$CLS_DIR/router.log"
      cat "$CLS_DIR/router.log"

      echo "== perf: 10-second mixed read/write soak (protocol v3 MUTATE) =="
      # Same snapshot, but the server accepts MUTATE and folds the delta in
      # the background every 2048 mutations. 5% of the offered load is
      # inserts/removes; the soak passes only if every acked write stays
      # acked (no transport errors), queries keep flowing around the epoch
      # swaps, and SIGTERM still drains cleanly with refreezes in flight.
      start_and_stop_server "$SOAK_DIR/soak_rw.log" \
          --index-snapshot "$SOAK_DIR/soak.cqix" --enable-mutations \
          --refreeze-threshold 2048
      ./build-ci-perf/tools/coskq_load 127.0.0.1 "$(cat "$SOAK_DIR/port")" \
          "$SOAK_DIR/soak.txt" --qps 200 --duration-s 10 --connections 4 \
          --deadline-ms 50 --seed 12 --mutate-fraction 0.05
      kill -TERM "$SERVE_PID"
      wait "$SERVE_PID"  # Non-zero (drain failure/crash) fails the job.
      cat "$SOAK_DIR/soak_rw.log"
      ;;
    *)
      echo "unknown CI job '$job' (expected release, tsan, asan, or perf)" >&2
      exit 2
      ;;
  esac
done

echo "CI matrix complete: ${JOBS[*]}"
