#!/usr/bin/env bash
# Builds the benchmark and runs one workload, or every workload in turn,
# each in a fresh process.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
#                    [--smoke] [--corrupt-reference]
#
# Outputs go to build/benchmark/ under the repository root: the binary and
# its build log, run_<workload>_<seed>.json per run, results_<seed>.json
# for the whole invocation, and with --trace the trace_<workload>.json and
# layers_<workload>.json files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build/benchmark"
workloads=(exact_fresh appro_zipf mixed_rw routed_fresh)

workload=""
seed=1
suffix=""
args=()
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds | --trace)
      args+=("$1" "$2")
      [[ "$1 $2" == "--trace 1" ]] && suffix="_trace"
      shift 2
      ;;
    --smoke | --corrupt-reference) args+=("$1"); shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
log="$build/build.log"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  if ! cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      >"$log" 2>&1; then
    cat "$log" >&2
    rm -f "$build/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$build" --target coskq_servebench -j "$(nproc)" \
    >>"$log" 2>&1; then
  tail -n 50 "$log" >&2
  exit 1
fi

if [[ -n "$workload" ]]; then
  list=("$workload")
else
  list=("${workloads[@]}")
fi
for w in "${list[@]}"; do
  "$build/coskq_servebench" --workload "$w" --seed "$seed" \
    --out-dir "$build" "${args[@]}"
done

{
  printf '{'
  sep=""
  for w in "${list[@]}"; do
    printf '%s"%s": ' "$sep" "$w"
    cat "$build/run_${w}_${seed}${suffix}.json"
    sep=", "
  done
  printf '}\n'
} >"$build/results_${seed}${suffix}.json"
