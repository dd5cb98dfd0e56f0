#!/usr/bin/env python3
"""Compares two commits on the repository benchmark with the pair rule.

  compare.py run --parent DIR --change DIR [--workload W ...] [--pairs 10]
                 [--seed S] --out runs.jsonl
      Runs benchmark/run.sh in two checkouts, alternating which side runs
      first, with the same seed on both sides of a pair, appends every
      result to runs.jsonl, then prints the report.

  compare.py report runs.jsonl
      Applies the pair rule to recorded runs.

  compare.py --self-test

For every end-to-end metric of BENCHMARK.json and every workload:
  * regressed:  the change's median is worse than the parent's by more
                than the metric's bound;
  * improved:   at least 10 pairs, the change wins at least 9 in 10 of
                them (ties count for neither), and the medians differ by
                more than the parent's interquartile range;
  * unresolved: the parent's own spread (interquartile range over median)
                is wider than the bound, so "no regression" cannot be
                shown, unless every change run beats every parent run
                ("better in every run");
  * unchanged:  none of the above.
A gain does not count when the change failed more operations. Exit status
is 1 when any metric regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec(path=os.path.join(HERE, "..", "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound, parent_failed=0,
            change_failed=0):
    """Pair-rule verdict for one metric. parent[i] and change[i] are the
    two sides of pair i."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    if n < 4:
        return "too few runs", {}
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    spread = iqr / abs(med_p) if med_p else float("inf")
    worse = (med_c - med_p) / abs(med_p) if med_p else 0.0
    if direction == "higher":
        worse = -worse
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    every = all(better(c, p, direction) for c in change for p in parent)
    stats = {"pairs": n, "parent_median": med_p, "change_median": med_c,
             "parent_spread": spread, "worse_by": worse, "wins": wins}
    if worse > bound:
        return "regressed", stats
    gain = (n >= MIN_PAIRS and wins >= WIN_SHARE * n
            and abs(med_c - med_p) > iqr and better(med_c, med_p, direction))
    if gain:
        if change_failed > parent_failed:
            return "improved, but more operations failed: no gain", stats
        return "improved", stats
    if spread > bound:
        return ("better in every run" if every else "unresolved"), stats
    return "unchanged", stats


def report(records, spec, out=sys.stdout):
    """Prints one row per (workload, metric); returns True if any metric
    regressed."""
    by_key = {}
    for r in records:
        by_key.setdefault((r["workload"], r["side"]), {})[r["pair"]] = r
    workloads = sorted({w for w, _ in by_key})
    regressed = False
    for w in workloads:
        parent = by_key.get((w, "parent"), {})
        change = by_key.get((w, "change"), {})
        pairs = sorted(set(parent) & set(change))
        failed_p = sum(parent[i]["failed"] for i in pairs)
        failed_c = sum(change[i]["failed"] for i in pairs)
        print(f"{w}: {len(pairs)} pairs, failed ops parent={failed_p} "
              f"change={failed_c}", file=out)
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [parent[i]["metrics"][name]["value"] for i in pairs]
            c = [change[i]["metrics"][name]["value"] for i in pairs]
            v, s = verdict(p, c, m["better"], m["bound"], failed_p, failed_c)
            regressed |= v == "regressed"
            detail = ""
            if s:
                detail = (f"parent {s['parent_median']:.6g} change "
                          f"{s['change_median']:.6g} {m['unit']} "
                          f"(worse by {100 * s['worse_by']:+.1f}%, bound "
                          f"{100 * m['bound']:.1f}%, parent spread "
                          f"{100 * s['parent_spread']:.1f}%, wins "
                          f"{s['wins']}/{s['pairs']})")
            print(f"  {name:10s} {v:12s} {detail}", file=out)
    return regressed


def run_once(checkout, workload, seed):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed",
           str(seed)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd)} failed:\n{p.stderr[-4000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def cmd_run(args, spec):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    records = []
    with open(args.out, "a") as f:
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else \
                ["change", "parent"]
            for w in workloads:
                for side in order:
                    result = run_once(sides[side], w, args.seed + pair)
                    rec = {"side": side, "pair": pair, "workload": w,
                           "seed": args.seed + pair, **result}
                    records.append(rec)
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
    return report(records, spec)


def self_test():
    spec = {"end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "sat_qps", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in base]
    assert verdict(base, faster, "lower", 0.1)[0] == "improved"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1)[0] == \
        "regressed"
    assert verdict(base, [x * 1.05 for x in base], "lower", 0.1)[0] == \
        "unchanged"
    # Nine in ten pairs is enough, eight is not.
    nine = faster[:9] + [base[9] * 1.01]
    assert verdict(base, nine, "lower", 0.1)[0] == "improved"
    eight = faster[:8] + [x * 1.01 for x in base[8:]]
    assert verdict(base, eight, "lower", 0.1)[0] == "unchanged"
    # Ties count for neither side.
    assert verdict(base, list(base), "lower", 0.1)[0] == "unchanged"
    # A parent spread wider than the bound cannot resolve small moves...
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [x * 1.02 for x in noisy], "lower", 0.1)[0] == \
        "unresolved"
    # ...unless every change run beats every parent run.
    assert verdict(noisy, [4.9] * 10, "lower", 0.1)[0] == \
        "better in every run"
    assert verdict(noisy, [1.0] * 10, "lower", 0.1)[0] == "improved"
    # Direction "higher": more is better.
    assert verdict(base, [x * 1.3 for x in base], "higher", 0.1)[0] == \
        "improved"
    assert verdict(base, faster, "higher", 0.1)[0] == "regressed"
    # Too few pairs: a clear win on 5 pairs is not a gain.
    assert verdict(base[:5], faster[:5], "lower", 0.1)[0] == "unchanged"
    # More failed operations void a gain.
    assert verdict(base, faster, "lower", 0.1, 0, 3)[0].startswith(
        "improved, but")
    # Report over records: a regression makes the report fail.
    records = []
    for i in range(10):
        for side, scale in (("parent", 1.0), ("change", 1.3)):
            records.append({"side": side, "pair": i, "workload": "w",
                            "failed": 0, "metrics": {
                                "p50_ms": {"value": base[i] * scale},
                                "sat_qps": {"value": 100.0 + i}}})
    with open(os.devnull, "w") as sink:
        assert report(records, spec, out=sink)
    print("compare.py self-test passed")


def main():
    if sys.argv[1:] == ["--self-test"]:
        self_test()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--workload", action="append")
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("runs")
    args = parser.parse_args()
    spec = load_spec()
    if args.cmd == "run":
        return 1 if cmd_run(args, spec) else 0
    with open(args.runs) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return 1 if report(records, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
