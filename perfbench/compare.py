#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are files or directories of saved run.py output (every line
starting with "BENCH_RECORD " is one run; other lines are ignored). For each
(workload, metric) the report gives both sides' median and quartiles and a
verdict against the bound in BENCHMARK.json:

  worse       the head median is worse than the base median by more than
              the bound, and both sides' spreads fit inside the bound (or
              every head run is worse than every base run);
  better      the head median is better by more than the base's own
              quartile spread, and the head wins at least 90% of run pairs;
  unresolved  a side's spread is wider than the bound and neither side
              wins every run;
  same        anything else.

Per-layer metrics (trace runs) have no bound; they are listed with their
relative change only. Exit status is 1 when any end-to-end metric is worse.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "BENCH_RECORD "


def load(path):
    files = sorted(p for p in Path(path).rglob("*") if p.is_file()) \
        if Path(path).is_dir() else [Path(path)]
    records = []
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith(PREFIX):
                records.append(json.loads(line[len(PREFIX):]))
    if not records:
        sys.exit(f"compare: no {PREFIX.strip()} lines in {path}")
    return records


def group(records):
    """{(workload, metric): [values]} plus the environments seen."""
    values, envs = {}, set()
    for r in records:
        env = r.get("env", {})
        envs.add((env.get("nproc"), env.get("build_type")))
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return values, envs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound):
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    sign = 1.0 if better == "lower" else -1.0
    if bm == 0:
        return "unresolved", 0.0
    worse_by = sign * (hm - bm) / abs(bm)
    base_spread = (b3 - b1) / abs(bm)
    head_spread = (h3 - h1) / abs(hm) if hm else float("inf")
    head_wins_all = all(sign * (h - b) < 0 for h in head for b in base)
    head_loses_all = all(sign * (h - b) > 0 for h in head for b in base)
    if len(head) == len(base):
        pairs = list(zip(base, head))
    else:
        pairs = [(b, h) for b in base for h in head]
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if worse_by > bound and (max(base_spread, head_spread) <= bound
                             or head_loses_all):
        return "worse", worse_by
    if -worse_by > base_spread and wins >= 0.9 * len(pairs):
        return "better", worse_by
    if max(base_spread, head_spread) > bound and not (head_wins_all
                                                      or head_loses_all):
        return "unresolved", worse_by
    return "same", worse_by


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}

    base, base_env = group(load(args.base))
    head, head_env = group(load(args.head))
    if base_env != head_env:
        print(f"warning: environments differ (nproc, build type): "
              f"base {sorted(base_env, key=str)} head {sorted(head_env, key=str)}")

    regressions = 0
    header = (f"{'workload':14s} {'metric':38s} {'n':>5s} "
              f"{'base q1/median/q3':>32s} {'head q1/median/q3':>32s} "
              f"{'change':>8s}  verdict")
    print(header)
    order = {name: i for i, name in enumerate(list(e2e) + list(layer))}
    keys = [k for k in set(base) & set(head) if k[1] in order]
    for key in sorted(keys, key=lambda k: (k[0], order[k[1]])):
        workload, name = key
        b, h = base[key], head[key]
        fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
        if name in e2e:
            result, change = verdict(b, h, e2e[name]["better"],
                                     e2e[name]["bound"])
            regressions += result == "worse"
            label = f"{result} (bound {e2e[name]['bound']:.0%})"
        else:
            bm = statistics.median(b)
            change = (statistics.median(h) - bm) / abs(bm) if bm else 0.0
            if layer[name]["better"] == "higher":
                change = -change
            label = "per-layer"
        print(f"{workload:14s} {name:38s} {len(b):>2d}/{len(h):<2d} "
              f"{fmt(b):>32s} {fmt(h):>32s} {change:>+8.1%}  {label}")
    print("change is signed so that positive means worse")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
