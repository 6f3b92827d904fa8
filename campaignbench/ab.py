#!/usr/bin/env python3
"""Interleaved A/B comparison of two revisions on the campaign benchmark.

Run from the root of a git checkout:

    python3 campaignbench/ab.py --base HEAD~1 [--head REV] [--pairs 10]
        [--workloads paper-exact,served-replay] [--trace 0]

The base revision (and the head revision, when given; otherwise the working
tree) is exported with `git archive` under .bench_build/ab/, and this
benchmark directory plus BENCHMARK.json are copied over it, so both sides run
identical benchmark code. Each side is built once before timing. Then, per
workload, each pair runs both sides on the same seed (pair i on seed
SEED_BASE + i) for BENCHMARK.json's run_seconds, alternating which side goes
first. A run whose outputs fail the benchmark's checks stops the comparison.
For every metric the script prints each side's median and
quartiles, the head's change against the base median, and the fraction of
pairs the head won (ties count for neither side). A gain is claimed only when
the head wins at least nine tenths of the pairs and the medians differ by
more than the base's own interquartile distance, and never when the head
fails a larger share of its operations than the base; a metric whose head
median is worse than the base median by more than its bound is flagged.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)
# SEED_BASE + i is the seed of pair i.
SEED_BASE = 1000


def export(rev, dest):
    """Writes the tree of rev to dest, with this benchmark laid over it."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    overlay(dest)


def overlay(dest):
    shutil.rmtree(os.path.join(dest, BENCH_DIR), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, BENCH_DIR), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run(tree, workload, seed, seconds, trace):
    """Runs one workload in tree and returns its parsed result line."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} failed the benchmark's checks")
    return res


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="revision to compare against (the parent)")
    ap.add_argument("--head", help="revision with the change (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated (default: every workload in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    work = os.path.join(ROOT, ".bench_build", "ab")
    base = os.path.join(work, "base")
    export(args.base, base)
    head = ROOT
    if args.head:
        head = os.path.join(work, "head")
        export(args.head, head)
    sides = {"base": base, "head": head}
    for name, tree in sides.items():
        print(f"building {name} in {tree}", file=sys.stderr)
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--build-only"], cwd=tree, check=True)

    for wl in workloads:
        vals = {"base": {}, "head": {}}
        failed = {"base": set(), "head": set()}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                res = run(sides[side], wl, SEED_BASE + i, seconds, args.trace)
                failed[side].add(res["failed"] / res["attempted"])
                for k, v in res["metrics"].items():
                    vals[side].setdefault(k, []).append(v["value"])
            print(f"{wl}: pair {i + 1}/{args.pairs} done", file=sys.stderr)

        print(f"\n== {wl} ({args.pairs} pairs, {seconds} s runs, trace {args.trace})")
        print(f"failed share: base {sorted(failed['base'])} head {sorted(failed['head'])}")
        more_failures = max(failed["head"]) > max(failed["base"])
        if more_failures:
            print("no gain is claimed: the head fails a larger share of its operations than the base")
        print(f"{'metric':32s} {'base q1/median/q3':>32s} {'head q1/median/q3':>32s} {'change':>8s} {'wins':>5s}  verdict")
        for k in sorted(vals["base"]):
            b, h = vals["base"][k], vals["head"].get(k, [])
            if len(h) != len(b):
                continue
            lower = metrics.get(k, {}).get("better", "lower") == "lower"
            bq, hq = quartiles(b), quartiles(h)
            wins = sum(1 for x, y in zip(b, h) if (y < x if lower else y > x))
            frac = wins / len(b)
            change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            verdict = ""
            spread = bq[2] - bq[0]
            if frac >= 0.9 and abs(hq[1] - bq[1]) > spread and not more_failures:
                verdict = "gain"
            bound = metrics.get(k, {}).get("bound")
            if bound is not None and bq[1]:
                worse = change if lower else -change
                if worse > bound:
                    verdict = "REGRESSION"
                elif spread / bq[1] > bound and verdict != "gain":
                    verdict = "unresolved (spread above bound)"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{k:32s} {fmt(bq):>32s} {fmt(hq):>32s} {change:+8.2%} {frac:5.0%}  {verdict}")


if __name__ == "__main__":
    main()
