"""Compare the end-to-end bench metrics of two source trees, in alternating pairs.

Usage::

    python3 tools/bench_pairs.py OLD_TREE NEW_TREE OUT_JSON

Each tree is a checkout of this repository, run through its own
``perfbench/run.py`` at the bench's default seed and options.  The run is
fixed: ``PAIRS`` pairs over the four ``WORKLOADS``.  A pair is one run of
each tree, each in a subprocess of its own, and the tree that goes first
alternates between pairs.  Every run must end with no failed operation, or
the script stops.

For each workload and end-to-end metric (``METRICS``) OUT_JSON holds the
value of every pair for both trees, each tree's median and quartiles, the
ratio of the medians (new / old) and the number of pairs in which the new
tree's value is better (lower, or higher for ``trials_per_s``).  It also
holds each tree's provenance line from its first run.  The script prints
one line per workload and metric with the same figures.

Standard library only; its subprocesses write no bytecode cache, and it
writes no file but OUT_JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("mc_floor", "pareto_pipeline", "cold_solve", "lp_sweep")
METRICS = {"setup_s": "lower", "wall_s": "lower", "trials_per_s": "higher",
           "peak_rss_mb": "lower"}
PAIRS = 10


def run_one(tree: str, workload: str) -> tuple[dict, dict]:
    """(end-to-end metric values, provenance) of one bench run in ``tree``."""
    cmd = [sys.executable, "-B", os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        sys.exit(f"{workload} in {tree} exited {done.returncode}:\n"
                 f"{done.stderr}")
    result = json.loads(lines[-1])
    if result["failed"]:
        sys.exit(f"{workload} in {tree}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    prov = next(json.loads(line.partition("\t")[2]) for line in lines
                if line.startswith("provenance\t"))
    return {k: result["metrics"][k]["value"] for k in METRICS}, prov


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def shown(row: dict) -> str:
    return f"{row['median']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("out")
    args = ap.parse_args(argv)
    trees = {"old": os.path.abspath(args.old), "new": os.path.abspath(args.new)}
    values = {(w, k): [] for w in WORKLOADS for k in trees}
    provenance = {k: {} for k in trees}
    for pair in range(PAIRS):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        for workload in WORKLOADS:
            for key in order:
                metrics, prov = run_one(trees[key], workload)
                values[workload, key].append(metrics)
                provenance[key].setdefault(workload, prov)
        print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr)
    doc = {"pairs": PAIRS, "provenance": provenance, "workloads": {}}
    for workload in WORKLOADS:
        rows = doc["workloads"][workload] = {}
        for metric, better in METRICS.items():
            old = [m[metric] for m in values[workload, "old"]]
            new = [m[metric] for m in values[workload, "new"]]
            wins = sum(n < o if better == "lower" else n > o
                       for o, n in zip(old, new))
            row = rows[metric] = {
                "better": better, "old": old, "new": new,
                "old_spread": spread(old), "new_spread": spread(new),
                "ratio": statistics.median(new) / statistics.median(old),
                "new_better_pairs": wins}
            print(f"{workload} {metric}: old {shown(row['old_spread'])}  new "
                  f"{shown(row['new_spread'])}  new/old {row['ratio']:.3f}, "
                  f"better in {wins} of {PAIRS}")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
