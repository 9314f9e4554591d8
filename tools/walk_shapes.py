"""Compare the walk's speed, cache and memory between two source trees.

Usage::

    python3 tools/walk_shapes.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; only its ``src`` is imported.
The run is fixed: ``ROUNDS`` rounds over the ``SHAPES``, each
``gen_random_instance(n, m, 3, 1, 0, max_cost=8, seed=1)`` walked ``runs``
times by each of the ``FAMILIES``: the min-cut walk (``hmincut_walk``) and
the budget-free bipartition walk (``bmulti_walk(G, ())``), whose base draws
fill outcome tables.  A run is one walk from a cold ``Walk``, its trials
drawn from ``sampling.trial_rngs(0, 0, runs)``.

Per round, shape and family, each tree runs in a subprocess of its own, and
the tree that goes first alternates between rounds.  One more subprocess
per tree, shape and family repeats the run under ``tracemalloc``, started
once the instance is built.  For each shape and family the script prints
the seconds of the run (building the walk and every trial) as median [q1,
q3] per tree (``bench_pairs.spread``, the quartile rule of the BENCH files)
and the ratio of the medians (new / old), the cache keys the walk holds and
the slots they fill, counted from its structures in every tree (one per
key, one per entry of a sample node's prefix sums or of a draw node's draws
and one per draw-table entry), the tracemalloc peak (MiB of 2^20 bytes),
and whether both trees end with the same digest of the outcomes and the
same generator state.

Standard library only; it writes no file, and its subprocesses write no
bytecode cache.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench_pairs import spread

SHAPES = ((14, 28, 20_000), (30, 120, 2_000), (60, 600, 400),
          (120, 2000, 100))  # (n, m, runs)
FAMILIES = ("hmincut", "bmulti")
ROUNDS = 5

# One run of one shape and family in one tree; prints a JSON line.  It counts
# the slots from the cache itself, so it counts them alike in trees whose
# walks budget different things.
RUN = r"""
import hashlib, json, sys, time
tree, family, n, m, runs, traced = sys.argv[1:7]
sys.path[:0] = [tree + "/src"]
from hypercuts.analysis import gen_random_instance
from hypercuts.multiobjective import bmulti_walk
from hypercuts.node_budgeted import hmincut_walk
from hypercuts.sampling import trial_rngs
G = gen_random_instance(int(n), int(m), 3, 1, 0, max_cost=8, seed=1)
if traced == "1":
    import tracemalloc
    tracemalloc.start()
rngs = []


def trials():
    for rng in trial_rngs(0, 0, int(runs)):
        rngs[:] = [rng]
        yield rng


start = time.perf_counter()
walk = hmincut_walk(G) if family == "hmincut" else bmulti_walk(G, ())
outs = list(walk.runs(trials()))
seconds = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1] if traced == "1" else None
slots = len(walk.cache)
for key, (comps, node) in walk.cache.items():
    if key == comps:  # a merge alias holds its target's entry
        slots += len((node[2] if node[0] == "level" else node)[1])
        slots += len(node[2]) if node[0] == "draw" else 0
state = hashlib.sha256(repr((outs, rngs[0].getstate())).encode())
print(json.dumps({"s": seconds, "peak": peak, "state": state.hexdigest(),
                  "states": len(walk.cache), "slots": slots}))
"""


def run_one(tree, family, shape, traced=False):
    n, m, runs = shape
    cmd = [sys.executable, "-B", "-c", RUN, tree, family, str(n), str(m),
           str(runs), "1" if traced else "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=False)
    if done.returncode:
        sys.exit(f"{family} n{n}m{m} in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    trees = {"old": os.path.abspath(args.old),
             "new": os.path.abspath(args.new)}
    cases = [(shape, family) for shape in SHAPES for family in FAMILIES]
    times = {(case, key): [] for case in cases for key in trees}
    last = {}
    for rnd in range(ROUNDS):
        order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
        for case in cases:
            for key in order:
                res = run_one(trees[key], case[1], case[0])
                times[case, key].append(res["s"])
                if last.get((case, key), res)["state"] != res["state"]:
                    sys.exit(f"{case} in {key} ended in two different states")
                last[case, key] = res
        print(f"round {rnd + 1}/{ROUNDS} done", file=sys.stderr)
    for case in cases:
        (n, m, runs), family = case
        print(f"n{n}m{m} {family} ({runs} runs):")
        for key in trees:
            row = spread(times[case, key])
            traced = run_one(trees[key], family, case[0], traced=True)
            res = last[case, key]
            print(f"  {key}  {row['median']:7.3f} s"
                  f" [{row['q1']:.3f}, {row['q3']:.3f}]"
                  f"  states {res['states']}  slots {res['slots']}"
                  f"  tracemalloc peak {traced['peak'] / 2**20:.1f} MiB")
        ratio = (statistics.median(times[case, "new"])
                 / statistics.median(times[case, "old"]))
        same = last[case, "old"]["state"] == last[case, "new"]["state"]
        print(f"  new/old {ratio:.3f}; same outcome digest and generator "
              f"state: {'yes' if same else 'NO'}")


if __name__ == "__main__":
    main()
