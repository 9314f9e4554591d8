"""Compare the enumeration's speed, cache and memory between two source trees.

Usage::

    python3 tools/enum_shapes.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; only its ``src`` is imported.
The run is fixed: ``ROUNDS`` rounds over the four ``SHAPES``, which are:

* ``pipe-0``, ``pipe-1``: the two seed-0 ``pareto_pipeline`` instances of
  ``perfbench/workloads.generate`` (read from this script's own checkout),
  each run from a fresh context for its default repetition count;
* ``n8m16``, ``n10m25``: ``gen_random_instance(n, m, 2, 2, 0, max_cost=8,
  seed=1)``, timed over ``REPS`` repetitions after ``WARM`` untimed ones.

Every run draws from ``random.Random(3)``.  Per round and shape, each tree
runs in a subprocess of its own, and the tree that goes first alternates
between rounds.  One more subprocess per tree and shape repeats the run under
``tracemalloc``, started once the instance is built.  For each shape the
script prints the microseconds per timed repetition as median [q1, q3] per
tree (``bench_pairs.spread``, the quartile rule of the BENCH files) and the
ratio of the medians (new / old), whether both trees end with the same
generator state and cut set, the entries the context holds by kind
(draw-trie branches, partition nodes with their links and cuts, draw steps)
and the memory tracemalloc counts as held at the end of the run and at its
peak (MB of 10^6 bytes).

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

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "perfbench")

SHAPES = ("pipe-0", "pipe-1", "n8m16", "n10m25")
ROUNDS = 7
WARM = 50_000
REPS = 20_000

# One run of one shape in one tree; prints a JSON line.  It reads the
# context's structures directly, so it counts the same kinds in trees whose
# ``size`` counts different ones.
RUN = r"""
import hashlib, json, random, sys, time
tree, bench, shape, warm, reps, traced = sys.argv[1:7]
sys.path[:0] = [tree + "/src", bench]
from hypercuts import multiobjective
if shape.startswith("pipe-"):
    import workloads
    G = workloads.generate("pareto_pipeline", 0)[int(shape[5:])].graph
    warm, reps = 0, multiobjective.default_enum_repetitions(
        G.n, G.rank, G.t_costs)
else:
    from hypercuts.analysis import gen_random_instance
    n, m = map(int, shape[1:].split("m"))
    G = gen_random_instance(n, m, 2, 2, 0, max_cost=8, seed=1)
    warm, reps = int(warm), int(reps)
if traced == "1":
    import tracemalloc
    tracemalloc.start()
rng, out = random.Random(3), set()
start = time.perf_counter()
ctx = multiobjective._EnumContext(G, G.costs_by_criterion())
run = ctx.run
for _ in range(warm):
    run(rng, out)
if warm:
    start = time.perf_counter()
for _ in range(reps):
    run(rng, out)
us = (time.perf_counter() - start) / reps * 1e6
held = peak = None
if traced == "1":
    held, peak = tracemalloc.get_traced_memory()


def trie(node):
    return sum(1 + (trie(c) if c else 0) for c in node.children.values())


steps, seen, todo = 0, set(), [ctx.first] if ctx.first else []
if todo:
    steps = 1
while todo:
    step = todo.pop()
    if id(step) not in seen:
        seen.add(id(step))
        steps += sum(nxt is not None for nxt in step.next)
        todo.extend(nxt for nxt in step.next if nxt)
state = hashlib.sha256(repr((rng.getstate(), sorted(out))).encode())
print(json.dumps({
    "us": us, "held": held, "peak": peak, "state": state.hexdigest(),
    "tries": sum(trie(root) for root in ctx.roots),
    "partitions": len(ctx.cache) + sum(len(v[2]) + len(v[3])
                                       for v in ctx.cache.values()),
    "steps": steps, "size": ctx.size}))
"""


def run_one(tree, shape, traced=False):
    cmd = [sys.executable, "-B", "-c", RUN, tree, BENCH, shape,
           str(WARM), str(REPS), "1" if traced else "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=False)
    if done.returncode:
        sys.exit(f"{shape} in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    trees = {"old": os.path.abspath(args.old), "new": os.path.abspath(args.new)}
    times = {(s, k): [] for s in SHAPES for k in trees}
    last = {}
    for rnd in range(ROUNDS):
        order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
        for shape in SHAPES:
            for key in order:
                res = run_one(trees[key], shape)
                times[shape, key].append(res["us"])
                if (shape, key) in last and last[shape, key]["state"] != res["state"]:
                    sys.exit(f"{shape} in {key} ended in two different states")
                last[shape, key] = res
        print(f"round {rnd + 1}/{ROUNDS} done", file=sys.stderr)
    for shape in SHAPES:
        print(f"{shape}:")
        for key in trees:
            row = spread(times[shape, key])
            traced = run_one(trees[key], shape, traced=True)
            res = last[shape, key]
            print(f"  {key}  {row['median']:8.2f} us/rep"
                  f" [{row['q1']:.2f}, {row['q3']:.2f}]"
                  f"  entries {res['tries']} trie + {res['partitions']}"
                  f" partition + {res['steps']} step"
                  f" = {res['tries'] + res['partitions'] + res['steps']}"
                  f" (size {res['size']})"
                  f"  tracemalloc held {traced['held'] / 1e6:.2f} MB,"
                  f" peak {traced['peak'] / 1e6:.2f} MB")
        ratio = (statistics.median(times[shape, "new"])
                 / statistics.median(times[shape, "old"]))
        same = last[shape, "old"]["state"] == last[shape, "new"]["state"]
        print(f"  new/old {ratio:.3f}; same final state and cuts: "
              f"{'yes' if same else 'NO'}")


if __name__ == "__main__":
    main()
