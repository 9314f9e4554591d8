"""The benchmark's workloads: inputs derived from a seed, the operations run
on them, and the correctness check of each operation's output.

A workload is built in two steps.  ``generate`` and ``write_files`` are the
timed set-up (instance generation and file writing).  ``plan`` then computes
the reference answers with the exhaustive oracles and returns the operations;
it is timed by nothing, so reference work stays out of every measurement.

Every operation runs in this process.  CLI operations call
``hypercuts.cli.main`` with captured output; library operations call the
library function through its module attribute at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "mc_floor": "the acceptance suite's 20 Monte-Carlo floor checks as library "
                "calls: warm walker caches, cost is per-trial draws and walks",
    "pareto_pipeline": "CLI estimate pipeline at default repetitions on "
                       "criterion-2 shaped instances: time to an exact pareto set",
    "cold_solve": "CLI solve, verify, oracle and enumerate at n 12-16 and m=2000: "
                  "walker caches cold on every call, state expansion dominates",
    "lp_sweep": "CLI check lemma-lp on the criterion-8 generator, stratified by "
                "rank: the only workload that reaches the analysis layer",
}

TIMING_KEYS = ("elapsed", "timing", "timings", "seconds")
TIMING_SUFFIXES = ("_s", "_ms", "_us", "_ns")


def lib(name: str):
    """The current ``hypercuts.<name>`` module object."""
    return importlib.import_module(f"hypercuts.{name}")


def canonical(payload):
    """``payload`` with every timing field removed, recursively."""
    if isinstance(payload, dict):
        return {k: canonical(v) for k, v in payload.items()
                if k not in TIMING_KEYS and not k.endswith(TIMING_SUFFIXES)}
    if isinstance(payload, list):
        return [canonical(v) for v in payload]
    return payload


def digest(payload) -> str:
    text = json.dumps(canonical(payload), sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_call(argv: list[str]) -> tuple[int, dict]:
    """Run ``hypercuts <argv> --format json`` in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib("cli").main(argv + ["--format", "json"])
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else {})


@dataclass
class Op:
    """One timed operation.

    ``run`` returns (exit code, output payload); every operation is expected
    to exit with 0.  ``check`` returns a failure reason or None.  ``work``
    counts what a successful run completed, in the unit the workload's
    ``trials_per_s`` is defined in.
    """

    name: str
    run: Callable[[], tuple[int, dict]]
    check: Callable[[dict], str | None]
    work: Callable[[dict], int]


@dataclass
class Instance:
    key: str
    graph: object
    params: dict


# ------------------------------------------------------------ generation

def _connected(G) -> bool:
    reach = 1
    grown = True
    while grown:
        grown = False
        for em in G.edge_masks:
            if em & reach and em & ~reach:
                reach |= em
                grown = True
    return reach == G.full_mask


def _random_instance(rng, n, m, rank, t_costs, t_weights, connected=False,
                     **kwargs):
    gen = lib("analysis").gen_random_instance
    while True:
        G = gen(n, m, rank, t_costs, t_weights, seed=rng.randrange(2 ** 32),
                **kwargs)
        if not connected or _connected(G):
            return G


def _lp_rank(seed: int) -> int:
    """Rank of the first instance the criterion-8 generator draws from seed."""
    return random.Random(seed).randrange(2, 7)


LP_PER_RANK = 8   # LP instances per rank 2..6 in one round


def generate(workload: str, seed: int) -> list[Instance]:
    """The workload's inputs; a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "mc_floor":
        # shapes and budgets of acceptance criteria 1, 5, 6 and 7
        for i in range(10):
            G = _random_instance(rng, 6, 10, 2 if i < 5 else 3, 2, 0,
                                 max_cost=8)
            out.append(Instance(f"bmulti-{i}", G, {}))
        for i in range(3):
            G = _random_instance(rng, 6, 10, 3, 1, 1, max_cost=8, max_weight=8)
            w = sorted(x[0] for x in G.vertex_weights)
            out.append(Instance(f"nbc-{i}", G, {"budgets": (w[3],)}))
        for i in range(3):
            G = _random_instance(rng, 6, 9, 5, 1, 1, max_cost=8, max_weight=8)
            w = sorted(x[0] for x in G.vertex_weights)
            out.append(Instance(f"nba-{i}", G, {"budgets": (w[3],)}))
        out.append(Instance("hmincut", _random_instance(
            rng, 6, 9, 5, 1, 0, max_cost=8), {}))
        out.append(Instance("kcut-n7", _random_instance(
            rng, 7, 9, 3, 1, 1, max_weight=4, positive_weights=True), {}))
        out.append(Instance("kcut-n6", _random_instance(
            rng, 6, 8, 3, 1, 1, max_weight=4, positive_weights=True), {}))
    elif workload == "pareto_pipeline":
        # criterion-2 corpus shape: n=6, rank 2, two cost criteria
        for i in range(2):
            m = rng.choice((9, 10, 11))
            out.append(Instance(f"pipe-{i}", _random_instance(
                rng, 6, m, 2, 2, 0, max_cost=8), {}))
    elif workload == "cold_solve":
        # two instances per solver shape average out instance-to-instance
        # differences in how many states a cold walk expands (hmincut's
        # 30 C(n,2) trials already make its one instance the costliest)
        shapes = (("bmulti", 2, 12, 24, 2, 2, 0), ("nbc", 2, 14, 28, 3, 1, 1),
                  ("nba", 2, 14, 28, 5, 1, 1), ("hmincut", 1, 14, 28, 3, 1, 0),
                  ("verify", 2, 14, 28, 2, 2, 0))
        for key, count, n, m, rank, tc, tw in shapes:
            for i in range(count):
                G = _random_instance(rng, n, m, rank, tc, tw, connected=True,
                                     max_cost=8, max_weight=8)
                params = {}
                if tw:
                    w = sorted(x[0] for x in G.vertex_weights)
                    params["budgets"] = (w[n // 2],)
                out.append(Instance(f"{key}-{i}", G, params))
        for i in range(2):
            out.append(Instance(f"kcut-{i}", _random_instance(
                rng, 12, 24, 3, 1, 1, connected=True, max_weight=4,
                positive_weights=True), {}))
        out.append(Instance("catalog", _random_instance(
            rng, 16, 40, 2, 2, 0, connected=True, max_cost=8), {}))
        out.append(Instance("order", _random_instance(
            rng, 60, 2000, 3, 1, 1, connected=True, max_cost=8,
            max_weight=8), {}))
    elif workload == "lp_sweep":
        # Per-instance cost is set by the rank alone (it fixes the grid), so
        # a fixed number of generator seeds per rank keeps the work of a run
        # independent of the seed; everything else about each LP instance
        # is drawn by the generator as usual.
        quota = {r: LP_PER_RANK for r in range(2, 7)}
        seeds = []
        while any(quota.values()):
            s = rng.randrange(2 ** 32)
            r = _lp_rank(s)
            if quota[r]:
                quota[r] -= 1
                seeds.append(s)
        out.append(Instance("lp", None, {"seeds": seeds}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for inst in out:
        inst.params["seed"] = rng.randrange(2 ** 31)
    return out


def write_files(instances: list[Instance], workdir: str) -> dict:
    """Write each instance document; returns key -> path."""
    save = lib("hypergraph").save_instance
    paths = {}
    for inst in instances:
        if inst.graph is None:
            continue
        path = os.path.join(workdir, f"{inst.key}.json")
        with open(path, "wb") as fh:
            fh.write(save(inst.graph))
        paths[inst.key] = path
    return paths


# ------------------------------------------------------------ checks

def _cut_records_consistent(G, records) -> bool:
    Cut = lib("hypergraph").Cut
    return all(list(G.cut_costs(Cut.of(r["edge_ids"]))) == r["costs"]
               for r in records)


# ------------------------------------------------------------ plans

# Best-of-N trial budgets for the cold solves.  On these shapes the measured
# per-trial hit rate of an optimum was at least 3.8% (15 seeds per shape); at
# that rate a miss at these budgets has probability below 1e-100.  hmincut
# uses 30 C(n,2) trials, which bounds a miss by e^-30 from its floor alone.
COLD_TRIALS = {"bmulti": 6000, "nbc": 6000, "nba": 3000, "kcut": 3000}
VERIFY_REPS = 1200


def _estimate_op(inst: Instance, algorithm: str, kwargs: dict) -> Op:
    seed = inst.params["seed"]

    def run():
        report = lib("harness").estimate(inst.graph, algorithm, seed=seed,
                                         jobs=1, **kwargs)
        return 0, report.to_dict()

    def check(p):
        return None if p["passed"] else f"floor check failed, z={p['z_slack']}"

    return Op(f"estimate.{algorithm}.{inst.key}", run, check,
              lambda p: p["trials"])


def _plan_mc_floor(instances):
    oracle = lib("oracle")
    ops = []
    for inst in instances:
        G = inst.graph
        if inst.key.startswith("bmulti"):
            # median criterion-0 cut cost, as acceptance criterion 1 does
            values = sorted(c[0] for c in oracle.build_catalog(G).costs.values())
            ops.append(_estimate_op(inst, "bmulti",
                                    {"budgets": (values[len(values) // 2],)}))
        elif inst.key.startswith("nbc"):
            ops.append(_estimate_op(inst, "nb-bmulti-constant",
                                    {"budgets": inst.params["budgets"]}))
        elif inst.key.startswith("nba"):
            ops.append(_estimate_op(inst, "nb-bmulti-arbitrary",
                                    {"budgets": inst.params["budgets"]}))
        elif inst.key == "hmincut":
            ops.append(_estimate_op(inst, "hmincut", {}))
        elif inst.key == "kcut-n7":
            ops.append(_estimate_op(inst, "kcut", {"k": 2, "sizes": (1, 1)}))
        else:
            ops.append(_estimate_op(inst, "kcut", {"k": 2, "sizes": (1, 1)}))
            k3 = Instance("kcut-n6-k3", G, {"seed": inst.params["seed"] + 1})
            ops.append(_estimate_op(k3, "kcut", {"k": 3, "sizes": (1, 1, 2)}))
    return ops


def _cli_op(name, argv, test, work=lambda p: 0) -> Op:
    return Op(name, lambda: cli_call(argv), test, work)


def _plan_pareto_pipeline(instances, paths, jobs):
    reps_of = lib("multiobjective").default_enum_repetitions
    ops = []
    for inst in instances:
        G = inst.graph
        reps = reps_of(G.n, G.rank, G.t_costs)

        def test(p):
            bad = [r["run"] for r in p.get("per_run", ())
                   if not (r["multi_exact"] and r["pareto_exact"])]
            if p.get("runs") != 1 or bad:
                return f"pipeline runs not exact: {bad}"
            return None

        argv = ["estimate", "pipeline", "--instance", paths[inst.key],
                "--runs", "1", "--jobs", str(jobs),
                "--seed", str(inst.params["seed"])]
        ops.append(_cli_op(f"pipeline.{inst.key}", argv, test,
                           lambda p, reps=reps: reps * p["runs"]))
    return ops


def _plan_cold_solve(instances, paths):
    oracle = lib("oracle")
    ops = []

    def solve(inst, family, extra, optimum, value_of):
        argv = ["solve", family, "--instance", paths[inst.key],
                "--seed", str(inst.params["seed"])] + extra

        def test(p):
            got = value_of(p)
            return None if got == optimum else \
                f"best-of-{p.get('trials')} value {got}, oracle optimum {optimum}"

        ops.append(_cli_op(f"solve.{family}.{inst.key}", argv, test,
                           lambda p: p["trials"]))

    for inst in instances:
        G = inst.graph
        shape = inst.key.split("-")[0]
        if shape == "bmulti":
            catalog = oracle.build_catalog(G)
            values = sorted(c[0] for c in catalog.costs.values())
            budget = values[len(values) // 2]
            best = min(catalog.costs[c][1]
                       for c in oracle.oracle_bmulti(catalog, (budget,)))
            solve(inst, "bmulti", ["--budgets", str(budget), "--trials",
                                   str(COLD_TRIALS[shape])],
                  best, lambda p: p["costs"][1] if p.get("found") else None)
        elif shape in ("nbc", "nba"):
            value, _ = oracle.oracle_nb_bmulti(G, inst.params["budgets"])
            mode = "constant" if shape == "nbc" else "arbitrary"
            solve(inst, "nb-bmulti",
                  ["--budgets", str(inst.params["budgets"][0]),
                   "--trials", str(COLD_TRIALS[shape]), "--rank-mode", mode],
                  value, lambda p: p.get("cost"))
        elif shape == "hmincut":
            value, _ = oracle.oracle_min_cut(oracle.build_catalog(G))
            solve(inst, "hmincut", ["--trials", str(30 * math.comb(G.n, 2))],
                  value, lambda p: p.get("cost"))
        elif shape == "kcut":
            value, _ = oracle.oracle_kcut(G, 2, (1, 1))
            solve(inst, "kcut", ["--k", "2", "--sizes", "1,1", "--trials",
                                 str(COLD_TRIALS[shape])],
                  value, lambda p: p.get("value"))
        elif shape == "verify":
            pareto = oracle.oracle_pareto(oracle.build_catalog(G))
            cut = min(pareto, key=lambda c: (len(c.edge_ids), c.edge_ids))
            argv = ["verify", "pareto", "--instance", paths[inst.key],
                    "--cut", ",".join(map(str, cut.edge_ids)),
                    "--reps", str(VERIFY_REPS),
                    "--seed", str(inst.params["seed"])]
            ops.append(_cli_op(f"verify.pareto.{inst.key}", argv, lambda p:
                               None if p.get("pareto_optimal") is True else
                               "verifier said FALSE on an oracle-pareto cut"))
        elif shape == "catalog":
            expected = {c.edge_ids for c in
                        oracle.oracle_pareto(oracle.build_catalog(G))}
            argv = ["oracle", "pareto", "--instance", paths[inst.key]]
            ops.append(_cli_op(
                f"oracle.pareto.{inst.key}", argv, lambda p, expected=expected:
                None if {tuple(r["edge_ids"]) for r in p.get("cuts", ())}
                == expected else "oracle pareto set differs from the library"))
        else:
            argv = ["enumerate", "nb-multi", "--instance", paths[inst.key],
                    "--seed", str(inst.params["seed"])]
            ops.append(_cli_op(
                f"enumerate.nb-multi.{inst.key}", argv, lambda p, G=G:
                None if p.get("count", 0) >= 1
                and _cut_records_consistent(G, p["cuts"])
                else "enumeration returned no cut or wrong cost vectors"))
    return ops


def _plan_lp_sweep(instances):
    ops = []
    for s in instances[0].params["seeds"]:
        argv = ["check", "lemma-lp", "--sweep", "1", "--seed", str(s)]
        ops.append(_cli_op(f"lemma-lp.{s}", argv, lambda p: None
                           if p.get("ok") is True and not p.get("mismatches")
                           else f"closed form != brute force: {p.get('mismatches')}",
                           lambda p: p["sweep"]))
    return ops


JOBS = {"mc_floor": 1, "pareto_pipeline": 2, "cold_solve": 1, "lp_sweep": 1}

# Rounds per run, sized so that a run takes 20-25 s on a 2-core machine.
# A fixed count keeps every run's statistic the same (a median over the
# same number of samples); --seconds only stops a much slower machine early.
ROUNDS = {"mc_floor": 2, "pareto_pipeline": 1, "cold_solve": 3, "lp_sweep": 3}


def plan(workload: str, instances: list[Instance], paths: dict) -> list[Op]:
    """Operations of one round, with reference answers computed here."""
    if workload == "mc_floor":
        return _plan_mc_floor(instances)
    if workload == "pareto_pipeline":
        return _plan_pareto_pipeline(instances, paths, JOBS[workload])
    if workload == "cold_solve":
        return _plan_cold_solve(instances, paths)
    return _plan_lp_sweep(instances)
