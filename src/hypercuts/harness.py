"""Monte-Carlo estimation harness.

``estimate`` runs a randomized solver many times against the exhaustive
oracle for the same instance and reports the empirical hit frequency of the
oracle-optimal set next to the algorithm's proven probability floor.  The
pass policy is one-sided: the floors are lower bounds, so a run passes when
the empirical frequency is no more than three binomial standard deviations
below the floor.

Reports are reproducible: trial i uses a generator derived from
(master seed, i), so results are independent of execution order and of the
number of worker processes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from multiprocessing import get_context

from .hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE, exact_int,
                         exact_ints, save_instance)
from .multiobjective import (bmulti_walk, enum_repetition_count,
                             pareto_pipeline, success_floor_edge,
                             verify_repetition_count)
from .node_budgeted import (hmincut_walk, nb_arbitrary_walk, nb_constant_walk,
                            success_floor_node, success_floor_node_arbitrary)
from .size_constrained import kcut_walk, success_floor_size
from .oracle import (build_catalog, oracle_bmulti, oracle_kcut, oracle_min_cut,
                     oracle_multiobjective, oracle_nb_bmulti, oracle_pareto)
from .sampling import default_trials, derive_rng

__all__ = ["TrialReport", "estimate", "default_trials", "pipeline_equivalence",
           "instance_digest"]


def instance_digest(G: Hypergraph) -> str:
    return hashlib.sha256(save_instance(G)).hexdigest()[:16]


@dataclass
class TrialReport:
    """Outcome of a Monte-Carlo floor check for one (algorithm, instance)."""

    algorithm: str
    instance_digest: str
    trials: int
    successes: int
    floor: Fraction
    seed: int
    note: str = ""
    optima: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def frequency(self) -> float:
        return self.successes / self.trials

    @property
    def sigma(self) -> float:
        q = float(self.floor)
        return math.sqrt(q * (1.0 - q) / self.trials)

    @property
    def z_slack(self) -> float:
        s = self.sigma
        if s == 0.0:
            return math.inf if self.frequency >= float(self.floor) else -math.inf
        return (self.frequency - float(self.floor)) / s

    @property
    def passed(self) -> bool:
        return self.z_slack >= -3.0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "instance": self.instance_digest,
            "trials": self.trials,
            "successes": self.successes,
            "frequency": self.frequency,
            "floor": f"{self.floor.numerator}/{self.floor.denominator}",
            "floor_float": float(self.floor),
            "z_slack": self.z_slack,
            "passed": self.passed,
            "seed": self.seed,
            "optima": self.optima,
            **({"note": self.note} if self.note else {}),
            **self.extra,
        }


def _build_problem(G: Hypergraph, algorithm: str, budgets=None, k=None,
                   sizes=None, weighted_costs=False):
    """Returns (walk, oracle cut set or INFEASIBLE, floor)."""
    if algorithm == "bmulti":
        # one budget per leading cost criterion; raises without any criterion
        t = len(G.costs_by_criterion())
        budgets = exact_ints(budgets, t - 1, "budget")
        walk = bmulti_walk(G, budgets)
        optima = oracle_bmulti(build_catalog(G), budgets)
        if not optima:
            raise InstanceError("no cut satisfies the budgets; no optimum to track")
        return walk, optima, success_floor_edge(G.n, G.rank, G.t_costs)
    if algorithm in ("nb-bmulti-constant", "nb-bmulti-arbitrary"):
        budgets = exact_ints(() if budgets is None else budgets, G.t_weights,
                             "node budget")
        if algorithm == "nb-bmulti-constant":
            walk = nb_constant_walk(G, budgets)
            floor = success_floor_node(G.n, G.rank)
        else:
            walk = nb_arbitrary_walk(G, budgets)
            floor = success_floor_node_arbitrary(G.n)
        result = oracle_nb_bmulti(G, budgets)
        optima = result if result is INFEASIBLE else result[1]
        return walk, optima, floor
    if algorithm == "hmincut":
        walk = hmincut_walk(G)
        _, optima = oracle_min_cut(build_catalog(G))
        return walk, optima, Fraction(1, comb(G.n, 2))
    if algorithm == "kcut":
        sizes = exact_ints(sizes, exact_int(k, "k", 2), "part size", 1)
        walk = kcut_walk(G, k, sizes, weighted_costs)
        result = oracle_kcut(G, k, sizes, weighted_costs=weighted_costs)
        optima = result if result is INFEASIBLE else result[1]
        floor = success_floor_size(G.n, k, sizes) if G.n >= k else Fraction(1)
        return walk, optima, floor
    raise InstanceError(f"unknown algorithm {algorithm!r}")


def _successes(walk, target_masks, seed: int, start: int, count: int) -> int:
    """Trials in [start, start+count) whose cut is one of ``target_masks``."""
    successes = 0
    for idx in range(start, start + count):
        out = walk.run(derive_rng(seed, idx))
        if out is not INFEASIBLE and out[0] in target_masks:
            successes += 1
    return successes


# The walk a pool worker runs: set by ``_adopt_walk`` in each forked worker,
# which inherits the parent's walk instead of rebuilding it.
_worker_walk = None


def _adopt_walk(walk) -> None:
    global _worker_walk
    _worker_walk = walk


def _worker_successes(target_masks, seed: int, start: int, count: int) -> int:
    return _successes(_worker_walk, target_masks, seed, start, count)


def estimate(G: Hypergraph, algorithm: str, *, budgets=None, k=None, sizes=None,
             weighted_costs: bool = False, trials: int | None = None,
             seed: int = 0, fixed_target: Cut | None = None,
             jobs: int = 1) -> TrialReport:
    """Monte-Carlo floor check of one algorithm against the oracle optimum.

    Success means the returned cut lies in the oracle-optimal set (or equals
    ``fixed_target``, which must be oracle-optimal).  When the instance is
    infeasible and the algorithm reports INFEASIBLE, trials count as
    agreement and the report notes the special case.
    """
    exact_int(jobs, "jobs", 1)
    if trials is not None:
        exact_int(trials, "trials", 1)
    walk, optima, floor = _build_problem(G, algorithm, budgets, k, sizes,
                                         weighted_costs)
    if trials is None:
        trials = default_trials(floor)
    digest = instance_digest(G)

    if optima is INFEASIBLE:
        successes = 0
        for idx in range(trials):
            if walk.run(derive_rng(seed, idx)) is INFEASIBLE:
                successes += 1
        return TrialReport(algorithm, digest, trials, successes, Fraction(1),
                           seed, note="instance infeasible; counting INFEASIBLE agreement")

    if fixed_target is not None:
        if fixed_target not in optima:
            raise InstanceError("fixed target is not oracle-optimal")
        targets = {fixed_target}
    else:
        targets = optima
    target_masks = {cut.mask() for cut in targets}

    if jobs > 1:
        chunk = -(-trials // jobs)
        spans = [(s, min(chunk, trials - s)) for s in range(0, trials, chunk)]
        # forked workers inherit the built walk: nothing is re-parsed,
        # rebuilt or pickled but the span arguments
        ctx = get_context("fork")
        with ctx.Pool(min(jobs, len(spans)), initializer=_adopt_walk,
                      initargs=(walk,)) as pool:
            parts = pool.starmap(_worker_successes, [
                (target_masks, seed, s, c) for s, c in spans])
        successes = sum(parts)
    else:
        successes = _successes(walk, target_masks, seed, 0, trials)

    return TrialReport(algorithm, digest, trials, successes, floor, seed,
                       optima=len(optima),
                       extra={"fixed_target": sorted(fixed_target.edge_ids)}
                       if fixed_target else {})


def pipeline_equivalence(G: Hypergraph, seed: int, runs: int,
                         repetitions: int | None = None,
                         verify_repetitions: int | None = None) -> dict:
    """Repeatedly run the enumeration pipelines and compare with the oracle.

    Each run enumerates the budget-optimal collection once and derives the
    pareto set by the randomized dominance filter; the report carries per-run
    exact-match flags against the oracle sets plus aggregate hit counts.
    Misses are reported, never masked.
    """
    exact_int(runs, "runs", 1)
    repetitions = enum_repetition_count(G, repetitions)
    verify_repetitions = verify_repetition_count(G, verify_repetitions)
    catalog = build_catalog(G)
    true_multi = oracle_multiobjective(catalog)
    true_pareto = oracle_pareto(catalog)
    per_run = []
    multi_hits = pareto_hits = 0
    for idx in range(runs):
        collection, pareto = pareto_pipeline(G, derive_rng(seed, idx),
                                             repetitions, verify_repetitions)
        m_ok = collection == true_multi
        p_ok = pareto == true_pareto
        multi_hits += m_ok
        pareto_hits += p_ok
        per_run.append({"run": idx, "multi_exact": m_ok, "pareto_exact": p_ok,
                        "enumerated": len(collection), "pareto": len(pareto)})
    return {
        "instance": instance_digest(G),
        "seed": seed,
        "runs": runs,
        "multi_exact_runs": multi_hits,
        "pareto_exact_runs": pareto_hits,
        "oracle_multi": len(true_multi),
        "oracle_pareto": len(true_pareto),
        "per_run": per_run,
    }
