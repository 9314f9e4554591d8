"""Best-of-N solving and Monte-Carlo estimation over one problem table.

``PROBLEMS`` maps each randomized algorithm to its walk and its exhaustive
oracle.  The module owns both seeded trial loops: ``best_of_n`` (behind
``solve``) keeps the best of N seeded runs of the walk; ``estimate`` runs it
many times against the oracle and reports the empirical hit frequency of
the oracle-optimal set next to the algorithm's proven probability floor.
The pass policy is one-sided: the floors are lower bounds, so a run passes
when the empirical frequency is no more than three binomial standard
deviations below the floor.  That rule is decided in exact rationals; the
float ``z_slack`` is only reported.

Reports are reproducible: trial i uses a generator derived from
(master seed, i), so results are independent of execution order and of the
number of worker processes.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context

from .hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE, exact_int,
                         save_instance)
from .multiobjective import (bmulti_walk, enum_repetition_count,
                             pareto_pipeline, verify_repetition_count)
from .node_budgeted import hmincut_walk, nb_arbitrary_walk, nb_constant_walk
from .size_constrained import kcut_walk
from .oracle import (build_catalog, oracle_bmulti, oracle_kcut, oracle_min_cut,
                     oracle_multiobjective, oracle_nb_bmulti, oracle_pareto)
from .sampling import derive_rng, trial_rngs

__all__ = ["PROBLEMS", "TrialReport", "BestOf", "solve", "best_of_n",
           "estimate", "default_trials", "pipeline_equivalence",
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
    fixed_target: Cut | None = None

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
        """z >= -3, decided exactly: f >= p, or (p - f)^2 * trials is at
        most 9 p (1 - p).  The float ``z_slack`` is for display."""
        p, f = self.floor, Fraction(self.successes, self.trials)
        return f >= p or (p - f) ** 2 * self.trials <= 9 * p * (1 - p)

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
            **({"fixed_target": list(self.fixed_target.edge_ids)}
               if self.fixed_target is not None else {}),
        }


def _cuts(result):
    """The optimal cut set of an oracle's (value, cuts), or INFEASIBLE."""
    return result if result is INFEASIBLE else result[1]


# algorithm -> (walk factory, oracle: the optimal cut set or INFEASIBLE,
# solve's default trial count or None for default_trials(walk.floor)), all
# callables of (G, **params).  Each looks up this module's names when
# called, so a hook on, say, ``harness.oracle_kcut`` sees every call.
PROBLEMS = {
    "bmulti": (lambda G, budgets=None: bmulti_walk(G, budgets),
               lambda G, budgets=None: oracle_bmulti(build_catalog(G),
                                                     budgets), None),
    "nb-bmulti-constant": (
        lambda G, budgets=(): nb_constant_walk(G, budgets),
        lambda G, budgets=(): _cuts(oracle_nb_bmulti(G, budgets)), None),
    "nb-bmulti-arbitrary": (
        lambda G, budgets=(): nb_arbitrary_walk(G, budgets),
        lambda G, budgets=(): _cuts(oracle_nb_bmulti(G, budgets)), None),
    # ceil(C(n,2) ln n) runs miss a fixed min-cut with probability <= 1/n
    "hmincut": (lambda G: hmincut_walk(G),
                lambda G: oracle_min_cut(build_catalog(G))[1],
                lambda G: math.ceil(math.comb(G.n, 2) * math.log(G.n))),
    "kcut": (lambda G, k=None, sizes=None, weighted_costs=False:
             kcut_walk(G, k, sizes, weighted_costs),
             lambda G, **params: _cuts(oracle_kcut(G, **params)), None),
}


def _problem(algorithm: str) -> tuple:
    if algorithm not in PROBLEMS:
        raise InstanceError(f"unknown algorithm {algorithm!r}")
    return PROBLEMS[algorithm]


def default_trials(floor: Fraction) -> int:
    """max(1000, ceil(30/floor)): at least 30 successes expected at the floor.

    ``floor`` is exact, a Fraction or an int; a float raises InstanceError.
    """
    if not isinstance(floor, Fraction):
        exact_int(floor, "floor")
    if floor <= 0:
        raise InstanceError("floor must be positive")
    return max(1000, math.ceil(30 / floor))


@dataclass(frozen=True)
class BestOf:
    """Cheapest cut found by ``trials`` seeded runs of a walk.

    ``cut`` and ``value`` are None when no run produced an acceptable cut;
    ``infeasible_runs`` counts the runs that returned INFEASIBLE.
    """

    cut: Cut | None
    value: int | None
    trials: int
    infeasible_runs: int


def best_of_n(walk, trials: int | None, seed: int) -> BestOf:
    """Run ``walk`` on trials 0..trials-1 of ``seed``; keep the least value.

    ``trials`` defaults to ``default_trials(walk.floor)``.  Only witnessed
    outcomes count, valued by ``walk.value(mask)`` (None rejects a cut).
    Ties keep the earliest trial, so each distinct mask is valued once.
    """
    if trials is None:
        trials = default_trials(walk.floor)
    exact_int(trials, "trials", 1)
    exact_int(seed, "seed")
    value = walk.value
    best_mask = best_val = None
    infeasible_runs = 0
    seen = set()
    for out in walk.runs(trial_rngs(seed, 0, trials)):
        if out is INFEASIBLE:
            infeasible_runs += 1
            continue
        mask, witnessed = out
        if not witnessed or mask in seen:
            continue
        seen.add(mask)
        val = value(mask)
        if val is not None and (best_val is None or val < best_val):
            best_val, best_mask = val, mask
    cut = None if best_mask is None else Cut.from_mask(best_mask)
    return BestOf(cut, best_val, trials, infeasible_runs)


def solve(G: Hypergraph, algorithm: str, *, trials: int | None = None,
          seed: int = 0, **params) -> BestOf:
    """Best of ``trials`` seeded runs of ``algorithm``'s walk on ``G`` (see
    ``best_of_n``, whose default applies when the row has no count)."""
    make_walk, _, default = _problem(algorithm)
    walk = make_walk(G, **params)
    if trials is None and default is not None:
        trials = default(G)
    return best_of_n(walk, trials, seed)


def _successes(walk, target_masks, seed: int, start: int, count: int) -> int:
    """Trials in [start, start+count) whose outcome is a success: a cut in
    ``target_masks``, or no witnessed cut when ``target_masks`` is None (an
    infeasible instance: INFEASIBLE, or a cut its constraints reject)."""
    outs = walk.runs(trial_rngs(seed, start, count))
    if target_masks is None:
        return sum(1 for out in outs if out is INFEASIBLE or not out[1])
    return sum(1 for out in outs
               if out is not INFEASIBLE and out[0] in target_masks)


# What a pool worker works on (a walk, or a pipeline's fixed arguments): set
# by ``_adopt`` in each forked worker, which inherits it from the parent
# instead of rebuilding it.
_worker_state = None


def _adopt(state) -> None:
    global _worker_state
    _worker_state = state


def _call_adopted(fn, *args):
    return fn(_worker_state, *args)


def _usable_cpus() -> int:
    """The CPUs this process may run on: a pool needs no more workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn, state, calls, workers: int) -> list:
    """``[fn(state, *args) for args in calls]`` in order, over ``workers``
    forked processes: each inherits ``state``, so only ``calls`` are
    pickled.  A single worker runs the calls in this process."""
    if workers == 1:
        return [fn(state, *args) for args in calls]
    with get_context("fork").Pool(workers, initializer=_adopt,
                                  initargs=(state,)) as pool:
        return pool.starmap(_call_adopted, [(fn, *args) for args in calls])


def estimate(G: Hypergraph, algorithm: str, *, trials: int | None = None,
             seed: int = 0, fixed_target: Cut | None = None, jobs: int = 1,
             **params) -> TrialReport:
    """Monte-Carlo floor check of one algorithm against the oracle optimum.

    Success means the returned cut lies in the oracle-optimal set (or equals
    ``fixed_target``, which must be oracle-optimal).  When the instance is
    infeasible, a trial succeeds when it witnesses no cut, and the report
    notes the special case.  ``params`` go to ``algorithm``'s row in
    ``PROBLEMS``.
    """
    exact_int(seed, "seed")
    exact_int(jobs, "jobs", 1)
    if trials is not None:
        exact_int(trials, "trials", 1)
    make_walk, oracle, _ = _problem(algorithm)
    # the walk and the oracle each read the parameters
    params = {name: tuple(value) if isinstance(value, Iterator) else value
              for name, value in params.items()}
    walk = make_walk(G, **params)
    optima = oracle(G, **params)
    if optima is not INFEASIBLE and not optima:
        raise InstanceError("no cut satisfies the budgets; no optimum to track")
    if trials is None:
        trials = default_trials(walk.floor)
    digest = instance_digest(G)

    if fixed_target is not None:
        G.cut_ids(fixed_target)  # edges of G, in canonical form
        if optima is INFEASIBLE or fixed_target not in optima:
            raise InstanceError("fixed target is not oracle-optimal")
    if optima is INFEASIBLE:
        target_masks = None
    else:
        targets = optima if fixed_target is None else {fixed_target}
        target_masks = {cut.mask() for cut in targets}

    workers = min(jobs, trials, _usable_cpus())
    chunk = -(-trials // workers)
    spans = [(target_masks, seed, s, min(chunk, trials - s))
             for s in range(0, trials, chunk)]
    successes = sum(_fork_map(_successes, walk, spans, len(spans)))

    if optima is INFEASIBLE:
        return TrialReport(algorithm, digest, trials, successes, Fraction(1),
                           seed, note="instance infeasible; counting trials "
                           "that witness no cut")
    return TrialReport(algorithm, digest, trials, successes, walk.floor, seed,
                       optima=len(optima), fixed_target=fixed_target)


def _pipeline_run(state, idx: int) -> dict:
    """Run ``idx`` of a pipeline check: its row of ``per_run``."""
    G, seed, repetitions, verify_repetitions, true_multi, true_pareto = state
    collection, pareto = pareto_pipeline(G, derive_rng(seed, idx),
                                         repetitions, verify_repetitions)
    return {"run": idx, "multi_exact": collection == true_multi,
            "pareto_exact": pareto == true_pareto,
            "enumerated": len(collection), "pareto": len(pareto)}


def pipeline_equivalence(G: Hypergraph, seed: int, runs: int,
                         repetitions: int | None = None,
                         verify_repetitions: int | None = None,
                         jobs: int = 1) -> dict:
    """Repeatedly run the enumeration pipelines and compare with the oracle.

    Each run enumerates the budget-optimal collection once and takes the
    pareto set as its dominance front, which a given ``verify_repetitions``
    count also passes through the randomized dominance check (see
    ``pareto_pipeline``); the report carries per-run exact-match flags
    against the oracle sets plus aggregate hit counts.
    Misses are reported, never masked.  Run i draws from its own generator,
    so ``jobs`` forked workers share the runs without changing the report.
    """
    exact_int(seed, "seed")
    exact_int(runs, "runs", 1)
    exact_int(jobs, "jobs", 1)
    repetitions = enum_repetition_count(G, repetitions)
    if verify_repetitions is not None:
        verify_repetitions = verify_repetition_count(G, verify_repetitions)
    catalog = build_catalog(G)
    true_multi = oracle_multiobjective(catalog)
    true_pareto = oracle_pareto(catalog)
    state = (G, seed, repetitions, verify_repetitions, true_multi, true_pareto)
    per_run = _fork_map(_pipeline_run, state, [(idx,) for idx in range(runs)],
                        min(jobs, runs, _usable_cpus()))
    return {
        "instance": instance_digest(G),
        "seed": seed,
        "runs": runs,
        "multi_exact_runs": sum(row["multi_exact"] for row in per_run),
        "pareto_exact_runs": sum(row["pareto_exact"] for row in per_run),
        "oracle_multi": len(true_multi),
        "oracle_pareto": len(true_pareto),
        "per_run": per_run,
    }
