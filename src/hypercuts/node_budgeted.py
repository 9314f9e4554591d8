"""Node-weighted budget variants of random-contraction min-cut.

The constant-rank solver interleaves cost-proportional uniform contractions
with a deterministic step merging all budget-violating vertices into one.
The arbitrary-rank solver replaces uniform contraction with the non-uniform
weights alpha_e = |U \\ e|/|U| * c(e) over the set U of feasible vertices and
delegates to the plain non-uniform min-cut solver (beta_e weights) once U as
a whole fits the budgets.  The enumeration variant moves all randomness into
a single cost-weighted permutation plus a sweep over contraction stopping
points and weight thresholds.

Costs are the hypergraph's first cost criterion and weights its vertex
weight criteria, both read from the hypergraph itself.  INFEASIBLE is a
distinguished outcome (no vertex satisfies the budgets), not an error.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from math import comb

from ._engine import (Walk, contract_comps, delta_mask, ids_mask,
                      initial_comps, mask_sum, present_edge_ids, sample_node,
                      side_mask)
from .hypergraph import Cut, Hypergraph, InstanceError, INFEASIBLE, exact_ints
from .sampling import BestOf, LazyWeightedOrder, best_of_n, default_trials

__all__ = [
    "nb_constant_walk",
    "nb_arbitrary_walk",
    "hmincut_walk",
    "nb_multi_enum_constant_rank",
    "solve_nb_bmulti",
    "solve_hmincut",
    "success_floor_node",
    "success_floor_node_arbitrary",
]


def _weights_and_budgets(G: Hypergraph, budgets):
    """G's weight columns and one validated budget per column."""
    weights = G.weights_by_criterion()
    return weights, exact_ints(budgets, len(weights), "node budget")


def _fits(weights, budgets, mask: int) -> bool:
    return all(mask_sum(wcol, mask) <= b for wcol, b in zip(weights, budgets))


def _contract_infeasible(comps, weights, budgets):
    """(comps with its budget-violating components merged into one, the
    feasible components); ``comps`` itself when at most one violates."""
    feasible = []
    bad_mask = 0
    for c in comps:
        if _fits(weights, budgets, c):
            feasible.append(c)
        else:
            bad_mask |= c
    if len(feasible) < len(comps) - 1:
        comps = contract_comps(comps, bad_mask)
    return comps, feasible


def _min_cut_walk(G: Hypergraph, cost) -> Walk:
    """Non-uniform contraction weights (|V|-|e|)/|V| * c(e).

    When every weight is zero each remaining edge spans all components, so
    the full present edge set is the unique cut and is returned.
    """
    masks = G.edge_masks

    def expand(comps):
        present = present_edge_ids(masks, comps)
        live = len(comps)
        node = sample_node(present, [
            (live - sum(1 for c in comps if c & masks[eid])) * cost[eid]
            for eid in present])
        return node or ("terminal", (ids_mask(present), True))

    return Walk(G, expand, lambda mask: mask_sum(cost, mask))


def hmincut_walk(G: Hypergraph) -> Walk:
    """The non-uniform contraction min-cut walk as a reusable cached ``Walk``."""
    if G.n < 2:
        raise InstanceError("need at least 2 vertices")
    return _min_cut_walk(G, G.costs_by_criterion()[0])


def solve_hmincut(G: Hypergraph, *, trials: int | None = None,
                  seed: int = 0) -> BestOf:
    """Best of ``trials`` seeded runs of one min-cut walk (default
    ceil(C(n,2) ln n), which misses a fixed min-cut with probability <= 1/n)."""
    walk = hmincut_walk(G)
    if trials is None:
        trials = max(1, math.ceil(comb(G.n, 2) * math.log(G.n)))
    return best_of_n(walk, trials, seed)


def nb_constant_walk(G: Hypergraph, budgets) -> Walk:
    """The constant-rank node-budgeted walk as a reusable cached ``Walk``.

    Budget-violating components are merged first; above rank+1 components a
    cost-proportional contraction follows, at or below it a uniform subset
    is drawn.  An outcome is witnessed when that subset is a proper side
    that fits the budgets, or whose complement does.
    """
    weights, budgets = _weights_and_budgets(G, budgets)
    cost = G.costs_by_criterion()[0]
    masks, full = G.edge_masks, G.full_mask
    base_limit = G.rank + 1

    def outcome(side):
        witnessed = 0 != side != full and (
            _fits(weights, budgets, side) or _fits(weights, budgets, full & ~side))
        return delta_mask(masks, side, full), witnessed

    def expand(comps):
        merged, _ = _contract_infeasible(comps, weights, budgets)
        if merged is not comps:
            return ("merge", merged)
        if len(comps) <= base_limit:
            return ("base", {}, outcome)
        present = present_edge_ids(masks, comps)
        # a zero-cost state terminates via the base case
        return (sample_node(present, [cost[eid] for eid in present])
                or ("base", {}, outcome))

    return Walk(G, expand, lambda mask: mask_sum(cost, mask))


def nb_arbitrary_walk(G: Hypergraph, budgets) -> Walk:
    """The arbitrary-rank node-budgeted walk as a reusable cached ``Walk``.

    Contraction weights are |U \\ e|/|U| * c(e) over the feasible components
    U; once U as a whole fits the budgets the walk continues as the plain
    min-cut walk.  A state without feasible components is INFEASIBLE.
    """
    weights, budgets = _weights_and_budgets(G, budgets)
    cost = G.costs_by_criterion()[0]
    masks, full = G.edge_masks, G.full_mask
    min_cut = _min_cut_walk(G, cost)
    delegate = ("delegate", min_cut)

    def expand(comps):
        merged, feasible = _contract_infeasible(comps, weights, budgets)
        if not feasible:
            return ("terminal", INFEASIBLE)
        if merged is not comps:
            return ("merge", merged)
        present = present_edge_ids(masks, comps)
        node = sample_node(present, [
            (len(feasible) - sum(1 for c in feasible if c & masks[eid]))
            * cost[eid] for eid in present])
        feas_mask = 0
        for c in feasible:
            feas_mask |= c
        set_ok = _fits(weights, budgets, feas_mask)
        if node is None:
            # every edge covers all feasible components
            if set_ok and len(feasible) < len(comps):
                return ("terminal", (delta_mask(masks, feas_mask, full), True))
            return ("terminal", (ids_mask(present), True))
        return delegate if set_ok else node

    return Walk(G, expand, min_cut.value)


def solve_nb_bmulti(G: Hypergraph, budgets, *, rank_mode: str = "constant",
                    trials: int | None = None, seed: int = 0) -> BestOf:
    """Best of ``trials`` seeded runs of one node-budgeted walk.

    ``rank_mode`` picks the constant-rank or the arbitrary-rank walk; the
    cut of least cost among witnessed outcomes is kept.  ``trials`` defaults
    to ``default_trials`` of the walk's success floor.
    """
    if rank_mode == "constant":
        walk = nb_constant_walk(G, budgets)
    elif rank_mode == "arbitrary":
        walk = nb_arbitrary_walk(G, budgets)
    else:
        raise InstanceError(f"unknown rank mode {rank_mode!r}")
    if trials is None:
        trials = default_trials(success_floor_node(G.n, G.rank)
                                if rank_mode == "constant"
                                else success_floor_node_arbitrary(G.n))
    return best_of_n(walk, trials, seed)


def nb_multi_enum_constant_rank(G: Hypergraph, rng: random.Random) -> set[Cut]:
    """Budget-free node-budgeted enumeration (at most r*n^t cuts).

    Draws one cost-weighted permutation of the positive-cost edges, sweeps
    every contraction stopping point n' and every tuple of realized weight
    thresholds, merges the supervertices exceeding some threshold, and emits
    a random cut whenever the merged hypergraph is new and has between 2 and
    rank+1 supervertices.
    """
    weights = G.weights_by_criterion()
    cost = G.costs_by_criterion()[0]
    masks = G.edge_masks
    full = G.full_mask
    r = G.rank
    n = G.n

    support = [e for e in range(G.m) if cost[e] > 0]
    order = LazyWeightedOrder(support, [cost[e] for e in support], rng)
    order.ensure(len(support))

    # States after each effective contraction along the permutation; the
    # walk for threshold n' stops at the first state with <= n' vertices.
    snapshots = [initial_comps(n)]
    comps = snapshots[0]
    for eid in order.prefix:
        em = masks[eid]
        low = em & -em
        for c in comps:
            if c & low:
                if em & ~c:
                    comps = contract_comps(comps, em)
                    snapshots.append(comps)
                break

    def state_for(limit: int):
        for comps in snapshots:
            if len(comps) <= limit:
                return comps
        return snapshots[-1]

    seen: set[tuple] = set()
    out: set[Cut] = set()
    for n_prime in range(2, n + 1):
        comps = state_for(n_prime)
        comp_w = [[mask_sum(wcol, c) for c in comps] for wcol in weights]
        value_sets = [sorted(set(col)) for col in comp_w]
        for thresholds in product(*value_sets):
            victim = 0
            for idx, c in enumerate(comps):
                if any(comp_w[i][idx] > thresholds[i]
                       for i in range(len(weights))):
                    victim |= c
            merged = contract_comps(comps, victim)
            if 1 < len(merged) < r + 2 and merged not in seen:
                seen.add(merged)
                nlive = len(merged)
                while True:
                    bits = rng.getrandbits(nlive)
                    if bits != 0 and bits != (1 << nlive) - 1:
                        break
                out.add(Cut.from_mask(delta_mask(
                    masks, side_mask(merged, bits), full)))
    return out


def success_floor_node(n: int, r: int) -> Fraction:
    """Floor 1/(2^(r+1) C(n,2)) for the constant-rank node-budgeted walk."""
    if n < 2:
        raise InstanceError("need n >= 2")
    return Fraction(1, (2 ** (r + 1)) * comb(n, 2))


def success_floor_node_arbitrary(n: int) -> Fraction:
    """Floor for the arbitrary-rank walk: 1 at n=2, else (1/3)/C(n-1,2)."""
    if n < 2:
        raise InstanceError("need n >= 2")
    if n == 2:
        return Fraction(1)
    return Fraction(1, 3) / comb(n - 1, 2)
