"""Node-weighted budget variants of random-contraction min-cut.

The constant-rank solver interleaves cost-proportional uniform contractions
with a deterministic step merging all budget-violating vertices into one.
The arbitrary-rank solver replaces uniform contraction with the non-uniform
weights alpha_e = |U \\ e|/|U| * c(e) over the set U of feasible vertices.
Once U as a whole fits the budgets the same walk switches to the plain
non-uniform min-cut weights (beta_e), for good: every later U fits too.  So
the min-cut walk is this walk on which every vertex set fits.  The
enumeration variant moves all randomness into a single cost-weighted
permutation: it contracts along it once and sweeps each distinct
contraction state once over every tuple of weight thresholds.

Costs are the hypergraph's first cost criterion and weights its vertex
weight criteria, both read from the hypergraph itself.  INFEASIBLE is a
distinguished outcome (no vertex satisfies the budgets), not an error.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb

from ._engine import (Walk, contract_comps, delta_mask, expansion,
                      initial_comps, mask_sum, sample_node, side_mask,
                      subset_node)
from .hypergraph import Cut, Hypergraph, INFEASIBLE, exact_int, exact_ints
from .sampling import LazyWeightedOrder

__all__ = [
    "nb_inputs",
    "nb_constant_walk",
    "nb_arbitrary_walk",
    "hmincut_walk",
    "nb_multi_enum_constant_rank",
    "success_floor_node",
    "success_floor_node_arbitrary",
]


def nb_inputs(G: Hypergraph, budgets):
    """``(fits, cost)`` of the node-budgeted problem on G: ``fits(mask)``
    tells whether a vertex set fits one validated budget per weight column,
    and ``cost`` is G's first cost column.  The budgets are checked before
    the costs."""
    weights = G.weights_by_criterion()
    budgets = exact_ints(budgets, len(weights), "node budget")
    cost = G.costs_by_criterion()[0]

    def fits(mask: int) -> bool:
        return all(mask_sum(wcol, mask) <= b
                   for wcol, b in zip(weights, budgets))

    return fits, cost


def _contract_infeasible(comps, fits):
    """(comps with its budget-violating components merged into one, the
    feasible components); ``comps`` itself when at most one violates.
    ``fits`` holds one flag per component."""
    feasible = [c for c, ok in zip(comps, fits) if ok]
    if len(feasible) < len(comps) - 1:
        bad_mask = 0
        for c, ok in zip(comps, fits):
            if not ok:
                bad_mask |= c
        comps = contract_comps(comps, bad_mask)
    return comps, feasible


def nb_constant_walk(G: Hypergraph, budgets) -> Walk:
    """The constant-rank node-budgeted walk as a reusable cached ``Walk``.

    Budget-violating components are merged first; above rank+1 components a
    cost-proportional contraction follows, at or below it a uniform subset
    is drawn.  An outcome is witnessed when that subset is a proper side
    that fits the budgets, or whose complement does.
    """
    fits, cost = nb_inputs(G, budgets)
    masks, full = G.edge_masks, G.full_mask
    base_limit = G.rank + 1

    def subset(comps, raws):
        side = side_mask(comps, raws[0])
        witnessed = 0 != side != full and (fits(side) or fits(full & ~side))
        return delta_mask(masks, side, full), witnessed

    def expand(comps, parent=None):
        present, _, flags = expansion(masks, comps, parent,
                                      lambda present, c: fits(c))
        merged, _ = _contract_infeasible(comps, flags)
        if merged is not comps:
            return ("merge", merged)
        # a zero-cost state stops with the base case's subset draw
        return (len(comps) > base_limit
                and sample_node(present, [cost[eid] for eid in present], None,
                                flags)
                or subset_node(comps, subset))

    return Walk(G, expand, lambda mask: mask_sum(cost, mask),
                success_floor_node(G.n, G.rank))


def nb_arbitrary_walk(G: Hypergraph, budgets) -> Walk:
    """The arbitrary-rank node-budgeted walk as a reusable cached ``Walk``.

    While the union U of the feasible components busts the budgets, an edge
    weighs |U \\ e|/|U| * c(e).  Once U fits, the weights are the min-cut
    walk's (|V|-|e|)/|V| * c(e).  That switch is absorbing: a contraction
    either stays inside U or joins the violating component, so every later
    feasible union is a subset of U and fits too.  With no weight left every
    edge of positive cost covers all feasible components, and the walk cuts
    off the first one.  A state without feasible components is INFEASIBLE.
    """
    return _karger_walk(G, *nb_inputs(G, budgets),
                        success_floor_node_arbitrary(G.n))


def hmincut_walk(G: Hypergraph) -> Walk:
    """The non-uniform contraction min-cut walk as a reusable cached ``Walk``.

    It is the arbitrary-rank walk on which every vertex set fits: U is all
    of V, so an edge weighs (|V|-|e|)/|V| * c(e).  When every weight is
    zero each remaining edge of positive cost spans all components, so every
    bipartition of them costs the same and the walk cuts off the first one.
    Its floor is 1/C(n,2).
    """
    exact_int(G.n, "vertex count", 2)
    return _karger_walk(G, None, G.costs_by_criterion()[0],
                        Fraction(1, comb(G.n, 2)))


def _karger_walk(G: Hypergraph, fits, cost, floor: Fraction) -> Walk:
    """The walk of ``nb_arbitrary_walk`` with the vertex sets ``fits``
    accepts as feasible, edge costs ``cost`` and success floor ``floor``.
    ``fits`` None accepts every set, so no state is labelled or merged."""
    masks, full = G.edge_masks, G.full_mask
    label = None if fits is None else (lambda present, c: fits(c))

    def stop(comps, raws):
        """The cut around the first feasible component, or INFEASIBLE."""
        for c in comps:
            if fits is None or fits(c):
                return delta_mask(masks, c, full), True
        return INFEASIBLE

    def expand(comps, parent=None):
        present, counts, flags = expansion(masks, comps, parent, label,
                                           count=True)
        live, bad = len(comps), 0
        if fits is not None:
            merged, feasible = _contract_infeasible(comps, flags)
            if not feasible:
                return ("draw", (), {}, stop)
            if merged is not comps:
                return ("merge", merged)
            feas_mask = 0
            for c in feasible:
                feas_mask |= c
            # k counts the violating component too (at most one is left);
            # once U fits, live counts it as well and the min-cut weights
            # apply
            if not fits(feas_mask):
                live, bad = len(feasible), ~feas_mask
        if bad:
            weights = [(live - k + bool(masks[eid] & bad)) * cost[eid]
                       for eid, k in zip(present, counts)]
        else:
            weights = [(live - k) * cost[eid]
                       for eid, k in zip(present, counts)]
        return (sample_node(present, weights, counts, flags)
                or ("draw", (), {}, stop))

    return Walk(G, expand, lambda mask: mask_sum(cost, mask), floor)


def nb_multi_enum_constant_rank(G: Hypergraph, rng: random.Random) -> set[Cut]:
    """Budget-free node-budgeted enumeration (at most r*n^t cuts).

    Draws one cost-weighted permutation of the positive-cost edges and
    contracts along it once, keeping each distinct state.  The walk for a
    stopping point n' ends in the first state with at most n' vertices, so
    sweeping each state once, from the last back, meets them in the order
    of n' = 2..n.  For every tuple of realized weight thresholds it merges
    the supervertices exceeding some threshold, and emits a random cut
    whenever the merged hypergraph is new and has between 2 and rank+1
    supervertices.
    """
    weights = G.weights_by_criterion()
    cost = G.costs_by_criterion()[0]
    masks = G.edge_masks
    full = G.full_mask
    r = G.rank

    support = [e for e in range(G.m) if cost[e] > 0]
    order = LazyWeightedOrder(support, [cost[e] for e in support], rng)
    order.ensure(len(support))
    states = [initial_comps(G.n)]
    for eid in order.prefix:
        nxt = contract_comps(states[-1], masks[eid])
        if len(nxt) < len(states[-1]):
            states.append(nxt)

    seen: set[tuple] = set()
    out: set[Cut] = set()
    for comps in reversed(states):
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
    exact_int(n, "n", 2)
    exact_int(r, "r", 2)
    return Fraction(1, (2 ** (r + 1)) * comb(n, 2))


def success_floor_node_arbitrary(n: int) -> Fraction:
    """Floor for the arbitrary-rank walk: 1 at n=2, else (1/3)/C(n-1,2)."""
    if exact_int(n, "n", 2) == 2:
        return Fraction(1)
    return Fraction(1, 3) / comb(n - 1, 2)
