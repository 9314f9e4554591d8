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

import random
from fractions import Fraction
from itertools import product
from math import comb

from ._engine import (Walk, contract_comps, contraction, delta_mask, ids_mask,
                      inherit_counts, inherit_present, initial_comps,
                      mask_sum, packer, present_counts, present_edge_ids,
                      realign, sample_node, side_mask)
from .hypergraph import Cut, Hypergraph, InstanceError, INFEASIBLE, exact_ints
from .sampling import DrawNode, LazyWeightedOrder, never_keep

__all__ = [
    "nb_constant_walk",
    "nb_arbitrary_walk",
    "hmincut_walk",
    "nb_multi_enum_constant_rank",
    "success_floor_node",
    "success_floor_node_arbitrary",
]


def _weights_and_budgets(G: Hypergraph, budgets):
    """G's weight columns and one validated budget per column."""
    weights = G.weights_by_criterion()
    return weights, exact_ints(budgets, len(weights), "node budget")


def _fits(weights, budgets, mask: int) -> bool:
    return all(mask_sum(wcol, mask) <= b for wcol, b in zip(weights, budgets))


def _fit_flags(weights, budgets, comps, parent):
    """``(fits, i)``: one byte per component of ``comps``, 1 when it fits
    the budgets, and the index of the component that the step from
    ``parent`` merged (None without a parent).  With a parent only that
    component is weighed; the others keep the flags the parent's sample node
    holds as its first ``inherit`` item."""
    if parent is None:
        return bytes([_fits(weights, budgets, c) for c in comps]), None
    prev, prev_comps = parent
    i, M, _ = contraction(comps, prev_comps)
    return bytes(realign(prev_comps, prev[5][0], i, M,
                         _fits(weights, budgets, M))), i


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


def _min_cut_walk(G: Hypergraph, cost) -> Walk:
    """Non-uniform contraction weights (|V|-|e|)/|V| * c(e).

    When every weight is zero each remaining edge spans all components, so
    the full present edge set is the unique cut and is returned.  Its floor
    is 1/C(n,2); the caller rejects n < 2.  A sample node inherits the
    number of components each present edge meets.
    """
    masks = G.edge_masks
    pack = packer(G.rank)

    def expand(comps, parent=None):
        present, counts = present_counts(masks, comps, parent)
        live = len(comps)
        node = sample_node(present, [(live - k) * cost[eid]
                                     for eid, k in zip(present, counts)],
                           pack(counts))
        return node or ("terminal", (ids_mask(present), True))

    return Walk(G, expand, lambda mask: mask_sum(cost, mask),
                Fraction(1, comb(G.n, 2)))


def hmincut_walk(G: Hypergraph) -> Walk:
    """The non-uniform contraction min-cut walk as a reusable cached ``Walk``."""
    if G.n < 2:
        raise InstanceError("need at least 2 vertices")
    return _min_cut_walk(G, G.costs_by_criterion()[0])


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

    def expand(comps, parent=None):
        fits, i = _fit_flags(weights, budgets, comps, parent)
        merged, _ = _contract_infeasible(comps, fits)
        if merged is not comps:
            return ("merge", merged)
        if len(comps) <= base_limit:
            return ("base", {}, outcome)
        if parent is None:
            present = present_edge_ids(masks, comps)
        else:
            present = inherit_present(masks, parent[0][3], comps[i])
        # a zero-cost state terminates via the base case
        return (sample_node(present, [cost[eid] for eid in present], (fits,))
                or ("base", {}, outcome))

    return Walk(G, expand, lambda mask: mask_sum(cost, mask),
                success_floor_node(G.n, G.rank))


def nb_arbitrary_walk(G: Hypergraph, budgets) -> Walk:
    """The arbitrary-rank node-budgeted walk as a reusable cached ``Walk``.

    Contraction weights are |U \\ e|/|U| * c(e) over the feasible components
    U; once U as a whole fits the budgets the walk continues as the plain
    min-cut walk.  A state without feasible components is INFEASIBLE.
    """
    weights, budgets = _weights_and_budgets(G, budgets)
    cost = G.costs_by_criterion()[0]
    masks, full = G.edge_masks, G.full_mask
    floor = success_floor_node_arbitrary(G.n)
    min_cut = _min_cut_walk(G, cost)
    delegate = ("delegate", min_cut)
    pack = packer(G.rank)  # per present edge, the feasible components it meets

    def expand(comps, parent=None):
        fits, i = _fit_flags(weights, budgets, comps, parent)
        merged, feasible = _contract_infeasible(comps, fits)
        if not feasible:
            return ("terminal", INFEASIBLE)
        if merged is not comps:
            return ("merge", merged)
        if parent is None:
            present = present_edge_ids(masks, comps)
            counts = [sum(1 for c in feasible if c & masks[eid])
                      for eid in present]
        else:
            # the counts cover the feasible components only
            prev, prev_comps = parent
            M = comps[i]
            lost = [c for c, ok in zip(prev_comps, prev[5][0])
                    if ok and c & M]
            present, counts = inherit_counts(masks, prev[3], prev[5][1], M,
                                             lost, fits[i])
        live = len(feasible)
        node = sample_node(present, [(live - k) * cost[eid]
                                     for eid, k in zip(present, counts)],
                           (fits, pack(counts)))
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

    return Walk(G, expand, min_cut.value, floor)


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
    root = DrawNode.root(support, [cost[e] for e in support])
    order = LazyWeightedOrder(root, rng, never_keep)
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
