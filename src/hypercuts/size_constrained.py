"""Size-constrained min-k-cut via weight-oblivious non-uniform contraction.

The solver's draws never read vertex weights: it contracts hyperedges with
probability proportional to alpha_e = C(n-|e|, sigma_{k-1}) / C(n, sigma_{k-1})
(optionally scaled by edge cost), keeps a candidate cut R built from a random
partial labelling at every level, and on the way back up returns the level's
candidate with probability 1/n.  The same seed therefore produces identical
output for every choice of positive vertex-weight annotation; a weight
below 1 is rejected up front, as the oracle rejects it.

The walk is an ``_engine.Walk``: each level is a ``level`` node (the
candidate draw plus the alpha-weighted sample node) and the base case is a
``draw`` node, so the engine resolves the candidates on the way back up.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb

from ._engine import (Walk, draw_below, draw_sample, ids_mask, mask_sum,
                      packer, present_counts, sample_node)
from .hypergraph import (Hypergraph, InstanceError, INFEASIBLE, exact_int,
                         exact_ints)

__all__ = [
    "kcut_walk",
    "success_floor_size",
]

# Most labellings whose outcome one walk keeps; past it outcomes are
# computed afresh.
_OUTCOME_CAP = 1 << 16


def _check_sizes(k: int, sizes) -> tuple[int, ...]:
    """The k positive part size bounds, sorted non-decreasing."""
    k = exact_int(k, "k", 2)
    return tuple(sorted(exact_ints(sizes, k, "part size", 1)))


def kcut_walk(G: Hypergraph, k: int, sizes,
              weighted_costs: bool = False) -> Walk:
    """The size-constrained contraction walk as a reusable cached ``Walk``.

    Above max(2*sigma_{k-1}, sigma_k) components every level draws a
    candidate cut and contracts one edge with weight alpha_e times its cost
    (unit without ``weighted_costs``); at or below it a uniform label per
    component gives the base cut.  A level whose weights are all zero stops
    with its candidate.  An outcome is witnessed when it comes from a proper
    k-partition whose sorted part weights meet the sorted size bounds; the
    flag never influences a draw, so outputs stay weight-oblivious.
    Every run is INFEASIBLE when n < k, and the floor is then 1; otherwise
    it is ``success_floor_size(n, k, sizes)``.  Vertex weights (criterion
    0, or unit without weights) must be positive.
    """
    sizes = _check_sizes(k, sizes)
    sigma_lead = sum(sizes[:-1])
    base_limit = max(2 * sigma_lead, sum(sizes))
    masks = G.edge_masks
    cost = G.costs_by_criterion()[0] if weighted_costs else [1] * G.m
    weights = G.weights_by_criterion()
    vertex_w = weights[0] if weights else [1] * G.n
    if any(w < 1 for w in vertex_w):
        raise InstanceError(
            "size-constrained cuts require positive vertex weights")
    pack = packer(G.rank)  # per present edge, the components it meets

    def crossing(label_masks) -> int:
        """Edges meeting at least two label classes (only present ones can)."""
        out = 0
        for eid, em in enumerate(masks):
            for lm in label_masks:
                if em & lm == em:
                    break
            else:
                out |= 1 << eid
        return out

    memo = {}  # outcome per labelling, up to _OUTCOME_CAP of them

    def outcome(label_masks):
        key = tuple(label_masks)
        out = memo.get(key)
        if out is None:
            if 0 in key:
                out = crossing(key), False
            else:
                part_w = sorted(mask_sum(vertex_w, lm) for lm in key)
                out = crossing(key), all(w >= s for w, s in zip(part_w, sizes))
            if len(memo) < _OUTCOME_CAP:
                memo[key] = out
        return out

    def base(comps, rng):
        # uniform independent label per supervertex (k^|V| outcomes)
        label_masks = [0] * k
        for c in comps:
            label_masks[draw_below(rng, k)] |= c
        return outcome(label_masks)

    def settle(alive, label_masks):
        """delta of a partial labelling, or the present edge set ``alive``
        when the labelling leaves a part empty."""
        if 0 in label_masks:
            return alive, False
        return outcome(label_masks)

    def candidate(alive, comps, rng):
        """A random partial labelling, drawn now and settled only if the
        level's candidate survives (settling draws nothing)."""
        chosen = sorted(draw_sample(rng, len(comps), 2 * sigma_lead))
        label_masks = [0] * k
        picked = 0
        for idx in chosen:
            c = comps[idx]
            label_masks[draw_below(rng, k)] |= c
            picked |= c
        # everything outside the sample joins the last part
        label_masks[k - 1] |= G.full_mask & ~picked
        return partial(settle, alive, label_masks)

    def expand(comps, parent=None):
        live = len(comps)
        if live < k:
            # only the start state: a contraction of positive weight
            # leaves at least sigma_{k-1} + 1 >= k components
            return ("terminal", INFEASIBLE)
        if live <= base_limit:
            return ("draw", base)
        present, counts = present_counts(masks, comps, parent)
        draw = partial(candidate, ids_mask(present))
        alpha = [comb(x, sigma_lead) for x in range(live + 1)]
        node = sample_node(present, [alpha[live - c] * cost[eid]
                                     for eid, c in zip(present, counts)],
                           pack(counts))
        if node is None:
            return ("draw", lambda comps, rng: draw(comps, rng)())
        return ("level", draw, node)

    floor = success_floor_size(G.n, k, sizes) if G.n >= k else Fraction(1)
    return Walk(G, expand, lambda mask: mask_sum(cost, mask), floor)


def success_floor_size(n: int, k: int, sizes) -> Fraction:
    """Per-cut success floor: k^-M at or below the base threshold
    M = max(2*sigma_{k-1}, sigma_k), else 1/(k^M * n * C(n, 2*sigma_{k-1}))."""
    sizes = _check_sizes(k, sizes)
    if n < k:
        raise InstanceError("need n >= k")
    sigma_lead = sum(sizes[:-1])
    exponent = max(2 * sigma_lead, sum(sizes))
    if n <= exponent:
        return Fraction(1, k ** exponent)
    return Fraction(1, (k ** exponent) * n * comb(n, 2 * sigma_lead))
