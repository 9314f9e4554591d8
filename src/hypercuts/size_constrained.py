"""Size-constrained min-k-cut via weight-oblivious non-uniform contraction.

The solver's draws never read vertex weights: it contracts hyperedges with
probability proportional to alpha_e = C(n-|e|, sigma_{k-1}) / C(n, sigma_{k-1})
(optionally scaled by edge cost), keeps a candidate cut R built from a random
partial labelling at every level, and on the way back up returns the level's
candidate with probability 1/n.  The same seed therefore produces identical
output for every choice of positive vertex-weight annotation; a weight
below 1 is rejected up front, as the oracle rejects it.

The walk is an ``_engine.Walk`` whose ``level`` and ``draw`` nodes carry
their draws as data: a level's candidate is the 2*sigma_{k-1} picks of a
partial Fisher-Yates shuffle of its components and a label per pick, the
base case a label per component.  The engine decodes only the labelling
that survives on the way back up, or the draw the walk stopped at: one pass
over the picks gives its k label masks, whose outcome is memoised by the
masks through ``Walk.keep``, within the walk's ``_CACHE_SLOTS`` budget.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb
from weakref import proxy

from ._engine import Walk, expansion, ids_mask, mask_sum, sample_node
from .hypergraph import (Hypergraph, InstanceError, INFEASIBLE, exact_bool,
                         exact_int, exact_ints)

__all__ = [
    "kcut_inputs",
    "kcut_walk",
    "success_floor_size",
]


def _check_sizes(k: int, sizes) -> tuple[int, ...]:
    """The k positive part size bounds, sorted non-decreasing."""
    k = exact_int(k, "k", 2)
    return tuple(sorted(exact_ints(sizes, k, "part size", 1)))


def kcut_inputs(G: Hypergraph, k: int, sizes, weighted_costs: bool = False):
    """``(sizes, cost, weights)`` of the size-constrained problem on G, read
    and checked in this order: the k positive part size bounds sorted
    non-decreasing, the edge cost column (criterion 0, or unit without
    ``weighted_costs``) and the vertex weight column (criterion 0, or unit
    without weights), which must be positive."""
    sizes = _check_sizes(k, sizes)
    cost = (G.costs_by_criterion()[0]
            if exact_bool(weighted_costs, "weighted_costs") else [1] * G.m)
    weights = G.weights_by_criterion()
    vertex_w = weights[0] if weights else [1] * G.n
    if any(w < 1 for w in vertex_w):
        raise InstanceError(
            "size-constrained cuts require positive vertex weights")
    return sizes, cost, vertex_w


def _picks(raws, live: int, size: int):
    """``(component index, label)`` per pick of a level's draws ``raws``:
    the ``size`` components that the pool picks ``raws[:size]`` (bounds
    live, live-1, ...) take by a partial Fisher-Yates shuffle of
    ``range(live)``, sorted, zipped with the labels ``raws[size:]``.  Each
    size-subset comes from size! equally likely pick sequences, the law of
    ``rng.sample(range(live), size)``."""
    pool = list(range(live))
    chosen = []
    for i, j in zip(range(live, 0, -1), raws[:size]):
        chosen.append(pool[j])
        pool[j] = pool[i - 1]
    return zip(sorted(chosen), raws[size:])


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
    it is ``success_floor_size(n, k, sizes)``.  The inputs are read by
    ``kcut_inputs``.
    """
    sizes, cost, vertex_w = kcut_inputs(G, k, sizes, weighted_costs)
    sigma_lead = sum(sizes[:-1])
    base_limit = max(2 * sigma_lead, sum(sizes))
    sample_size, label_bits = 2 * sigma_lead, k.bit_length()
    masks = G.edge_masks

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

    full = G.full_mask
    memo = {}  # outcome per labelling

    def outcome(key):
        """The outcome of the label masks ``key``; a part left empty makes
        the crossing edges an unwitnessed cut."""
        out = memo.get(key)
        if out is None:
            if 0 in key:
                out = crossing(key), False
            else:
                part_w = sorted(mask_sum(vertex_w, lm) for lm in key)
                out = crossing(key), all(w >= s for w, s in zip(part_w, sizes))
            owner.keep(memo, key, out)
        return out

    def labelled(comps, raws):
        """The outcome of label ``raws[i]`` on each component comps[i]."""
        label_masks = [0] * k
        for c, lab in zip(comps, raws):
            label_masks[lab] |= c
        return outcome(tuple(label_masks))

    def settle(alive, comps, raws):
        """The outcome of a level's candidate drawn as ``raws``: the sample
        takes its labels and every other component k-1.  A part left empty
        settles to the present edge set ``alive``, before any memo is
        read: a base draw memoises such a labelling as its crossing edges."""
        label_masks = [0] * k
        picked = 0
        for idx, lab in _picks(raws, len(comps), sample_size):
            c = comps[idx]
            label_masks[lab] |= c
            picked |= c
        label_masks[k - 1] |= full & ~picked
        if 0 in label_masks:
            return alive, False
        return outcome(tuple(label_masks))

    def level_draws(live):
        """The ``sample_size`` pool picks of ``_picks`` (bounds live,
        live-1, ...), then a label per pick."""
        picks = [(i, i.bit_length())
                 for i in range(live, live - sample_size, -1)]
        return picks + [(k, label_bits)] * sample_size

    # each state's draws by its live component count: a label per component
    # at or below base_limit, a level's candidate above it
    draws = [[(k, label_bits)] * live if live <= base_limit
             else level_draws(live) for live in range(G.n + 1)]
    # C(x, sigma_{k-1}) for x <= n, an edge's weight by its live - |e|
    alpha = [comb(x, sigma_lead) for x in range(G.n + 1)]

    def expand(comps, parent=None):
        live = len(comps)
        if live < k:
            # only the start state: a contraction of positive weight
            # leaves at least sigma_{k-1} + 1 >= k components
            return ("draw", (), {}, lambda comps, raws: INFEASIBLE)
        decode = labelled  # a uniform label per component (k^live outcomes)
        if live > base_limit:
            present, counts, _ = expansion(masks, comps, parent, count=True)
            decode = partial(settle, ids_mask(present))
            node = sample_node(present, [alpha[live - c] * cost[eid]
                                         for eid, c in zip(present, counts)],
                               counts)
            if node is not None:
                return ("level", draws[live], node, decode)
        return ("draw", draws[live], {}, decode)

    floor = success_floor_size(G.n, k, sizes) if G.n >= k else Fraction(1)
    walk = Walk(G, expand, lambda mask: mask_sum(cost, mask), floor)
    owner = proxy(walk)  # weak, so no cycle keeps a dropped walk alive
    return walk


def success_floor_size(n: int, k: int, sizes) -> Fraction:
    """Per-cut success floor: k^-M at or below the base threshold
    M = max(2*sigma_{k-1}, sigma_k), else 1/(k^M * n * C(n, 2*sigma_{k-1}))."""
    sizes = _check_sizes(k, sizes)
    exact_int(n, "n", k)
    sigma_lead = sum(sizes[:-1])
    exponent = max(2 * sigma_lead, sum(sizes))
    if n <= exponent:
        return Fraction(1, k ** exponent)
    return Fraction(1, (k ** exponent) * n * comb(n, 2 * sigma_lead))
