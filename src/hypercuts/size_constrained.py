"""Size-constrained min-k-cut via weight-oblivious non-uniform contraction.

The solver never reads vertex weights: it contracts hyperedges with
probability proportional to alpha_e = C(n-|e|, sigma_{k-1}) / C(n, sigma_{k-1})
(optionally scaled by edge cost), keeps a candidate cut R built from a random
partial labelling at every level, and on the way back up returns the level's
candidate with probability 1/n.  The same seed therefore produces identical
output for every choice of vertex-weight annotation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from ._engine import (ids_mask, initial_comps, mask_sum, present_edge_ids,
                      sample_node, sample_step)
from .hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE, exact_int,
                         exact_ints)
from .sampling import best_of_n, default_trials

__all__ = [
    "alpha_size",
    "kcut_walk",
    "size_constrained_min_k_cut",
    "solve_kcut",
    "success_floor_size",
    "multi_weight_reduction",
]


def _check_sizes(k: int, sizes) -> tuple[int, ...]:
    """The k positive part size bounds, sorted non-decreasing."""
    k = exact_int(k, "k", 2)
    return tuple(sorted(exact_ints(sizes, k, "part size", 1)))


def alpha_size(n: int, edge_size: int, sigma: int) -> Fraction:
    """Contraction weight C(n-|e|, sigma) / C(n, sigma), exactly.

    Zero iff fewer than sigma vertices remain outside the edge.
    """
    if n < 2 or not 2 <= edge_size <= n or sigma < 1:
        raise InstanceError("need n >= 2, 2 <= edge_size <= n, sigma >= 1")
    return Fraction(comb(n - edge_size, sigma), comb(n, sigma))


class _KCutWalker:
    """Repeat-friendly sampler for the size-constrained contraction walk.

    ``run`` returns (cut mask, witnessed) where ``witnessed`` records whether
    the returned value came from a proper k-partition whose part weights meet
    the size bounds.  The flag is derived after the fact and never influences
    a random draw, so outputs stay weight-oblivious; callers picking a best
    of many runs use it to ignore artifacts of improper label draws.  The
    walk keeps its own level loop (a candidate per level, returned on the way
    back up with probability 1/live) and shares the engine's sample step.
    """

    def __init__(self, G: Hypergraph, k: int, sizes, weighted_costs: bool):
        self.k = k
        self.sizes = sizes
        self.sigma_lead = sum(sizes[:-1])
        self.base_limit = max(2 * self.sigma_lead, sum(sizes))
        self.masks = G.edge_masks
        self.cost = G.costs_by_criterion()[0] if weighted_costs else [1] * G.m
        weights = G.weights_by_criterion()
        self.vertex_w = weights[0] if weights else [1] * G.n
        self.start = initial_comps(G.n)
        self.cache: dict[tuple, tuple] = {}

    def run(self, rng: random.Random):
        """One walk; INFEASIBLE when n < k (no k-partition exists)."""
        if len(self.start) < self.k:
            return INFEASIBLE
        comps = self.start
        cache = self.cache
        pending: list[tuple[tuple[int, bool], int]] = []  # (candidate, live)
        while True:
            node = cache.get(comps)
            if node is None:
                node = cache[comps] = self.expand(comps)
            if node[0] == "base":
                result = self._base_cut(comps, rng)
                break
            candidate = self._level_candidate(comps, node[-1], rng)
            if node[0] == "terminal":
                result = candidate
                break
            pending.append((candidate, len(comps)))
            comps = sample_step(node, comps, self.masks, rng)
        for candidate, live in reversed(pending):
            if rng.randrange(live) == 0:
                result = candidate
        return result

    def expand(self, comps):
        """Node of ``comps``; its last field is the present-edge bitmask.

        A sample node carries the alpha numerators over the common
        denominator C(live, sigma); a terminal node marks a level whose
        weights are all zero, where the level's candidate is returned.
        """
        live = len(comps)
        masks = self.masks
        present = present_edge_ids(masks, comps)
        alive = ids_mask(present)
        if live <= self.base_limit:
            return ("base", alive)
        node = sample_node(present, [
            comb(live - sum(1 for c in comps if c & masks[eid]),
                 self.sigma_lead) * self.cost[eid] for eid in present])
        return ("terminal", alive) if node is None else node + (alive,)

    def value(self, mask: int) -> int:
        """Edge count of a cut, or its criterion-0 cost with weighted costs."""
        return mask_sum(self.cost, mask)

    def _witnessed(self, label_masks) -> bool:
        """Proper k-partition whose sorted part weights meet the sorted bounds."""
        if any(m == 0 for m in label_masks):
            return False
        part_w = sorted(mask_sum(self.vertex_w, lm) for lm in label_masks)
        return all(w >= s for w, s in zip(part_w, self.sizes))

    def _base_cut(self, comps, rng) -> tuple[int, bool]:
        # uniform independent label per supervertex (k^|V| outcomes)
        k = self.k
        label_masks = [0] * k
        for c in comps:
            label_masks[rng.randrange(k)] |= c
        return self._crossing(label_masks), self._witnessed(label_masks)

    def _level_candidate(self, comps, alive, rng) -> tuple[int, bool]:
        """delta of the random partial labelling, or the present edge set."""
        k = self.k
        live = len(comps)
        chosen = sorted(rng.sample(range(live), 2 * self.sigma_lead))
        label_masks = [0] * k
        picked = 0
        for idx in chosen:
            lab = rng.randrange(k)
            label_masks[lab] |= comps[idx]
            picked |= comps[idx]
        # everything outside the sample joins the last part
        rest = 0
        for c in comps:
            if not (c & picked):
                rest |= c
        label_masks[k - 1] |= rest
        if any(m == 0 for m in label_masks):
            return alive, False
        return self._crossing(label_masks), self._witnessed(label_masks)

    def _crossing(self, label_masks) -> int:
        """Edges meeting at least two label classes (only present ones can)."""
        out = 0
        for eid, em in enumerate(self.masks):
            inside = False
            for lm in label_masks:
                if em & lm == em:
                    inside = True
                    break
            if not inside:
                out |= 1 << eid
        return out


def kcut_walk(G: Hypergraph, k: int, sizes,
              weighted_costs: bool = False) -> _KCutWalker:
    """The size-constrained contraction walk, reusable across trials."""
    return _KCutWalker(G, k, _check_sizes(k, sizes), weighted_costs)


def size_constrained_min_k_cut(G: Hypergraph, k: int, sizes,
                               rng: random.Random,
                               weighted_costs: bool = False):
    """One run of the size-constrained min-k-cut algorithm.

    Vertex weights are deliberately not an input: for any positive integer
    weighting, any fixed size-constrained min-k-cut is returned with
    probability at least ``success_floor_size(n, k, sizes)``.  Returns
    INFEASIBLE when n < k (no k-partition exists).
    """
    out = kcut_walk(G, k, sizes, weighted_costs).run(rng)
    return INFEASIBLE if out is INFEASIBLE else Cut.from_mask(out[0])


def solve_kcut(G: Hypergraph, k: int, sizes, *, trials: int | None = None,
               seed: int = 0, weighted_costs: bool = False):
    """Best of ``trials`` seeded runs of one size-constrained walk.

    Keeps the cut of least value (edge count, or criterion-0 cost with
    ``weighted_costs``) among outcomes witnessed by a proper, size-feasible
    k-partition.  Returns INFEASIBLE when n < k.  ``trials`` defaults to
    ``default_trials`` of the success floor.
    """
    walk = kcut_walk(G, k, sizes, weighted_costs)
    if trials is not None:
        exact_int(trials, "trials", 1)
    if G.n < k:
        return INFEASIBLE
    if trials is None:
        trials = default_trials(success_floor_size(G.n, k, walk.sizes))
    return best_of_n(walk, trials, seed)


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


def multi_weight_reduction(size_matrix) -> tuple[int, ...]:
    """Collapse per-weight-function size bounds to their column-wise maximum.

    Running the solver with the reduced vector satisfies every row's lower
    bounds simultaneously.  Returns the maxima sorted non-decreasing.
    """
    rows = [tuple(row) for row in size_matrix]
    if not rows:
        raise InstanceError("need at least one row of size bounds")
    rows = [exact_ints(row, len(rows[0]), "size bound", 1) for row in rows]
    return tuple(sorted(max(col) for col in zip(*rows)))
