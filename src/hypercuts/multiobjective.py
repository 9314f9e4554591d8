"""Edge-cost multicriteria cut algorithms.

Four entry points:

* ``b_multiobjective_min_cut`` - budget-constrained random contraction.  At
  each step the remaining vertices are classified per criterion (those whose
  single-vertex cut already busts the budget), the criterion with the largest
  class drives a cost-proportional edge contraction, and a uniform random
  subset cut is returned once at most rank*t vertices remain.
* ``multiobjective_min_cut_enum`` - the budget-free variant: all randomness
  moves upfront into one cost-weighted permutation per criterion, and every
  interleaving schedule of per-criterion contraction phases is replayed,
  yielding at most n^(t-1) cuts per invocation.
* ``enumerate_multiobjective`` / ``enumerate_pareto`` - repeat the
  enumeration until every budget-optimal cut appears with high probability,
  prune by the final criterion, and (for the pareto set) keep the cuts that
  survive the randomized dominance search.
* ``verify_pareto_optimality`` - one-sided dominance test: TRUE is always
  correct for a pareto-optimal input, FALSE is only returned on an explicit
  dominating witness.

Repeated runs on one instance share a per-state cache (see ``_engine.Walk``),
which changes nothing about the sampled distribution - state expansion is
deterministic - but makes a single trial a few dictionary hops.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from ._engine import Walk, delta_mask, mask_sum, present_edge_ids, sample_node
from .hypergraph import Cut, Hypergraph, InstanceError
from .sampling import BestOf, LazyWeightedOrder, best_of_n, default_trials

__all__ = [
    "infeasible_classes",
    "bmulti_walk",
    "b_multiobjective_min_cut",
    "solve_bmulti",
    "success_floor_edge",
    "multiobjective_min_cut_enum",
    "enumerate_multiobjective",
    "enumerate_pareto",
    "verify_pareto_optimality",
    "default_enum_repetitions",
    "default_verify_repetitions",
    "interleaving_schedules",
]


def _criterion_costs(G: Hypergraph, costs):
    if costs is None:
        costs = G.costs_by_criterion()
    if not costs:
        raise InstanceError("need at least one cost criterion")
    return costs


def _check_budgets(t: int, budgets) -> tuple[int, ...]:
    budgets = tuple(budgets)
    if len(budgets) != t - 1:
        raise InstanceError(f"expected {t - 1} budgets for t={t}, got {len(budgets)}")
    if any(b < 0 for b in budgets):
        raise InstanceError("budgets must be non-negative")
    return budgets


def _classes(masks, comps, present, costs, budgets):
    remaining = list(comps)
    classes = []
    for ci, budget in zip(costs, budgets):
        deg = [0] * len(remaining)
        for eid in present:
            c = ci[eid]
            if c:
                em = masks[eid]
                for j, comp in enumerate(remaining):
                    if em & comp:
                        deg[j] += c
        classes.append([comp for comp, d in zip(remaining, deg) if d > budget])
        remaining = [comp for comp, d in zip(remaining, deg) if d <= budget]
    classes.append(remaining)
    return tuple(classes)


def infeasible_classes(G: Hypergraph, comps, budgets, costs=None):
    """Partition the components of ``comps`` into the per-criterion classes.

    Class i < t-1 collects the not-yet-classified components whose vertex
    cut exceeds budget i; the final class is the residue.  Returns a tuple of
    t lists of component bitmasks, each in partition order.
    """
    costs = _criterion_costs(G, costs)
    budgets = _check_budgets(len(costs), budgets)
    masks = G.edge_masks
    return _classes(masks, comps, present_edge_ids(masks, comps), costs,
                    budgets)


def bmulti_walk(G: Hypergraph, budgets, costs=None) -> Walk:
    """The budget-constrained contraction walk as a reusable cached ``Walk``.

    Above rank*t components the criterion with the largest class drives a
    cost-proportional contraction; at or below it a uniform subset of the
    components is drawn.  An outcome is witnessed when that subset induces a
    proper bipartition.
    """
    costs = _criterion_costs(G, costs)
    budgets = _check_budgets(len(costs), budgets)
    t = len(costs)
    masks, full = G.edge_masks, G.full_mask
    base_limit = G.rank * t

    def outcome(side):
        return delta_mask(masks, side, full), 0 != side != full

    def expand(comps):
        if len(comps) > base_limit:
            present = present_edge_ids(masks, comps)
            sizes = [len(c) for c in _classes(masks, comps, present, costs,
                                              budgets)]
            # largest class drives the contraction; ties break to the lowest
            # criterion, zero-mass criteria fall through to the next largest
            for i in sorted(range(t), key=lambda j: (-sizes[j], j)):
                node = sample_node(present, [costs[i][eid] for eid in present])
                if node:
                    return node
        return ("base", {}, outcome)

    def value(mask):
        # cost on the last criterion, for cuts within every budget
        vec = _mask_costs(costs, mask)
        return vec[-1] if all(v <= b for v, b in zip(vec, budgets)) else None

    return Walk(G, expand, value)


def b_multiobjective_min_cut(G: Hypergraph, budgets, rng: random.Random,
                             costs=None) -> Cut:
    """One run of the budget-constrained random contraction algorithm.

    Any fixed budget-optimal cut is returned with probability at least
    ``success_floor_edge(n, r, t)``.  The result can be the empty cut when
    the base-case subset draw lands on the empty or full vertex set.
    """
    mask, _ = bmulti_walk(G, budgets, costs).run(rng)
    return Cut.from_mask(mask)


def solve_bmulti(G: Hypergraph, budgets, *, trials: int | None = None,
                 seed: int = 0) -> BestOf:
    """Best of ``trials`` seeded runs of the budgeted walk.

    Keeps the cut cheapest on the last criterion among the proper cuts
    within the budgets.  ``trials`` defaults to ``default_trials`` of the
    walk's success floor.
    """
    walk = bmulti_walk(G, budgets)
    if trials is None:
        trials = default_trials(success_floor_edge(G.n, G.rank, G.t_costs))
    return best_of_n(walk, trials, seed)


def success_floor_edge(n: int, r: int, t: int) -> Fraction:
    """Per-cut success probability floor of the budgeted contraction walk.

    1/2^(rt) when n <= rt, else (2t+1) / (2^(rt) (rt+1) C(n-t(r-2), 2t)).
    Exact rational.
    """
    if n < 1 or t < 1 or r < 2:
        raise InstanceError("need n >= 1, t >= 1, r >= 2")
    if n <= r * t:
        return Fraction(1, 2 ** (r * t))
    top = n - t * (r - 2)
    if top < 2 * t:
        raise InstanceError(f"(n={n}, r={r}, t={t}) outside the floor's regime")
    return Fraction(2 * t + 1, 2 ** (r * t) * (r * t + 1)) / comb(top, 2 * t)


def interleaving_schedules(n: int, r: int, t: int) -> list[tuple[int, ...]]:
    """All phase-target sequences n_1 >= ... >= n_{t-1} >= n_t = r*t, n_1 <= n."""
    last = r * t
    if n <= last:
        return []
    schedules = []
    for combo in combinations_with_replacement(range(last, n + 1), t - 1):
        schedules.append(tuple(reversed(combo)) + (last,))
    return schedules


class _EnumContext:
    """Precomputed data for repeated runs of the enumeration algorithm."""

    def __init__(self, G: Hypergraph, costs):
        self.G = G
        self.costs = costs
        self.t = len(costs)
        self.r = G.rank
        self.n = G.n
        self.base_limit = self.r * self.t
        self.masks = G.edge_masks
        self.edges = G.edges
        self.full = G.full_mask
        self.supports = []
        self.support_weights = []
        for ci in costs:
            ids = [e for e in range(G.m) if ci[e] > 0]
            self.supports.append(ids)
            self.support_weights.append([ci[e] for e in ids])
        self.schedules = interleaving_schedules(self.n, self.r, self.t)

    def run(self, rng: random.Random, out: set[int]) -> None:
        """One invocation; adds the produced cut bitmasks to ``out``.

        Subset draws landing on the empty or full vertex set induce no
        bipartition and hence no cut; those draws contribute nothing.
        """
        n, edges, masks = self.n, self.edges, self.masks
        full_bits = (1 << n) - 1
        if n <= self.base_limit:
            bits = rng.getrandbits(n)
            if bits != 0 and bits != full_bits:
                out.add(delta_mask(masks, bits, self.full))
            return
        orders = [LazyWeightedOrder(ids, ws, rng)
                  for ids, ws in zip(self.supports, self.support_weights)]
        for schedule in self.schedules:
            labels = list(range(n))
            live = n
            for i, target in enumerate(schedule):
                order = orders[i]
                prefix = order.prefix
                pos = 0
                while live > target:
                    eid = None
                    while True:
                        if pos >= len(prefix):
                            order.ensure(pos + 1)
                            if pos >= len(prefix):
                                break
                        cand = prefix[pos]
                        pos += 1
                        vs = edges[cand]
                        l0 = labels[vs[0]]
                        for v in vs[1:]:
                            if labels[v] != l0:
                                eid = cand
                                break
                        if eid is not None:
                            break
                    if eid is None:
                        break  # permutation exhausted: phase ends early
                    hit = {labels[v] for v in edges[eid]}
                    tgt = min(hit)
                    for v in range(n):
                        if labels[v] in hit:
                            labels[v] = tgt
                    live -= len(hit) - 1
            comp = {}
            for v in range(n):
                comp[labels[v]] = comp.get(labels[v], 0) | (1 << v)
            comps = [comp[root] for root in sorted(comp)]
            bits = rng.getrandbits(len(comps))
            if bits == 0 or bits == (1 << len(comps)) - 1:
                continue
            side = 0
            for idx, cmask in enumerate(comps):
                if (bits >> idx) & 1:
                    side |= cmask
            out.add(delta_mask(masks, side, self.full))


def multiobjective_min_cut_enum(G: Hypergraph, rng: random.Random,
                                costs=None) -> set[Cut]:
    """One invocation of the budget-free enumeration (at most n^(t-1) cuts)."""
    costs = _criterion_costs(G, costs)
    ctx = _EnumContext(G, costs)
    masks: set[int] = set()
    ctx.run(rng, masks)
    return {Cut.from_mask(m) for m in masks}


def default_enum_repetitions(n: int, r: int, t: int) -> int:
    """Repetition count making the collection a superset of the budget-optimal
    cuts with high probability (asymptotic bound instantiated with constant 1)."""
    return max(1, math.ceil(r * r * t * (2 ** (r * t)) * (n ** (2 * t)) * math.log(max(n, 2))))


def default_verify_repetitions(n: int, r: int, t: int) -> int:
    """Per-criterion repetition count for the dominance search."""
    return max(1, math.ceil(r * (2 ** (r * t)) * (n ** (2 * t)) * math.log(max(n, 2))))


def _mask_costs(costs, mask: int) -> tuple[int, ...]:
    return tuple(mask_sum(ci, mask) for ci in costs)


def _prune_final_criterion(masks: set[int], G: Hypergraph, costs) -> set[int]:
    """Drop F when some F' in the collection is <= on the leading criteria and
    strictly cheaper on the last; idempotent and order-independent."""
    vectors = {m: _mask_costs(costs, m) for m in masks}
    t = len(costs)
    survivors = set()
    for m, vec in vectors.items():
        beaten = any(
            other[-1] < vec[-1] and all(other[i] <= vec[i] for i in range(t - 1))
            for other in vectors.values())
        if not beaten:
            survivors.add(m)
    return survivors


def enumerate_multiobjective(G: Hypergraph, rng: random.Random,
                             repetitions: int | None = None,
                             costs=None) -> set[Cut]:
    """Union of repeated enumeration runs, pruned by the final criterion.

    With the default repetition count the result equals the set of all
    budget-optimal cuts with high probability.  On an unlucky sample the
    pruned set can retain non-optimal cuts; callers comparing against ground
    truth should report such misses rather than mask them.
    """
    costs = _criterion_costs(G, costs)
    if repetitions is None:
        repetitions = default_enum_repetitions(G.n, G.rank, len(costs))
    if repetitions < 1:
        raise InstanceError("repetitions must be >= 1")
    ctx = _EnumContext(G, costs)
    masks: set[int] = set()
    for _ in range(repetitions):
        ctx.run(rng, masks)
    return {Cut.from_mask(m) for m in _prune_final_criterion(masks, G, costs)}


def verify_pareto_optimality(G: Hypergraph, cut: Cut, rng: random.Random,
                             repetitions_per_criterion: int | None = None,
                             costs=None) -> bool:
    """Randomized dominance check for a cut of G.

    For each criterion i the costs are rotated so that i is minimized
    subject to budgets equal to the cut's costs under the other criteria;
    finding a budget-respecting cut strictly cheaper on i proves domination.
    TRUE is deterministic for pareto-optimal cuts; FALSE is correct whenever
    returned and is found with high probability for dominated cuts.
    """
    costs = _criterion_costs(G, costs)
    t = len(costs)
    if repetitions_per_criterion is None:
        repetitions_per_criterion = default_verify_repetitions(G.n, G.rank, t)
    cut_vec = [sum(ci[e] for e in cut.edge_ids) for ci in costs]
    for i in range(t):
        rotated = [costs[j] for j in range(t) if j != i] + [costs[i]]
        budgets = tuple(cut_vec[j] for j in range(t) if j != i)
        walk = bmulti_walk(G, budgets, rotated)
        target = cut_vec[i]
        verdict: dict[int, bool] = {}
        for _ in range(repetitions_per_criterion):
            mask, proper = walk.run(rng)
            if not proper:
                continue
            hit = verdict.get(mask)
            if hit is None:
                vec = _mask_costs(rotated, mask)
                hit = (vec[-1] < target
                       and all(vec[j] <= budgets[j] for j in range(t - 1)))
                verdict[mask] = hit
            if hit:
                return False
    return True


def enumerate_pareto(G: Hypergraph, rng: random.Random,
                     repetitions: int | None = None,
                     verify_repetitions: int | None = None,
                     costs=None) -> set[Cut]:
    """Pareto-optimal cuts: the enumerated collection filtered by the
    randomized dominance check.  Always a subset of the collection."""
    costs = _criterion_costs(G, costs)
    collection = enumerate_multiobjective(G, rng, repetitions, costs)
    result = set()
    for cut in sorted(collection, key=lambda c: c.edge_ids):
        if verify_pareto_optimality(G, cut, rng, verify_repetitions, costs):
            result.add(cut)
    return result
