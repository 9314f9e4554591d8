"""Edge-cost multicriteria cut algorithms.

* ``bmulti_walk`` - budget-constrained random
  contraction.  At each step the remaining vertices are classified per
  criterion (those whose single-vertex cut already busts the budget), the
  criterion with the largest class drives a cost-proportional edge
  contraction, and a uniform random subset cut is returned once at most
  rank*t vertices remain.
* ``enumerate_multiobjective`` - the budget-free variant: all randomness
  moves upfront into one cost-weighted permutation per criterion, and every
  interleaving schedule of per-criterion contraction phases is replayed,
  yielding at most n^(t-1) cuts per repetition.  Repetitions continue until
  every budget-optimal cut appears with high probability, and the union is
  pruned by the final criterion.
* ``pareto_pipeline`` / ``enumerate_pareto`` - keep the enumerated cuts
  that survive the randomized dominance search.
* ``verify_pareto_optimality`` - one-sided dominance test: TRUE is always
  correct for a pareto-optimal input, FALSE is only returned on an explicit
  dominating witness.

Every algorithm reads its cost columns from the hypergraph itself.
Repeated runs on one instance share a per-state cache (see ``_engine.Walk``
and ``_EnumContext``), which changes nothing about the sampled distribution -
state expansion is deterministic - but makes a single trial a few dictionary
hops.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from ._engine import (Walk, contract_comps, contraction, delta_mask, ids_mask,
                      inherit_present, initial_comps, mask_sum, packer,
                      present_edge_ids, realign, sample_node, side_mask)
from .hypergraph import Cut, Hypergraph, InstanceError, exact_int, exact_ints
from .sampling import DrawNode, LazyWeightedOrder

__all__ = [
    "bmulti_walk",
    "success_floor_edge",
    "enumerate_multiobjective",
    "enumerate_pareto",
    "pareto_pipeline",
    "verify_pareto_optimality",
    "default_enum_repetitions",
    "default_verify_repetitions",
    "enum_repetition_count",
    "verify_repetition_count",
    "interleaving_schedules",
]


def _costs_and_budgets(G: Hypergraph, budgets):
    """G's cost columns and the t-1 validated budgets on the leading ones."""
    costs = G.costs_by_criterion()
    return costs, exact_ints(budgets, len(costs) - 1, "budget")


def _class_of(masks, present, costs, budgets, comp: int) -> int:
    """The per-criterion class of the component ``comp``.

    Class i < t-1 holds the components whose vertex cut over the
    ``present`` edges exceeds budget i and no earlier budget; class t-1 is
    the residue.  A contraction leaves every component but the merged one
    with the same present edges around it, so only that one's class can
    change.
    """
    touching = [eid for eid in present if masks[eid] & comp]
    for i, (ci, budget) in enumerate(zip(costs, budgets)):
        if sum([ci[eid] for eid in touching]) > budget:
            return i
    return len(budgets)


def bmulti_walk(G: Hypergraph, budgets) -> Walk:
    """The budget-constrained contraction walk as a reusable cached ``Walk``.

    Above rank*t components the criterion with the largest class drives a
    cost-proportional contraction; at or below it a uniform subset of the
    components is drawn.  An outcome is witnessed when that subset induces a
    proper bipartition.
    """
    return _bmulti_walk(G, *_costs_and_budgets(G, budgets))


def _bmulti_walk(G: Hypergraph, costs, budgets) -> Walk:
    """``bmulti_walk`` over cost columns already read from G, in any order
    (the verifier rotates them); the budgets bound all but the last.  Its
    floor is ``success_floor_edge(n, rank, t)``."""
    t = len(costs)
    masks, full = G.edge_masks, G.full_mask
    base_limit = G.rank * t
    pack = packer(t - 1)  # one class index per component

    def outcome(side):
        return delta_mask(masks, side, full), 0 != side != full

    def expand(comps, parent=None):
        if len(comps) > base_limit:
            if parent is None:
                present = present_edge_ids(masks, comps)
                classes = pack([_class_of(masks, present, costs, budgets, c)
                                for c in comps])
            else:
                prev, prev_comps = parent
                i, M, _ = contraction(comps, prev_comps)
                present = inherit_present(masks, prev[3], M)
                classes = pack(realign(
                    prev_comps, prev[5], i, M,
                    _class_of(masks, present, costs, budgets, M)))
            sizes = [classes.count(i) for i in range(t)]
            # largest class drives the contraction; ties break to the lowest
            # criterion, zero-mass criteria fall through to the next largest
            for i in sorted(range(t), key=lambda j: (-sizes[j], j)):
                node = sample_node(present, [costs[i][eid] for eid in present],
                                   classes)
                if node:
                    return node
        return ("base", {}, outcome)

    def value(mask):
        # cost on the last criterion, for cuts within every budget
        vec = _mask_costs(costs, mask)
        return vec[-1] if all(v <= b for v, b in zip(vec, budgets)) else None

    return Walk(G, expand, value, success_floor_edge(G.n, G.rank, t))


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


# Cap on the entries (partition nodes, successor links, cut masks and
# draw-trie branches together) one enumeration context stores.  Past it, new
# partition entries are built, used and dropped and orders leave the trie for
# flat lists, so a long run on a large instance stays in bounded memory.
# Under CPython 3.11 a full cache takes about 8 MB at n=10, m=25, and 16 MB
# at n=8, m=16, where trie nodes fill most of it.
_ENUM_CACHE_CAP = 1 << 16


class _EnumContext:
    """Precomputed data for repeated runs of the enumeration algorithm.

    Runs walk a cache of partition nodes ``(comps, present, succ, cuts)``
    keyed by the component tuple: ``present`` is the bitmask of edge ids
    spanning two components, ``succ`` maps a contracted edge id to the
    successor node and ``cuts`` maps a base-case draw to its cut mask; both
    tables fill on first use.  A phase then scans its order prefix with one
    bit test per candidate edge and moves with one dictionary hop per
    contraction.  Expansion is deterministic, so the cache changes no draw.

    Each criterion's cost-weighted order is drawn over one ``DrawNode``
    trie (``roots``) that every repetition shares, so most draws are one
    bisect and one dictionary hop too.  Trie branches count against the
    same cap.
    """

    def __init__(self, G: Hypergraph, costs):
        self.masks = G.edge_masks
        self.full = G.full_mask
        self.size = 0
        self.roots = []
        for ci in costs:
            ids = [e for e in range(G.m) if ci[e] > 0]
            self.roots.append(DrawNode.root(ids, [ci[e] for e in ids]))
        # at most r*t vertices: no contraction phase, only the base case
        self.schedules = interleaving_schedules(G.n, G.rank, len(costs)) or [()]
        self.cache: dict[tuple, tuple] = {}
        self.start = self._node(initial_comps(G.n))

    def _store(self) -> bool:
        """Count one more cache entry; False once the cache is full."""
        if self.size >= _ENUM_CACHE_CAP:
            return False
        self.size += 1
        return True

    def _node(self, comps):
        node = self.cache.get(comps)
        if node is None:
            node = (comps, ids_mask(present_edge_ids(self.masks, comps)), {}, {})
            if self._store():
                self.cache[comps] = node
        return node

    def _successor(self, node, eid: int):
        nxt = self._node(contract_comps(node[0], self.masks[eid]))
        if self._store():
            node[2][eid] = nxt
        return nxt

    def _cut(self, node, bits: int) -> int:
        cut = delta_mask(self.masks, side_mask(node[0], bits), self.full)
        if self._store():
            node[3][bits] = cut
        return cut

    def run(self, rng: random.Random, out: set[int]) -> None:
        """One invocation; adds the produced cut bitmasks to ``out``.

        Subset draws landing on the empty or full vertex set induce no
        bipartition and hence no cut; those draws contribute nothing.
        """
        keep = self._store
        orders = [LazyWeightedOrder(root, rng, keep) for root in self.roots]
        for schedule in self.schedules:
            node = self.start
            for order, target in zip(orders, schedule):
                prefix = order.prefix
                drawn = len(prefix)
                pos = 0
                while len(node[0]) > target:
                    present = node[1]
                    while True:
                        if pos == drawn:
                            order.ensure(pos + 1)
                            drawn = len(prefix)
                            if pos == drawn:
                                eid = None
                                break
                        eid = prefix[pos]
                        pos += 1
                        if present >> eid & 1:
                            break
                    if eid is None:
                        break  # permutation exhausted: phase ends early
                    nxt = node[2].get(eid)
                    node = self._successor(node, eid) if nxt is None else nxt
            k = len(node[0])
            bits = rng.getrandbits(k)
            if bits == 0 or bits == (1 << k) - 1:
                continue
            cut = node[3].get(bits)
            out.add(self._cut(node, bits) if cut is None else cut)


def default_enum_repetitions(n: int, r: int, t: int) -> int:
    """Repetition count making the collection a superset of the budget-optimal
    cuts with high probability (asymptotic bound instantiated with constant 1)."""
    return max(1, math.ceil(r * r * t * (2 ** (r * t)) * (n ** (2 * t)) * math.log(max(n, 2))))


def default_verify_repetitions(n: int, r: int, t: int) -> int:
    """Per-criterion repetition count for the dominance search."""
    return max(1, math.ceil(r * (2 ** (r * t)) * (n ** (2 * t)) * math.log(max(n, 2))))


def enum_repetition_count(G: Hypergraph, repetitions: int | None) -> int:
    """Enumeration repetitions on G: the default when ``repetitions`` is
    None, else ``repetitions`` as an exact int >= 1."""
    if repetitions is None:
        return default_enum_repetitions(G.n, G.rank, G.t_costs)
    return exact_int(repetitions, "repetitions", 1)


def verify_repetition_count(G: Hypergraph, repetitions: int | None) -> int:
    """Per-criterion dominance-search repetitions on G: the default when
    ``repetitions`` is None, else ``repetitions`` as an exact int >= 1."""
    if repetitions is None:
        return default_verify_repetitions(G.n, G.rank, G.t_costs)
    return exact_int(repetitions, "verify repetitions", 1)


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
                             repetitions: int | None = None) -> set[Cut]:
    """Union of repeated enumeration runs, pruned by the final criterion.

    With the default repetition count the result equals the set of all
    budget-optimal cuts with high probability.  On an unlucky sample the
    pruned set can retain non-optimal cuts; callers comparing against ground
    truth should report such misses rather than mask them.
    """
    costs = G.costs_by_criterion()
    repetitions = enum_repetition_count(G, repetitions)
    ctx = _EnumContext(G, costs)
    masks: set[int] = set()
    for _ in range(repetitions):
        ctx.run(rng, masks)
    return {Cut.from_mask(m) for m in _prune_final_criterion(masks, G, costs)}


def verify_pareto_optimality(G: Hypergraph, cut: Cut, rng: random.Random,
                             repetitions_per_criterion: int | None = None
                             ) -> bool:
    """Randomized dominance check for a cut of G.

    For each criterion i the costs are rotated so that i is minimized
    subject to budgets equal to the cut's costs under the other criteria;
    finding a budget-respecting cut strictly cheaper on i proves domination.
    TRUE is deterministic for pareto-optimal cuts; FALSE is correct whenever
    returned and is found with high probability for dominated cuts.
    """
    costs = G.costs_by_criterion()
    t = len(costs)
    repetitions_per_criterion = verify_repetition_count(
        G, repetitions_per_criterion)
    cut_vec = G.cut_costs(cut)
    for i in range(t):
        rotated = [costs[j] for j in range(t) if j != i] + [costs[i]]
        budgets = tuple(cut_vec[j] for j in range(t) if j != i)
        walk = _bmulti_walk(G, rotated, budgets)
        target = cut_vec[i]
        verdict: dict[int, bool] = {}
        for _ in range(repetitions_per_criterion):
            mask, proper = walk.run(rng)
            if not proper:
                continue
            hit = verdict.get(mask)
            if hit is None:
                value = walk.value(mask)
                hit = verdict[mask] = value is not None and value < target
            if hit:
                return False
    return True


def pareto_pipeline(G: Hypergraph, rng: random.Random,
                    repetitions: int | None = None,
                    verify_repetitions: int | None = None
                    ) -> tuple[set[Cut], set[Cut]]:
    """(enumerated collection, its pareto-optimal subset).

    The collection comes from ``enumerate_multiobjective``; each of its cuts,
    in edge-id order, then goes through the randomized dominance check with
    the same generator.  The verify repetition count is checked before the
    enumeration runs.
    """
    verify_repetitions = verify_repetition_count(G, verify_repetitions)
    collection = enumerate_multiobjective(G, rng, repetitions)
    pareto = {cut for cut in sorted(collection, key=lambda c: c.edge_ids)
              if verify_pareto_optimality(G, cut, rng, verify_repetitions)}
    return collection, pareto


def enumerate_pareto(G: Hypergraph, rng: random.Random,
                     repetitions: int | None = None,
                     verify_repetitions: int | None = None) -> set[Cut]:
    """Pareto-optimal cuts: the enumerated collection filtered by the
    randomized dominance check.  Always a subset of the collection."""
    return pareto_pipeline(G, rng, repetitions, verify_repetitions)[1]
