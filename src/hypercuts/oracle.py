"""Exhaustive ground truth for small instances.

Every oracle here enumerates the full solution space (all 2^(n-1)-1
bipartitions, or all k^n label assignments) and applies the problem
definitions literally.  They exist to verify the randomized algorithms, not
to be fast: hard size guards refuse instances beyond desk scale unless
explicitly overridden.  ``is_cut`` answers catalog membership without
building the catalog.

One side scan, ``_sides``, visits the sides in Gray-code order and updates
each cut and its costs from the previous side's, one flipped vertex at a
time; it feeds both ``build_catalog`` and ``oracle_nb_bmulti``.  The order
in which cuts enter ``CutCatalog.costs`` is not part of the API: every
oracle returns a set, and the CLI sorts what it prints.  ``oracle_pareto``
and ``oracle_multiobjective`` filter the distinct cost vectors through
``_engine.front``, which compares each, in sorted order, with the front kept
so far, not with every other cut; the enumeration's final-criterion prune
uses the same front.  The node-budgeted and k-cut oracles read and check
their inputs through ``nb_inputs`` and ``kcut_inputs``, as the walks do.
The oracles that minimise one value pick their optima through ``_optima``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import permutations, product

from ._engine import (beats_last, contract_comps, delta_mask, front, ids_mask,
                      initial_comps, present_edge_ids, side_mask)
from .hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE,
                         delta_partition, exact_bool, exact_ints)
from .node_budgeted import nb_inputs
from .size_constrained import kcut_inputs

CATALOG_GUARD = 20   # 2^n bipartition scans
KCUT_GUARD = 12      # k^n label scans


class CutCatalog:
    """All distinct cuts delta(X) over the unordered bipartitions of V,
    each with its exact integer cost vector."""

    def __init__(self, G: Hypergraph):
        self.t = G.t_costs
        self.costs: dict[Cut, tuple[int, ...]] = {}

    def __len__(self):
        return len(self.costs)


def _sides(G: Hypergraph, override_guard: bool):
    """Every unordered bipartition of V as ``(side, crossing, totals)``.

    ``side`` is the vertex mask of the part without vertex 0, ``crossing``
    the sorted ids of the edges it cuts and ``totals`` their summed cost
    vectors; both lists are updated in place between sides.  The sides come
    in Gray-code order, so each one differs from the last by one vertex: a
    per-edge count of the vertices on the side, ``crossing`` and ``totals``
    then change only at that vertex's edges.  The guard is checked at the
    call, before any side is visited.
    """
    if not exact_bool(override_guard, "override_guard") and G.n > CATALOG_GUARD:
        raise InstanceError(
            f"n={G.n} exceeds the 2^n oracle guard ({CATALOG_GUARD}); "
            "pass override_guard=True to force")

    def scan():
        span = range(G.t_costs)
        incident = [[] for _ in range(G.n)]
        for eid, (e, row) in enumerate(zip(G.edges, G.edge_costs)):
            for v in e:
                incident[v].append((eid, len(e), row))
        inside = [0] * G.m
        crossing: list[int] = []
        totals = [0] * G.t_costs
        side = 0
        # Vertex 0 stays on the complement side, so each unordered
        # bipartition is visited exactly once; step i flips the vertex after
        # i's lowest bit.  An edge crosses while 0 < inside < its size.
        for i in range(1, 1 << (G.n - 1)):
            bit = (i & -i) << 1
            side ^= bit
            joins = side & bit
            for eid, size, row in incident[bit.bit_length() - 1]:
                k = inside[eid]
                if joins:
                    inside[eid] = k + 1
                    enters = k == 0
                    leaves = k + 1 == size
                else:
                    inside[eid] = k - 1
                    enters = k == size
                    leaves = k == 1
                if enters:
                    insort(crossing, eid)
                    for j in span:
                        totals[j] += row[j]
                elif leaves:
                    del crossing[bisect_left(crossing, eid)]
                    for j in span:
                        totals[j] -= row[j]
            yield side, crossing, totals

    return scan()


def build_catalog(G: Hypergraph, override_guard: bool = False) -> CutCatalog:
    """Catalog of every cut of G (complete, deduplicated, exact costs),
    read off the Gray-code side scan."""
    cat = CutCatalog(G)
    costs = cat.costs
    for _, crossing, totals in _sides(G, override_guard):
        costs.setdefault(Cut(tuple(crossing)), tuple(totals))
    return cat


def is_cut(G: Hypergraph, cut: Cut) -> bool:
    """True iff ``cut`` is delta(X) for some nonempty proper X, i.e. iff it
    is in ``build_catalog(G)``.

    Every edge outside the cut lies on one side of X, so X is a union of the
    components left by contracting those edges; the search runs over the
    2^(c-1) unions of the c components instead of the 2^(n-1) sides, and
    raises InstanceError when c exceeds ``CATALOG_GUARD`` or the cut names
    an edge G does not have.
    """
    target = ids_mask(G.cut_ids(cut))
    masks = G.edge_masks
    comps = initial_comps(G.n)
    for eid, em in enumerate(masks):
        if not target >> eid & 1:
            comps = contract_comps(comps, em)
    # edges outside the cut now lie inside components; one of the cut's
    # lying inside a component too would cross no union of them
    if ids_mask(present_edge_ids(masks, comps)) != target:
        return False
    if len(comps) > CATALOG_GUARD:
        raise InstanceError(f"{len(comps)} components exceed the 2^c cut "
                            f"membership guard ({CATALOG_GUARD})")
    # the component of vertex 0 stays on the complement side
    rest = comps[1:]
    for bits in range(1, 1 << len(rest)):
        if delta_mask(masks, side_mask(rest, bits), G.full_mask) == target:
            return True
    return False


def dominates(costs_a, costs_b) -> bool:
    """True iff a is componentwise <= b with at least one strict <."""
    a, b = tuple(costs_a), tuple(costs_b)
    if len(a) != len(b):
        raise InstanceError("cost vectors must have equal length")
    return a != b and all(x <= y for x, y in zip(a, b))


def oracle_pareto(catalog: CutCatalog) -> set[Cut]:
    """Cuts not dominated by any other cut.

    Domination is strict and transitive, and a dominating vector sorts
    before the one it dominates, so the sorted ``front`` decides it.  Equal
    vectors never dominate each other.
    """
    if catalog.t < 1:
        raise InstanceError("the pareto oracle needs a cost criterion")
    return front(catalog.costs, dominates)


def oracle_multiobjective(catalog: CutCatalog) -> set[Cut]:
    """Cuts F with no F' that is <= on the first t-1 criteria and < on the last.

    Equivalently, F is budget-optimal at the budget vector b_i = c_i(F).
    Such an F' sorts before F, and the relation is transitive, so the
    sorted ``front`` of ``oracle_pareto`` decides it too.
    """
    if catalog.t < 1:
        raise InstanceError("the multiobjective oracle needs a cost criterion")
    return front(catalog.costs, beats_last)


def oracle_bmulti(catalog: CutCatalog, budgets) -> set[Cut]:
    """All minimizers of the last criterion among cuts within the budgets."""
    if catalog.t < 1:
        raise InstanceError("the budgeted oracle needs a cost criterion")
    budgets = exact_ints(budgets, catalog.t - 1, "budget")
    optima = _optima((cost[-1], cut) for cut, cost in catalog.costs.items()
                     if all(cost[i] <= budgets[i]
                            for i in range(catalog.t - 1)))
    return set() if optima is INFEASIBLE else optima[1]


def oracle_parametric_t2(catalog: CutCatalog) -> set[Cut]:
    """Cuts minimal under lam*c1 + (1-lam)*c2 for some lam strictly in (0,1).

    The minimum over cuts is the lower envelope of their lines in lam.  A
    vector is on it for some lam in (0,1) exactly when it lies on the
    lower-left convex hull chain of the distinct vectors, collinear points
    included: sorted by c1, each lower in c2 than the last, and none above
    the chord between its neighbours.  Restricted to t = 2.
    """
    if catalog.t != 2:
        raise InstanceError("parametric membership oracle supports t=2 only")
    hull = []
    for a1, a2 in sorted(set(catalog.costs.values())):
        if hull and a2 >= hull[-1][1]:
            continue  # no lower in c2 than a vector no higher in c1
        # drop the last vertex while it lies strictly above the chord to here
        while len(hull) > 1:
            (o1, o2), (p1, p2) = hull[-2:]
            if (p1 - o1) * (a2 - o2) >= (p2 - o2) * (a1 - o1):
                break
            hull.pop()
        hull.append((a1, a2))
    chain = set(hull)
    return {cut for cut, cost in catalog.costs.items() if cost in chain}


def _optima(candidates):
    """(least value, set of cuts at it) over ``(value, cut)`` pairs, or
    INFEASIBLE when there are none."""
    best, cuts = None, set()
    for value, cut in candidates:
        if best is None or value < best:
            best, cuts = value, {cut}
        elif value == best:
            cuts.add(cut)
    return INFEASIBLE if best is None else (best, cuts)


def oracle_nb_bmulti(G: Hypergraph, budgets, override_guard: bool = False):
    """Node-budgeted optimum: min cost delta(X) over X with w_i(X) <= b_i.

    Returns (optimal cost, set of optimal cuts), or INFEASIBLE when no
    nonempty proper vertex set satisfies the budgets.  Cost is criterion 0.
    delta(X) is delta(V - X), so a bipartition counts when either side fits.
    """
    sides = _sides(G, override_guard)
    fits, _ = nb_inputs(G, budgets)
    full = G.full_mask
    return _optima((totals[0], Cut(tuple(crossing)))
                   for side, crossing, totals in sides
                   if fits(side) or fits(full & ~side))


def oracle_kcut(G: Hypergraph, k: int, sizes, weighted_costs: bool = False,
                override_guard: bool = False):
    """Size-constrained min-k-cut by scanning all label assignments.

    A partition is feasible when some matching of parts to the size lower
    bounds works; all k! matchings are checked rather than assuming sorted
    parts.  The inputs are read by ``kcut_inputs``.  Returns (optimal
    value, set of optimal cuts) or INFEASIBLE.
    """
    if not exact_bool(override_guard, "override_guard") and G.n > KCUT_GUARD:
        raise InstanceError(f"n={G.n} exceeds the k^n oracle guard ({KCUT_GUARD})")
    sizes, cost, w = kcut_inputs(G, k, sizes, weighted_costs)
    if G.n < k:
        return INFEASIBLE

    def partitions():
        # Vertex 0 pinned to part 0: feasibility and delta are label-symmetric.
        for rest in product(range(k), repeat=G.n - 1):
            labels = (0,) + rest
            if len(set(labels)) != k:
                continue
            part_w = [0] * k
            for v, lab in enumerate(labels):
                part_w[lab] += w[v]
            if any(all(part_w[perm[i]] >= sizes[i] for i in range(k))
                   for perm in permutations(range(k))):
                cut = delta_partition(G, labels)
                yield sum(cost[eid] for eid in cut.edge_ids), cut

    return _optima(partitions())


def oracle_min_cut(catalog: CutCatalog):
    """(min cost, set of minimum cuts) under criterion 0."""
    if not catalog.costs:
        raise InstanceError("catalog is empty (single-vertex hypergraph?)")
    if catalog.t < 1:
        raise InstanceError("the min-cut oracle needs a cost criterion")
    return _optima((cost[0], cut) for cut, cost in catalog.costs.items())
