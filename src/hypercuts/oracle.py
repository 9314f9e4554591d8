"""Exhaustive ground truth for small instances.

Every oracle here enumerates the full solution space (all 2^(n-1)-1
bipartitions, or all k^n label assignments) and applies the problem
definitions literally.  They exist to verify the randomized algorithms, not
to be fast: hard size guards refuse instances beyond desk scale unless
explicitly overridden.  ``is_cut`` answers catalog membership without
building the catalog.

``build_catalog`` visits the sides in Gray-code order and updates each cut
and its costs from the previous side's, one flipped vertex at a time.  The
order in which cuts enter ``CutCatalog.costs`` is not part of the API: every
oracle returns a set, and the CLI sorts what it prints.  ``oracle_pareto``
and ``oracle_multiobjective`` scan the distinct cost vectors in sorted order
and compare each with the front kept so far, not with every other cut.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from itertools import permutations, product

from ._engine import (contract_comps, delta_mask, ids_mask, initial_comps,
                      mask_sum, present_edge_ids, side_mask)
from .hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE,
                         delta_partition, exact_int, exact_ints)

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


def build_catalog(G: Hypergraph, override_guard: bool = False) -> CutCatalog:
    """Catalog of every cut of G (complete, deduplicated, exact costs).

    The sides are visited in Gray-code order, so each one differs from the
    last by one vertex.  A per-edge count of the vertices on the side, the
    sorted crossing edge ids and the running cost totals then change only at
    that vertex's edges.
    """
    if G.n > CATALOG_GUARD and not override_guard:
        raise InstanceError(
            f"n={G.n} exceeds the 2^n oracle guard ({CATALOG_GUARD}); "
            "pass override_guard=True to force")
    cat = CutCatalog(G)
    costs = cat.costs
    span = range(G.t_costs)
    incident = [[] for _ in range(G.n)]
    for eid, (e, row) in enumerate(zip(G.edges, G.edge_costs)):
        for v in e:
            incident[v].append((eid, len(e), row))
    inside = [0] * G.m
    crossing: list[int] = []
    totals = [0] * G.t_costs
    side = 0
    # Vertex 0 stays on the complement side, so each unordered bipartition
    # is visited exactly once; step i flips the vertex after i's lowest bit.
    # An edge crosses while 0 < inside < its size.
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
        costs.setdefault(Cut(tuple(crossing)), tuple(totals))
    return cat


def is_cut(G: Hypergraph, cut: Cut) -> bool:
    """True iff ``cut`` is delta(X) for some nonempty proper X, i.e. iff it
    is in ``build_catalog(G)``.

    Every edge outside the cut lies on one side of X, so X is a union of the
    components left by contracting those edges; the search runs over the
    2^(c-1) unions of the c components instead of the 2^(n-1) sides, and
    raises InstanceError when c exceeds ``CATALOG_GUARD``.
    """
    target = cut.mask()
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

    A dominating vector sorts before the one it dominates, and a vector that
    a dominated vector dominates is dominated by an undominated one too.  So
    each distinct vector, in sorted order, is checked only against the
    undominated vectors kept so far.  Equal vectors never dominate each
    other.
    """
    if catalog.t < 1:
        raise InstanceError("the pareto oracle needs a cost criterion")
    return _front(catalog, dominates)


def _beats(costs_a, costs_b) -> bool:
    """True iff a is <= b on the leading criteria and < b on the last."""
    return costs_a[-1] < costs_b[-1] and all(
        x <= y for x, y in zip(costs_a[:-1], costs_b[:-1]))


def _front(catalog: CutCatalog, beats) -> set[Cut]:
    """Cuts whose cost vector no other cut's vector ``beats``, for a strict
    order ``beats`` under which a beating vector is lexicographically
    smaller."""
    front = []
    for cost in sorted(set(catalog.costs.values())):
        if not any(beats(kept, cost) for kept in front):
            front.append(cost)
    kept = set(front)
    return {cut for cut, cost in catalog.costs.items() if cost in kept}


def oracle_multiobjective(catalog: CutCatalog) -> set[Cut]:
    """Cuts F with no F' that is <= on the first t-1 criteria and < on the last.

    Equivalently, F is budget-optimal at the budget vector b_i = c_i(F).
    Such an F' sorts before F, and the relation is transitive, so the
    cost-vector-ordered front of ``oracle_pareto`` decides it too.
    """
    if catalog.t < 1:
        raise InstanceError("the multiobjective oracle needs a cost criterion")
    return _front(catalog, _beats)


def oracle_bmulti(catalog: CutCatalog, budgets) -> set[Cut]:
    """All minimizers of the last criterion among cuts within the budgets."""
    if catalog.t < 1:
        raise InstanceError("the budgeted oracle needs a cost criterion")
    budgets = exact_ints(budgets, catalog.t - 1, "budget")
    feasible = [(cut, cost) for cut, cost in catalog.costs.items()
                if all(cost[i] <= budgets[i] for i in range(catalog.t - 1))]
    if not feasible:
        return set()
    best = min(cost[-1] for _, cost in feasible)
    return {cut for cut, cost in feasible if cost[-1] == best}


def oracle_parametric_t2(catalog: CutCatalog) -> set[Cut]:
    """Cuts minimal under lam*c1 + (1-lam)*c2 for some lam strictly in (0,1).

    The minimum over cuts is the lower envelope of their lines in lam, whose
    pieces are the vertices of the lower-left convex hull of the distinct
    cost vectors.  So every cut is weighed, in exact integers, at the
    envelope's breakpoints and at the midpoints around them; a cut minimal
    anywhere in (0,1) is minimal at one of those.  Restricted to t = 2.
    """
    if catalog.t != 2:
        raise InstanceError("parametric membership oracle supports t=2 only")
    vectors = sorted(set(catalog.costs.values()))
    hull = []
    for a1, a2 in vectors:
        if hull and a2 >= hull[-1][1]:
            continue  # no lower in c2 than a vector no higher in c1
        # drop the last vertex while it lies on or above the chord to here
        while len(hull) > 1:
            (o1, o2), (p1, p2) = hull[-2:]
            if (p1 - o1) * (a2 - o2) > (p2 - o2) * (a1 - o1):
                break
            hull.pop()
        hull.append((a1, a2))
    # lines a and b cross where lam*(a1-a2) + a2 = lam*(b1-b2) + b2
    breaks = [Fraction(a2 - b2, (a2 - b2) + (b1 - a1))
              for (a1, a2), (b1, b2) in zip(hull, hull[1:])]
    bounds = [Fraction(0)] + breaks + [Fraction(1)]
    best = set()
    for lam in breaks + [(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])]:
        p, q = lam.numerator, lam.denominator
        values = [p * c1 + (q - p) * c2 for c1, c2 in vectors]
        low = min(values, default=None)
        best.update(c for c, v in zip(vectors, values) if v == low)
    return {cut for cut, cost in catalog.costs.items() if cost in best}


def oracle_nb_bmulti(G: Hypergraph, budgets, override_guard: bool = False):
    """Node-budgeted optimum: min cost delta(X) over X with w_i(X) <= b_i.

    Returns (optimal cost, set of optimal cuts), or INFEASIBLE when no
    nonempty proper vertex set satisfies the budgets.  Cost is criterion 0.
    """
    if G.n > CATALOG_GUARD and not override_guard:
        raise InstanceError(
            f"n={G.n} exceeds the 2^n oracle guard ({CATALOG_GUARD})")
    budgets = exact_ints(budgets, G.t_weights, "node budget")
    if G.t_costs < 1:
        raise InstanceError("the node-budgeted oracle needs a cost criterion")
    weights = G.weights_by_criterion()
    masks = G.edge_masks
    full = G.full_mask
    best = None
    best_cuts: set[Cut] = set()
    for side in range(1, full):
        if any(mask_sum(wcol, side) > b for wcol, b in zip(weights, budgets)):
            continue
        other = full & ~side
        ids = tuple(eid for eid, em in enumerate(masks)
                    if (em & side) and (em & other))
        value = sum(G.edge_costs[eid][0] for eid in ids)
        if best is None or value < best:
            best = value
            best_cuts = {Cut(ids)}
        elif value == best:
            best_cuts.add(Cut(ids))
    if best is None:
        return INFEASIBLE
    return best, best_cuts


def oracle_kcut(G: Hypergraph, k: int, sizes, weighted_costs: bool = False,
                override_guard: bool = False):
    """Size-constrained min-k-cut by scanning all label assignments.

    A partition is feasible when some matching of parts to the size lower
    bounds works; all k! matchings are checked rather than assuming sorted
    parts.  Vertex weights are criterion 0 (unit if the instance carries no
    weights) and must be positive.  Returns (optimal value, set of optimal
    cuts) or INFEASIBLE.
    """
    if G.n > KCUT_GUARD and not override_guard:
        raise InstanceError(f"n={G.n} exceeds the k^n oracle guard ({KCUT_GUARD})")
    sizes = exact_ints(sizes, exact_int(k, "k", 2), "part size", 1)
    if weighted_costs and G.t_costs < 1:
        raise InstanceError("weighted costs need a cost criterion")
    weights = G.weights_by_criterion()
    w = weights[0] if weights else [1] * G.n
    if any(x < 1 for x in w):
        raise InstanceError(
            "size-constrained cuts require positive vertex weights")
    if G.n < k:
        return INFEASIBLE

    best = None
    best_cuts: set[Cut] = set()
    # Vertex 0 pinned to part 0: feasibility and delta are label-symmetric.
    for rest in product(range(k), repeat=G.n - 1):
        labels = (0,) + rest
        if len(set(labels)) != k:
            continue
        part_w = [0] * k
        for v, lab in enumerate(labels):
            part_w[lab] += w[v]
        if not any(all(part_w[perm[i]] >= sizes[i] for i in range(k))
                   for perm in permutations(range(k))):
            continue
        cut = delta_partition(G, labels)
        if weighted_costs:
            value = sum(G.edge_costs[eid][0] for eid in cut.edge_ids)
        else:
            value = len(cut)
        if best is None or value < best:
            best = value
            best_cuts = {cut}
        elif value == best:
            best_cuts.add(cut)
    if best is None:
        return INFEASIBLE
    return best, best_cuts


def oracle_min_cut(catalog: CutCatalog):
    """(min cost, set of minimum cuts) under criterion 0."""
    if not catalog.costs:
        raise InstanceError("catalog is empty (single-vertex hypergraph?)")
    if catalog.t < 1:
        raise InstanceError("the min-cut oracle needs a cost criterion")
    best = min(cost[0] for cost in catalog.costs.values())
    return best, {cut for cut, cost in catalog.costs.items()
                  if cost[0] == best}
