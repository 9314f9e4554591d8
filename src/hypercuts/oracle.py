"""Exhaustive ground truth for small instances.

Every oracle here enumerates the full solution space (all 2^(n-1)-1
bipartitions, or all k^n label assignments) and applies the problem
definitions literally.  They exist to verify the randomized algorithms, not
to be fast: hard size guards refuse instances beyond desk scale unless
explicitly overridden.  ``is_cut`` answers catalog membership without
building the catalog.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from ._engine import (contract_comps, delta_mask, ids_mask, initial_comps,
                      present_edge_ids, side_mask)
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
    """Catalog of every cut of G (complete, deduplicated, exact costs)."""
    if G.n > CATALOG_GUARD and not override_guard:
        raise InstanceError(
            f"n={G.n} exceeds the 2^n oracle guard ({CATALOG_GUARD}); "
            "pass override_guard=True to force")
    cat = CutCatalog(G)
    masks = G.edge_masks
    full = G.full_mask
    # Vertex 0 stays on the complement side, so each unordered bipartition
    # is visited exactly once.
    for side_bits in range(1, 1 << (G.n - 1)):
        side = side_bits << 1
        other = full & ~side
        ids = tuple(eid for eid, em in enumerate(masks)
                    if (em & side) and (em & other))
        cut = Cut(ids)
        if cut not in cat.costs:
            cat.costs[cut] = G.cut_costs(cut)
    return cat


def is_cut(G: Hypergraph, cut: Cut) -> bool:
    """True iff ``cut`` is delta(X) for some nonempty proper X, i.e. iff it
    is in ``build_catalog(G)``.

    Every edge outside the cut lies on one side of X, so X is a union of the
    components left by contracting those edges; the search runs over the
    2^(c-1) unions of the c components instead of the 2^(n-1) sides.
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
    """Cuts not dominated by any other cut."""
    items = list(catalog.costs.items())
    result = set()
    for cut, cost in items:
        if not any(dominates(c2, cost) for _, c2 in items if c2 != cost):
            result.add(cut)
    return result


def oracle_multiobjective(catalog: CutCatalog) -> set[Cut]:
    """Cuts F with no F' that is <= on the first t-1 criteria and < on the last.

    Equivalently, F is budget-optimal at the budget vector b_i = c_i(F).
    """
    items = list(catalog.costs.items())
    result = set()
    for cut, cost in items:
        beaten = any(
            c2[-1] < cost[-1] and all(c2[i] <= cost[i] for i in range(len(cost) - 1))
            for _, c2 in items)
        if not beaten:
            result.add(cut)
    return result


def oracle_bmulti(catalog: CutCatalog, budgets) -> set[Cut]:
    """All minimizers of the last criterion among cuts within the budgets."""
    budgets = exact_ints(budgets, catalog.t - 1, "budget")
    feasible = [(cut, cost) for cut, cost in catalog.costs.items()
                if all(cost[i] <= budgets[i] for i in range(catalog.t - 1))]
    if not feasible:
        return set()
    best = min(cost[-1] for _, cost in feasible)
    return {cut for cut, cost in feasible if cost[-1] == best}


def oracle_parametric_t2(catalog: CutCatalog) -> set[Cut]:
    """Cuts minimal under lam*c1 + (1-lam)*c2 for some lam strictly in (0,1).

    Decided exactly by a breakpoint sweep: candidate lambdas are all pairwise
    line intersections inside (0,1), the midpoints of the intervals between
    them, and 1/2 as a fallback.  Restricted to t = 2.
    """
    if catalog.t != 2:
        raise InstanceError("parametric membership oracle supports t=2 only")
    items = list(catalog.costs.items())
    if not items:
        return set()
    # Each cut is the line lam -> lam*c1 + (1-lam)*c2 = lam*(c1-c2) + c2.
    lines = [(Fraction(c1 - c2), Fraction(c2)) for _, (c1, c2) in items]

    points = set()
    for i in range(len(lines)):
        a1, b1 = lines[i]
        for j in range(i + 1, len(lines)):
            a2, b2 = lines[j]
            if a1 != a2:
                lam = (b2 - b1) / (a1 - a2)
                if 0 < lam < 1:
                    points.add(lam)
    sweep = sorted(points)
    candidates = list(sweep)
    bounds = [Fraction(0)] + sweep + [Fraction(1)]
    for lo, hi in zip(bounds, bounds[1:]):
        candidates.append((lo + hi) / 2)
    if not candidates:
        candidates = [Fraction(1, 2)]

    result = set()
    for lam in candidates:
        values = [a * lam + b for a, b in lines]
        best = min(values)
        for (cut, _), val in zip(items, values):
            if val == best:
                result.add(cut)
    return result


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
        ok = True
        for wcol, b in zip(weights, budgets):
            total = 0
            bits = side
            v = 0
            while bits:
                if bits & 1:
                    total += wcol[v]
                    if total > b:
                        break
                bits >>= 1
                v += 1
            if total > b:
                ok = False
                break
        if not ok:
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
        raise InstanceError("size-constrained oracle requires positive vertex weights")
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
