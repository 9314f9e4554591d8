"""Closed-form analysis artifacts and test-instance generators.

Covers the linear program whose optimum has a closed form (checked against
an independent extreme-point/grid brute force), the exact binomial ratio
inequality used by the size-constrained analysis, the pareto lower-bound
family (hub-to-hub parallel paths), and a seeded random instance generator.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb, lcm
from operator import mul
from types import MappingProxyType

from .hypergraph import Hypergraph, InstanceError, exact_int

LP_RANK_GUARD = 8


@dataclass(frozen=True)
class LpInstance:
    """Parameters of the contraction-analysis LP.

    Variables x_2..x_r, y_2..y_r are implicit; `f` maps each argument in
    {n-r+1, ..., n-1} to a positive value (kept as a finite table so equality
    checks stay exact).  `r`, `gamma` and `n` must be ints and every `f` value
    an int or a Fraction; bools, floats and strings raise InstanceError.  The
    validated table is stored read-only, so an instance cannot change after
    the checks and equal instances hash equally.
    """

    r: int
    gamma: int
    n: int
    f: Mapping[int, Fraction]

    def __post_init__(self):
        for name in ("r", "gamma", "n"):
            exact_int(getattr(self, name), name)
        if not (self.n >= self.gamma >= self.r + 1 > 2):
            raise InstanceError(
                f"need n >= gamma >= r+1 > 2, got n={self.n} gamma={self.gamma} r={self.r}")
        table = {}
        for k, v in self.f.items():
            if not isinstance(v, Fraction):
                exact_int(v, f"f({k})")
            table[k] = Fraction(v)
        for j in range(2, self.r + 1):
            arg = self.n - j + 1
            if arg not in table:
                raise InstanceError(f"f is missing the value at {arg}")
            if table[arg] <= 0:
                raise InstanceError("f must be strictly positive on the queried range")
        object.__setattr__(self, "f", MappingProxyType(table))

    def __hash__(self):
        return hash((self.r, self.gamma, self.n, frozenset(self.f.items())))


def lp_closed_form(inst: LpInstance) -> Fraction:
    """min over j in 2..r of (1 - j/(gamma-r+j)) * f(n-j+1), exactly."""
    return min(
        (1 - Fraction(j, inst.gamma - inst.r + j)) * inst.f[inst.n - j + 1]
        for j in range(2, inst.r + 1))


def _best_objective_given_x(counts, js, fs, gamma: int) -> int:
    """Minimize the LP objective over y at one grid point, in exact integers.

    The grid point is x_j = c_j/grid_step.  With x fixed, maximizing
    sum y_j f(n-j+1) subject to 0 <= y_j <= x_j and gamma*sum(y) <= sum(j*x_j)
    is a fractional knapsack: fill the y_j with the largest f first.
    `counts`, `js` (the index j) and `fs` (F_j = f(n-j+1)*D for a common
    denominator D) list the variables in that knapsack order.  Every quantity
    is scaled by grid_step*gamma*D (x_j and y_j by grid_step*gamma, f by D),
    so the result is the objective times grid_step*gamma*D.
    """
    budget = sum(map(mul, js, counts))
    obj = gamma * sum(map(mul, fs, counts))
    for c, fj in zip(counts, fs):
        take = gamma * c
        if take >= budget:
            return obj - budget * fj
        obj -= take * fj
        budget -= take
    return obj


def _compositions(total: int, parts: int):
    """Every tuple of `parts` non-negative ints that sums to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _grid_floor(inst: LpInstance, grid_step: int) -> Fraction:
    """Minimum LP objective over the grid x_j = c_j/grid_step, sum c_j = grid_step.

    The set of grid points is closed under permuting the coordinates, so the
    counts are generated directly in knapsack order (largest f first), which
    is fixed per instance.
    """
    r, gamma = inst.r, inst.gamma
    values = [inst.f[inst.n - j + 1] for j in range(2, r + 1)]
    order = sorted(range(r - 1), key=values.__getitem__, reverse=True)
    denom = lcm(*(v.denominator for v in values))
    js = [i + 2 for i in order]
    fs = [values[i].numerator * (denom // values[i].denominator) for i in order]
    low = min(map(_best_objective_given_x, _compositions(grid_step, r - 1),
                  repeat(js), repeat(fs), repeat(gamma)))
    return Fraction(low, grid_step * gamma * denom)


def lp_bruteforce(inst: LpInstance, grid_step: int | None = None) -> Fraction:
    """Minimum objective over the candidate extreme points, plus a grid floor.

    The two candidate families come from the extreme-point case analysis
    (either one slack pair at the same index j, giving y_j = j/gamma, or two
    indices j1 != j2 with x_j1 = j2/(gamma-j1+j2)); a dense feasibility grid
    over the x-simplex is evaluated as an independent sanity floor.  Must
    equal lp_closed_form exactly.  `grid_step` must be an int >= 1.
    """
    if inst.r > LP_RANK_GUARD:
        raise InstanceError(f"rank {inst.r} exceeds the brute-force guard ({LP_RANK_GUARD})")
    if grid_step is None:
        # Redundant floor below the extreme-point candidates; coarsened for
        # larger r where the simplex grid explodes combinatorially.
        grid_step = 256 if inst.r <= 3 else (64 if inst.r == 4 else 16)
    else:
        exact_int(grid_step, "grid_step", 1)
    r, gamma = inst.r, inst.gamma
    candidates = []
    for j in range(2, r + 1):
        # single index: x_j = 1, y_j = j/gamma
        candidates.append((1 - Fraction(j, gamma)) * inst.f[inst.n - j + 1])
    for j1 in range(2, r + 1):
        for j2 in range(2, r + 1):
            if j1 == j2:
                continue
            # x_j1 = y_j1 = j2/(gamma-j1+j2), x_j2 = 1 - x_j1, y_j2 = 0
            candidates.append(
                (1 - Fraction(j2, gamma - j1 + j2)) * inst.f[inst.n - j2 + 1])
    return min(min(candidates), _grid_floor(inst, grid_step))


def ratio_inequality_check(n: int, e: int, sigma: int) -> bool:
    """Exact check of C(n-e,s)/C(n,s) * 1/C(n-e+1,2s) >= 1/C(n,2s).

    Requires positive integers with e >= 2 and n - e + 1 > 2*sigma.
    """
    if n < 1 or e < 2 or sigma < 1:
        raise InstanceError("need n >= 1, e >= 2, sigma >= 1")
    if n - e + 1 <= 2 * sigma:
        raise InstanceError("hypothesis requires n - e + 1 > 2*sigma")
    lhs = comb(n - e, sigma) * comb(n, 2 * sigma)
    rhs = comb(n, sigma) * comb(n - e + 1, 2 * sigma)
    return lhs >= rhs


def gen_lower_bound_instance(n: int, t: int) -> Hypergraph:
    """Rank-2 instance with two hubs joined by t internally-disjoint paths.

    Edges on path i cost t+1 under criterion i and 1 under every other
    criterion (the rational construction cleared by a common denominator, so
    all costs are exact integers).  Every cut picking exactly one edge per
    path has the equal cost vector (2t, ..., 2t); there are at least
    ((n-2)/t)^t such cuts and all of them are pareto-optimal.
    """
    if t < 1:
        raise InstanceError("need at least one criterion")
    if n < t + 2:
        raise InstanceError(f"need n >= t+2, got n={n} t={t}")
    u, v = 0, 1
    internal = n - 2
    base, extra = divmod(internal, t)
    edges, costs = [], []
    next_vertex = 2
    for i in range(t):
        path_internal = base + (1 if i < extra else 0)
        chain = [u] + [next_vertex + j for j in range(path_internal)] + [v]
        next_vertex += path_internal
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
            costs.append(tuple(t + 1 if j == i else 1 for j in range(t)))
    return Hypergraph(n, edges, costs, t_weights=0)


def gen_random_instance(n: int, m: int, rank: int, t_costs: int, t_weights: int,
                        max_cost: int = 8, max_weight: int = 8, seed: int = 0,
                        positive_weights: bool = False) -> Hypergraph:
    """Seeded random hypergraph: m edges with sizes uniform in [2, rank].

    Vertices within an edge are distinct; costs are uniform in [0, max_cost]
    and weights in [0, max_weight] (or [1, max_weight] with positive_weights,
    as the size-constrained problems require).  Connectivity is not
    guaranteed; disconnected instances have empty min-cuts and are valid.
    """
    if rank < 2 or n < rank:
        raise InstanceError("need rank >= 2 and n >= rank")
    if positive_weights and (t_weights < 1 or max_weight < 1):
        raise InstanceError("positive weights need t_weights >= 1 and max_weight >= 1")
    exact_int(m, "edge count", 0)
    exact_int(max_cost, "max cost", 0)
    exact_int(max_weight, "max weight", 0)
    rng = random.Random(seed)
    edges, costs = [], []
    for _ in range(m):
        size = rng.randrange(2, rank + 1)
        edges.append(tuple(sorted(rng.sample(range(n), size))))
        costs.append(tuple(rng.randrange(max_cost + 1) for _ in range(t_costs)))
    low = 1 if positive_weights else 0
    weights = [tuple(rng.randrange(low, max_weight + 1) for _ in range(t_weights))
               for _ in range(n)]
    return Hypergraph(n, edges, costs, weights, t_costs=t_costs, t_weights=t_weights)

