"""Closed-form analysis artifacts and test-instance generators.

Covers the linear program whose optimum has a closed form (checked against
an independent extreme-point/grid brute force), the exact binomial ratio
inequality used by the size-constrained analysis, the pareto lower-bound
family (hub-to-hub parallel paths), and a seeded random instance generator.
It owns the two analysis sweeps, ``lemma_lp_sweep`` and
``ratio_inequality_sweep``, that ``check`` and acceptance criteria 8-9 run.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from types import MappingProxyType

from .hypergraph import Hypergraph, InstanceError, exact_bool, exact_int

LP_RANK_GUARD = 8


@dataclass(frozen=True)
class LpInstance:
    """Parameters of the contraction-analysis LP.

    Variables x_2..x_r, y_2..y_r are implicit; `f` maps each argument in
    {n-r+1, ..., n-1} to a positive value (kept as a finite table so equality
    checks stay exact).  `r` >= 2, `gamma` >= r+1 and `n` >= gamma must be
    ints and every `f` value an int or a Fraction; anything else raises
    InstanceError.  The validated table is stored read-only, so an instance
    cannot change after the checks and equal instances hash equally.
    """

    r: int
    gamma: int
    n: int
    f: Mapping[int, Fraction]

    def __post_init__(self):
        exact_int(self.r, "r", 2)
        exact_int(self.gamma, "gamma", self.r + 1)
        exact_int(self.n, "n", self.gamma)
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


def _grid_floor(inst: LpInstance, grid_step: int) -> Fraction:
    """Minimum LP objective over the grid x_j = c_j/grid_step, sum c_j = grid_step.

    The set of grid points is closed under permuting the coordinates, so the
    counts c are walked directly in knapsack order (largest f first), which
    is fixed per instance.  With x fixed, maximizing sum y_j f(n-j+1)
    subject to 0 <= y_j <= x_j and gamma*sum(y) <= sum(j*x_j) is a
    fractional knapsack: fill the y_j with the largest f first.  Every
    quantity is an exact int scaled by grid_step*gamma*D, for D the common
    denominator of the f values (x_j and y_j by grid_step*gamma, f by D, as
    F_j = f(n-j+1)*D), so item j's take is gamma*c_j and the budget is
    sum(j*c_j).

    The recursion fixes the leading counts one level each and records the
    prefix sums of their takes and of their values F_j*take.  The last
    level walks the two last items together: c on the next-to-last and
    left - c on the last, so each step moves the budget and the objective
    by a constant.  The fill then stops in one of three places: inside the
    fixed prefix, when the budget is at most its takes (one bisect of their
    prefix sums finds the item); on the next-to-last item, when its take
    covers what the prefix leaves; or on the last item.  The takes sum to
    gamma*grid_step > r*grid_step >= the budget, so the last item always
    suffices.  Each point's value is the same integer the item-by-item fill
    gives, so the minimum is exact.
    """
    r, gamma = inst.r, inst.gamma
    values = [inst.f[inst.n - j + 1] for j in range(2, r + 1)]
    order = sorted(range(r - 1), key=values.__getitem__, reverse=True)
    denom = lcm(*(v.denominator for v in values))
    js = [i + 2 for i in order]
    fs = [values[i].numerator * (denom // values[i].denominator) for i in order]
    if r == 2:  # one point, x_2 = 1, whose take covers the budget 2*grid_step
        return Fraction((gamma - 2) * fs[0], gamma * denom)
    fixed = len(js) - 2
    takes, gains = [0] * (fixed + 1), [0] * (fixed + 1)  # prefix sums
    jd, jl, fd, fl = js[fixed], js[fixed + 1], fs[fixed], fs[fixed + 1]
    top = gamma * grid_step * fs[0]  # no point's objective exceeds it

    def low(depth: int, left: int, budget: int) -> int:
        """The least objective over the points extending the first
        ``depth`` counts, whose takes and gains end the prefix sums."""
        p, g = takes[depth], gains[depth]
        best = top
        if depth < fixed:
            j, f = js[depth], fs[depth]
            for c in range(left + 1):
                takes[depth + 1], gains[depth + 1] = p + gamma * c, g + gamma * f * c
                value = low(depth + 1, left - c, budget + j * c)
                if value < best:
                    best = value
            return best
        b, obj = budget + jl * left, g + gamma * fl * left
        db, dobj = jd - jl, gamma * (fd - fl)
        for take in range(0, gamma * (left + 1), gamma):
            if b <= p:
                t = bisect_left(takes, b) - 1
                value = obj - gains[t] - (b - takes[t]) * fs[t]
            elif b <= p + take:
                value = obj - g - (b - p) * fd
            else:
                value = obj - g - take * fd - (b - p - take) * fl
            if value < best:
                best = value
            b += db
            obj += dobj
        return best

    return Fraction(low(0, grid_step, 0), grid_step * gamma * denom)


def lp_bruteforce(inst: LpInstance) -> Fraction:
    """Minimum objective over the candidate extreme points, plus a grid floor.

    The two candidate families come from the extreme-point case analysis
    (either one slack pair at the same index j, giving y_j = j/gamma, or two
    indices j1 != j2 with x_j1 = j2/(gamma-j1+j2)); a dense feasibility grid
    over the x-simplex is evaluated as an independent sanity floor.  Must
    equal lp_closed_form exactly.
    """
    if inst.r > LP_RANK_GUARD:
        raise InstanceError(f"rank {inst.r} exceeds the brute-force guard ({LP_RANK_GUARD})")
    # Redundant floor below the extreme-point candidates; coarsened for
    # larger r where the simplex grid explodes combinatorially.
    grid_step = 256 if inst.r <= 3 else (64 if inst.r == 4 else 16)
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

    Requires exact ints n >= 1, e >= 2, sigma >= 1 with n - e + 1 > 2*sigma.
    """
    exact_int(n, "n", 1)
    exact_int(e, "e", 2)
    exact_int(sigma, "sigma", 1)
    if n - e + 1 <= 2 * sigma:
        raise InstanceError("hypothesis requires n - e + 1 > 2*sigma")
    lhs = comb(n - e, sigma) * comb(n, 2 * sigma)
    rhs = comb(n, sigma) * comb(n - e + 1, 2 * sigma)
    return lhs >= rhs


def lemma_lp_sweep(seed: int, count: int) -> list[dict]:
    """Closed form against brute force on ``count`` >= 1 LP instances drawn
    from ``random.Random(seed)``: r in [2, 6], gamma in [r+1, 12], n in
    [gamma, gamma+8] and each f value a/b with a in [1, 99], b in [1, 9].
    Returns one record (r, gamma, n and both optima) per mismatch."""
    exact_int(count, "sweep", 1)
    rng = random.Random(exact_int(seed, "seed"))
    mismatches = []
    for _ in range(count):
        r = rng.randrange(2, 7)
        gamma = rng.randrange(r + 1, 13)
        n = gamma + rng.randrange(0, 9)
        f = {n - j + 1: Fraction(rng.randrange(1, 100), rng.randrange(1, 10))
             for j in range(2, r + 1)}
        inst = LpInstance(r=r, gamma=gamma, n=n, f=f)
        closed, brute = lp_closed_form(inst), lp_bruteforce(inst)
        if closed != brute:
            mismatches.append({"r": r, "gamma": gamma, "n": n,
                               "closed": str(closed), "brute": str(brute)})
    return mismatches


def ratio_inequality_sweep(max_n: int) -> tuple[int, int]:
    """``ratio_inequality_check`` on every (n, e, sigma) with n <= ``max_n``
    (at least 4, the smallest n with a case); returns (cases, violations)."""
    cases = violations = 0
    for n in range(4, exact_int(max_n, "max-n", 4) + 1):
        for e in range(2, n - 1):
            for sigma in range(1, (n - e) // 2 + 1):  # n - e + 1 > 2*sigma
                cases += 1
                violations += not ratio_inequality_check(n, e, sigma)
    return cases, violations


def gen_lower_bound_instance(n: int, t: int) -> Hypergraph:
    """Rank-2 instance with two hubs joined by t internally-disjoint paths.

    Edges on path i cost t+1 under criterion i and 1 under every other
    criterion (the rational construction cleared by a common denominator, so
    all costs are exact integers).  Every cut picking exactly one edge per
    path has the equal cost vector (2t, ..., 2t); there are at least
    ((n-2)/t)^t such cuts and all of them are pareto-optimal.
    """
    exact_int(n, "n", exact_int(t, "t", 1) + 2)
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
    as the size-constrained problems require); every count and the seed are
    exact ints.  Disconnected instances have empty min-cuts and are valid.
    """
    exact_int(n, "n", exact_int(rank, "rank", 2))
    low = 1 if exact_bool(positive_weights, "positive_weights") else 0
    for value, what, least in ((m, "edge count", 0), (t_costs, "t_costs", 0),
                               (t_weights, "t_weights", low),
                               (max_cost, "max cost", 0),
                               (max_weight, "max weight", low)):
        exact_int(value, what, least)
    rng = random.Random(exact_int(seed, "seed"))
    edges, costs = [], []
    for _ in range(m):
        size = rng.randrange(2, rank + 1)
        edges.append(tuple(sorted(rng.sample(range(n), size))))
        costs.append(tuple(rng.randrange(max_cost + 1) for _ in range(t_costs)))
    weights = [tuple(rng.randrange(low, max_weight + 1) for _ in range(t_weights))
               for _ in range(n)]
    return Hypergraph(n, edges, costs, weights, t_costs=t_costs, t_weights=t_weights)

