"""The integer grid kernel of ``lp_bruteforce`` against the Fraction loop it replaced.

The extreme-point candidates nearly always beat the grid, so comparing
``lp_bruteforce`` with ``lp_closed_form`` would not notice a grid kernel that
returns values that are too high.  ``reference_grid_floor`` is the grid as it
was written before the integer kernel: every multiset of ``grid_step``
variable indices from ``combinations_with_replacement``, recounted into
``Fraction`` coordinates and solved as a fractional knapsack re-sorted at
every point.  ``_grid_floor`` must return the identical ``Fraction``.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hypercuts.analysis import LpInstance, _grid_floor, lp_closed_form


def reference_point(inst, x):
    r, gamma = inst.r, inst.gamma
    budget = sum(Fraction(j) * x[j - 2] for j in range(2, r + 1)) / gamma
    order = sorted(range(2, r + 1), key=lambda j: inst.f[inst.n - j + 1],
                   reverse=True)
    obj = sum(x[j - 2] * inst.f[inst.n - j + 1] for j in range(2, r + 1))
    for j in order:
        take = min(x[j - 2], budget)
        obj -= take * inst.f[inst.n - j + 1]
        budget -= take
        if budget == 0:
            break
    return obj


def reference_grid_floor(inst, grid_step):
    nvars = inst.r - 1
    best = None
    for split in combinations_with_replacement(range(nvars), grid_step):
        counts = [0] * nvars
        for idx in split:
            counts[idx] += 1
        val = reference_point(inst, [Fraction(c, grid_step) for c in counts])
        if best is None or val < best:
            best = val
    return best


def default_step(r):
    return 256 if r <= 3 else (64 if r == 4 else 16)


def criterion_8_instances(seed, count):
    """The criterion-8 generator (acceptance suite, ``check lemma-lp``)."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randrange(2, 7)
        gamma = rng.randrange(r + 1, 13)
        n = gamma + rng.randrange(0, 9)
        f = {n - j + 1: Fraction(rng.randrange(1, 100), rng.randrange(1, 10))
             for j in range(2, r + 1)}
        yield LpInstance(r=r, gamma=gamma, n=n, f=f)


def coprime_instances():
    primes = [7, 11, 13, 17, 19]
    rng = random.Random(5)
    for r in range(2, 7):
        for _ in range(2):
            gamma = rng.randrange(r + 1, 13)
            n = gamma + rng.randrange(0, 4)
            f = {n - j + 1: Fraction(rng.randrange(1, 200), primes[j - 2])
                 for j in range(2, r + 1)}
            yield LpInstance(r=r, gamma=gamma, n=n, f=f)


def high_rank_instances():
    """Ranks 7 and 8: ``LP_RANK_GUARD`` admits them, the criterion-8
    generator never draws them."""
    rng = random.Random(78)
    for r in (7, 8):
        for _ in range(3):
            gamma = rng.randrange(r + 1, 13)
            n = gamma + rng.randrange(0, 9)
            f = {n - j + 1: Fraction(rng.randrange(1, 100), rng.randrange(1, 10))
                 for j in range(2, r + 1)}
            yield LpInstance(r=r, gamma=gamma, n=n, f=f)


def tied_instances():
    """f values drawn from few, so several j share one (6/1 = 12/2 = 18/3):
    the knapsack order is a tie-break and fills stop between equal items."""
    rng = random.Random(6)
    for r in range(3, 9):
        for _ in range(3):
            gamma = rng.randrange(r + 1, 13)
            n = gamma + rng.randrange(0, 4)
            f = {n - j + 1: Fraction(rng.choice((6, 12, 18)),
                                     rng.choice((1, 2, 3)))
                 for j in range(2, r + 1)}
            yield LpInstance(r=r, gamma=gamma, n=n, f=f)


def check_floor(inst, grid_step):
    floor = _grid_floor(inst, grid_step)
    assert type(floor) is Fraction
    assert floor == reference_grid_floor(inst, grid_step)
    assert floor >= lp_closed_form(inst)
    # x_j = 1 is a grid point at every step, and there the knapsack gives
    # the single-index extreme point (1 - j/gamma) * f(n-j+1).
    assert floor <= min((1 - Fraction(j, inst.gamma)) * inst.f[inst.n - j + 1]
                        for j in range(2, inst.r + 1))


@pytest.mark.parametrize("r", range(2, 7))
def test_grid_floor_matches_reference_at_default_step(r):
    picked = [inst for inst in criterion_8_instances(8, 200) if inst.r == r][:3]
    assert len(picked) == 3
    for inst in picked:
        check_floor(inst, default_step(r))


@pytest.mark.parametrize("grid_step", [1, 2, 7])
def test_grid_floor_matches_reference_at_small_steps(grid_step):
    ranks = set()
    for inst in criterion_8_instances(3, 60):
        check_floor(inst, grid_step)
        ranks.add(inst.r)
    assert ranks == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("grid_step", [1, 2, 7, 16])
def test_grid_floor_with_coprime_denominators(grid_step):
    for inst in coprime_instances():
        check_floor(inst, grid_step)


@pytest.mark.parametrize("grid_step", [1, 2, 4])
def test_grid_floor_at_ranks_7_and_8(grid_step):
    for inst in high_rank_instances():
        check_floor(inst, grid_step)


@pytest.mark.parametrize("grid_step", [1, 2, 4, 7])
def test_grid_floor_with_tied_values(grid_step):
    ties = 0
    for inst in tied_instances():
        check_floor(inst, grid_step)
        ties += len(set(inst.f.values())) < len(inst.f)
    assert ties >= 15
