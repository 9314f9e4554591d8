"""Reproducible randomness helpers.

All algorithms draw from a ``random.Random`` instance so that every run is
replayable from a seed.  Monte-Carlo trials use per-trial generators derived
from (master seed, trial index) via a splitmix64-style jump, which makes
trials independent and safe to execute in any order or in parallel.
``best_of_n`` keeps the cheapest cut over such trials of one walk.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .hypergraph import Cut, InstanceError, INFEASIBLE, exact_int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 finalizer step (64-bit avalanche mix)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for trial ``index``: splitmix64 state jumped ``index + 1`` steps."""
    if index < 0:
        raise ValueError("trial index must be non-negative")
    state = (master_seed + (index + 1) * _GAMMA) & _MASK64
    return splitmix64(state)


def derive_rng(master_seed: int, index: int) -> random.Random:
    return random.Random(derive_seed(master_seed, index))


class LazyWeightedOrder:
    """Weighted-without-replacement ordering of items, materialized on demand.

    Equivalent to drawing the full permutation upfront by repeatedly picking a
    not-yet-chosen item with probability proportional to its weight, but only
    the consumed prefix is actually drawn.  Weights must be positive integers.
    """

    def __init__(self, items, weights, rng: random.Random):
        self._items = list(items)
        self._weights = list(weights)
        self._total = sum(self._weights)
        self._rng = rng
        self.prefix: list = []

    def ensure(self, length: int) -> None:
        """Materialize the first ``length`` entries (or all, if fewer remain)."""
        while len(self.prefix) < length and self._total > 0:
            target = self._rng.randrange(self._total)
            acc = 0
            for pos, w in enumerate(self._weights):
                acc += w
                if acc > target:
                    break
            self.prefix.append(self._items.pop(pos))
            self._total -= self._weights.pop(pos)

    @property
    def exhausted_at(self) -> int | None:
        """Length at which the order runs out, or None while items remain."""
        return len(self.prefix) if self._total == 0 else None


def default_trials(floor: Fraction) -> int:
    """max(1000, ceil(30/floor)): at least 30 successes expected at the floor."""
    if floor <= 0:
        raise InstanceError("floor must be positive")
    return max(1000, math.ceil(30 / floor))


@dataclass(frozen=True)
class BestOf:
    """Cheapest cut found by ``trials`` seeded runs of a walk.

    ``cut`` and ``value`` are None when no run produced an acceptable cut;
    ``infeasible_runs`` counts the runs that returned INFEASIBLE.
    """

    cut: Cut | None
    value: int | None
    trials: int
    infeasible_runs: int


def best_of_n(walk, trials: int, seed: int) -> BestOf:
    """Run ``walk`` on trials 0..trials-1 of ``seed``; keep the least value.

    Only witnessed outcomes count, valued by ``walk.value(mask)`` (None
    rejects a cut).  Ties keep the earliest trial.
    """
    exact_int(trials, "trials", 1)
    value = walk.value
    best_mask = best_val = None
    infeasible_runs = 0
    for idx in range(trials):
        out = walk.run(derive_rng(seed, idx))
        if out is INFEASIBLE:
            infeasible_runs += 1
            continue
        mask, witnessed = out
        if not witnessed:
            continue
        val = value(mask)
        if val is not None and (best_val is None or val < best_val):
            best_val, best_mask = val, mask
    cut = None if best_mask is None else Cut.from_mask(best_mask)
    return BestOf(cut, best_val, trials, infeasible_runs)
