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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from ._engine import draw_below
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


class DrawNode:
    """One node of a weighted-draw trie.

    ``items`` are the items not yet drawn, in their original order, with
    cumulative weights ``cum`` summing to ``total``.  ``children[pos]`` is
    the node left once the item at ``pos`` is drawn, or False while orders
    have taken that branch only once.  Orders drawn over one trie share its
    nodes, so a draw on a stored branch is one ``draw_below``, one bisect
    and one dict hop.
    """

    __slots__ = ("items", "cum", "total", "children")

    def __init__(self, items, cum):
        self.items = items
        self.cum = cum
        self.total = cum[-1] if cum else 0
        self.children: dict[int, DrawNode | bool] = {}

    @classmethod
    def root(cls, items, weights) -> DrawNode:
        """The trie over ``items`` with positive integer ``weights``."""
        return cls(list(items), list(accumulate(weights)))

    def child(self, pos: int) -> DrawNode:
        """A new node for the items left once ``items[pos]`` is drawn."""
        cum = self.cum
        w = cum[pos] - cum[pos - 1] if pos else cum[0]
        return DrawNode(self.items[:pos] + self.items[pos + 1:],
                        cum[:pos] + [c - w for c in cum[pos + 1:]])


def never_keep() -> bool:
    """The ``keep`` of an order whose draws no other order replays."""
    return False


class LazyWeightedOrder:
    """Weighted-without-replacement ordering of items, materialized on demand.

    Equivalent to drawing the full permutation upfront by repeatedly picking a
    not-yet-chosen item with probability proportional to its weight, but only
    the consumed prefix is actually drawn.  Weights must be positive
    integers.  Each pick is the item at ``bisect_right(cum,
    randrange(total))`` among those left.

    The order is a cursor over a ``DrawNode`` trie.  A pick on a stored
    branch moves it to the child node.  Any other pick leaves the trie: the
    order copies the items left into flat lists and draws on from them in
    place, building no node.  Each stored branch costs one ``keep()`` that
    returned True: the first time an order takes a branch it is marked, the
    second time its node is built and stored.  A prefix drawn once in a
    long run is seldom drawn again, so it takes no node.  An order that no
    other order shares passes ``never_keep`` and draws all but its first
    pick from flat lists.
    """

    def __init__(self, node: DrawNode, rng: random.Random, keep):
        self.node = node
        self._rng = rng
        self._keep = keep
        self._items = None  # the flat lists, once the order leaves the trie
        self._weights = None
        self._total = 0
        self.prefix: list = []

    def ensure(self, length: int) -> None:
        """Materialize the first ``length`` entries (or all, if fewer remain)."""
        prefix = self.prefix
        rng = self._rng
        if self._items is None:
            node = self.node
            while len(prefix) < length and node.total:
                pos = bisect_right(node.cum, draw_below(rng, node.total))
                prefix.append(node.items[pos])
                nxt = node.children.get(pos)
                if not nxt:  # a branch not stored yet
                    if nxt is None:
                        if self._keep():
                            node.children[pos] = False
                        self._leave_trie(node, pos)
                        break
                    nxt = node.children[pos] = node.child(pos)
                node = self.node = nxt
            else:
                return
        # off the trie: the linear scan and two pops per pick
        items, weights = self._items, self._weights
        total = self._total
        while len(prefix) < length and total > 0:
            target = draw_below(rng, total)
            acc = 0
            for pos, w in enumerate(weights):
                acc += w
                if acc > target:
                    break
            prefix.append(items.pop(pos))
            total -= weights.pop(pos)
        self._total = total

    def _leave_trie(self, node: DrawNode, pos: int) -> None:
        """Continue in flat lists of the items ``node`` leaves once ``pos``
        is drawn."""
        cum = node.cum
        self._weights = [b - a for a, b in zip([0] + cum, cum)]
        self._total = node.total - self._weights.pop(pos)
        self._items = node.items[:pos] + node.items[pos + 1:]


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


def best_of_n(walk, trials: int | None, seed: int) -> BestOf:
    """Run ``walk`` on trials 0..trials-1 of ``seed``; keep the least value.

    ``trials`` defaults to ``default_trials(walk.floor)``.  Only witnessed
    outcomes count, valued by ``walk.value(mask)`` (None rejects a cut).
    Ties keep the earliest trial.
    """
    if trials is None:
        trials = default_trials(walk.floor)
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
