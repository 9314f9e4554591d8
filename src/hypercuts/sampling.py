"""Reproducible randomness helpers.

All algorithms draw from a ``random.Random`` instance so that every run is
replayable from a seed.  Monte-Carlo trials use per-trial generators derived
from (master seed, trial index) via a splitmix64-style jump, which makes
trials independent and safe to execute in any order or in parallel.
Every algorithm draw is ``getrandbits`` rejection below a bound:
``draw_below``, or its calls written out in a hot loop.  ``DrawNode`` and
``LazyWeightedOrder`` draw weighted orders lazily; ``pick_table`` makes a
pick of at most 8 bits one byte lookup per call.
"""

from __future__ import annotations

import random
from itertools import accumulate

from .hypergraph import exact_int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def draw_below(rng, n: int) -> int:
    """``rng.randrange(n)`` for an int ``n >= 1``, from one call frame.

    Makes the same ``getrandbits(n.bit_length())`` rejection calls as
    CPython 3.11's ``Random.randrange(n)``, so it returns the same value and
    leaves the generator in the same state.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def splitmix64(x: int) -> int:
    """One splitmix64 finalizer step (64-bit avalanche mix)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for trial ``index``: splitmix64 state jumped ``index + 1`` steps."""
    exact_int(master_seed, "seed")
    exact_int(index, "trial index", 0)
    return splitmix64(master_seed + (index + 1) * _GAMMA)


def derive_rng(master_seed: int, index: int) -> random.Random:
    return random.Random(derive_seed(master_seed, index))


def trial_rngs(master_seed: int, start: int, count: int):
    """``derive_rng(master_seed, i)`` for each trial ``i`` in ``start ..
    start+count-1``, as one ``random.Random`` reseeded in place (the C-level
    seed of ``Random(x)``): each is valid only until the next is drawn.  The
    arguments are checked once; each trial steps the splitmix64 state and
    mixes it as ``splitmix64`` does, written out."""
    state = exact_int(master_seed, "seed") + exact_int(start, "trial index", 0) * _GAMMA
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    for _ in range(exact_int(count, "trial count", 0)):
        state += _GAMMA
        x = state & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        reseed(x ^ (x >> 31))
        rng.gauss_next = None  # as Random.seed resets it
        yield rng


REJECT = 255  # a pick table's mark for a draw at or above the total


def pick_table(cum) -> bytes | None:
    """The position ``bisect_right(cum, r)`` of every ``k``-bit draw ``r``
    below the total ``cum[-1]``, ``k`` its bit length, and ``REJECT`` for
    the draws at or above it; None when ``k`` exceeds 8.  Weights are
    positive, so a total below 256 has at most 255 positions and ``REJECT``
    is none of them.  A pick by the table makes the ``getrandbits(k)``
    calls of ``draw_below`` and lands where its bisect does."""
    total = cum[-1]
    if total >= 256:
        return None
    runs = [bytes((pos,)) * (c - prev)
            for pos, (prev, c) in enumerate(zip([0] + cum, cum))]
    runs.append(bytes((REJECT,)) * ((1 << total.bit_length()) - total))
    return b"".join(runs)


class DrawNode:
    """One node of a weighted-draw trie: an order drawn ``depth`` items deep.

    ``order`` holds the ``depth`` items drawn, in draw order, then the items
    left, in their original order, whose cumulative weights ``cum`` sum to
    ``total``.  ``children[pos]`` is the stored node left once the item left
    at ``pos`` is drawn, or False while orders have taken that branch only
    once.  Orders drawn over one trie share its nodes, so a draw on a stored
    branch is one ``draw_below``, one bisect and one dict hop; a total below
    256 may pick by ``pick_table(cum)`` in place of the bisect.  A node off
    the trie (``children`` None) stores and marks no branch: a draw on it
    builds a new off-trie node.  No node changes once built.
    """

    __slots__ = ("order", "depth", "cum", "total", "children")

    def __init__(self, order, depth, cum, children):
        self.order = order
        self.depth = depth
        self.cum = cum
        self.total = cum[-1] if cum else 0
        self.children: dict[int, DrawNode | bool] | None = children

    @classmethod
    def root(cls, items, weights) -> DrawNode:
        """The trie over ``items`` with positive integer ``weights``."""
        return cls(tuple(items), 0, list(accumulate(weights)), {})

    def child(self, pos: int, children=None) -> DrawNode:
        """A new node for the order once the item left at ``pos`` is drawn:
        on the trie with ``children`` a dict, else off it."""
        depth, cum = self.depth, self.cum
        w = cum[pos] - cum[pos - 1] if pos else cum[0]
        # one list copy and a move: cheaper than slicing the tuple four ways
        moved = list(self.order)
        moved.insert(depth, moved.pop(depth + pos))
        return DrawNode(tuple(moved), depth + 1,
                        cum[:pos] + [c - w for c in cum[pos + 1:]], children)


class LazyWeightedOrder:
    """Weighted-without-replacement ordering of items, materialized on demand.

    Equivalent to drawing the full permutation upfront by repeatedly picking a
    not-yet-chosen item with probability proportional to its weight, but only
    the consumed prefix is actually drawn.  Weights must be positive
    integers.  A pick is a ``DrawNode``'s: ``draw_below`` of the total, and
    the first item left whose running sum is above the draw.  A Fenwick tree
    over the original positions, with a drawn item's weight set to 0, finds
    that item by one top-down descent, so a pick is O(log m).
    """

    def __init__(self, items, weights, rng: random.Random):
        self._items = list(items)
        self._weights = list(weights)
        self._total = sum(self._weights)
        self._tree = tree = [0] + self._weights  # 1-based Fenwick sums
        for i in range(1, len(tree)):
            j = i + (i & -i)
            if j < len(tree):
                tree[j] += tree[i]
        self._rng = rng
        self.prefix: list = []

    def ensure(self, length: int) -> None:
        """Materialize the first ``length`` entries (or all, if fewer remain)."""
        prefix, tree, rng = self.prefix, self._tree, self._rng
        m = len(self._items)
        top = 1 << m.bit_length() >> 1  # the largest power of 2 <= m
        while len(prefix) < length and self._total > 0:
            r = draw_below(rng, self._total)
            pos, step = 0, top
            while step:  # the most positions whose sum is at most r
                nxt = pos + step
                if nxt <= m and tree[nxt] <= r:
                    pos = nxt
                    r -= tree[nxt]
                step >>= 1
            w = self._weights[pos]
            prefix.append(self._items[pos])
            self._total -= w
            pos += 1
            while pos <= m:
                tree[pos] -= w
                pos += pos & -pos
