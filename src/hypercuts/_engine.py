"""The contraction-walk engine shared by every randomized algorithm.

States are partitions of the vertex set, represented as tuples of disjoint
vertex bitmasks sorted by lowest set bit.  The tuple form is hashable, which
lets the repeated-trial solvers memoize per-state data (present edges,
sampling tables) across Monte-Carlo runs on the same instance.

All five algorithms are the same absorbing chain over these states; only
the edge-weight rule and the stopping rule differ.  An algorithm supplies
them as an ``expand(comps) -> node`` function, and ``Walk`` caches the node
of every visited state.  A node is one of

* ``("sample", cum, total, eids, nexts)`` - contract edge ``eids[i]`` with
  probability proportional to its weight (``cum`` holds the prefix sums);
  ``nexts`` caches the successor states, built on first use;
* ``("merge", comps)`` - move to ``comps`` without drawing;
* ``("base", table, outcome)`` - draw a uniform subset of the components and
  return ``outcome(side)`` for the union ``side`` of the drawn ones; ``table``
  caches the outcome of each draw;
* ``("terminal", outcome)`` - stop with a fixed outcome;
* ``("draw", draw)`` - stop with the outcome ``draw(comps, rng)``;
* ``("level", draw, sample)`` - push the candidate ``draw(comps, rng)``
  with the live component count, then take one step of the nested sample
  node.  The candidate is a zero-argument function returning an outcome:
  ``draw`` makes every random choice, and the outcome is computed only for
  the candidate that survives;
* ``("delegate", walk)`` - continue with another walk from this state.

Once the walk stops, the candidates pushed by level nodes are resolved
innermost first: each replaces the outcome with probability 1/live.  The
size-constrained k-cut walk uses them; the four bipartition walks never push
one.

An outcome is ``(cut edge-bitmask, witnessed)`` or ``INFEASIBLE``.
``witnessed`` records whether the cut comes from a witness the problem's
constraints accept; it is derived after the fact and never influences a draw.
Each walk also carries ``value(cut mask)``: the problem's value of a
witnessed cut, or None when the cut is rejected.  Best-of-N solving keeps the
least value and never calls it during a walk.  And each carries ``floor``,
the exact ``Fraction`` its analysis guarantees as the probability that one
walk returns a given optimal cut; default trial counts derive from it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate


def initial_comps(n: int) -> tuple[int, ...]:
    return tuple(1 << v for v in range(n))


def contract_comps(comps, mask: int) -> tuple[int, ...]:
    """Merge every component that ``mask`` meets into one (``comps`` as a
    tuple when it meets none)."""
    merged = 0
    rest = []
    for c in comps:
        if c & mask:
            merged |= c
        else:
            rest.append(c)
    if merged:
        rest.append(merged)
        rest.sort(key=lambda c: c & -c)
    return tuple(rest)


def present_edge_ids(edge_masks, comps) -> list[int]:
    """Ids of edges whose endpoints span at least two components."""
    out = []
    for eid, em in enumerate(edge_masks):
        low = em & -em
        for c in comps:
            if c & low:
                if em & ~c:
                    out.append(eid)
                break
    return out


def delta_mask(edge_masks, side: int, full: int) -> int:
    """Bitmask of edge ids crossing (side, complement)."""
    other = full & ~side
    out = 0
    bit = 1
    for em in edge_masks:
        if (em & side) and (em & other):
            out |= bit
        bit <<= 1
    return out


def side_mask(comps, bits: int) -> int:
    """Union of the components ``comps[i]`` whose bit ``i`` is set in
    ``bits``."""
    side = 0
    for i, c in enumerate(comps):
        if bits >> i & 1:
            side |= c
    return side


def mask_sum(values, mask: int) -> int:
    """Sum of ``values[i]`` over the bits ``i`` set in ``mask``."""
    total = 0
    i = 0
    while mask:
        if mask & 1:
            total += values[i]
        mask >>= 1
        i += 1
    return total


def ids_mask(eids) -> int:
    """Bitmask of the given edge ids."""
    out = 0
    for eid in eids:
        out |= 1 << eid
    return out


def sample_node(eids, weights):
    """Node contracting ``eids[i]`` with probability proportional to
    ``weights[i]``, or None when every weight is zero."""
    cum = list(accumulate(weights))
    if not cum or cum[-1] == 0:
        return None
    return ("sample", cum, cum[-1], eids, [None] * len(eids))


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


def sample_step(node, comps, edge_masks, rng):
    """Successor of ``comps`` under one draw from a sample node."""
    idx = bisect_right(node[1], draw_below(rng, node[2]))
    nexts = node[4]
    nxt = nexts[idx]
    if nxt is None:
        nxt = nexts[idx] = contract_comps(comps, edge_masks[node[3][idx]])
    return nxt


class Walk:
    """Cached absorbing-chain walk over the partitions of one hypergraph.

    Expansion is deterministic, so the cache changes nothing about the
    sampled distribution; it makes a warm trial a few dictionary hops.
    """

    def __init__(self, G, expand, value, floor):
        self.masks = G.edge_masks
        self.start = initial_comps(G.n)
        self.expand = expand
        self.value = value
        self.floor = floor
        self.cache: dict[tuple, tuple] = {}

    def run(self, rng, comps=None):
        """One walk from ``comps`` (default: the singleton partition);
        returns its outcome."""
        if comps is None:
            comps = self.start
        cache = self.cache
        masks = self.masks
        step = sample_step
        pending = None  # (candidate, live) per level node passed
        while True:
            node = cache.get(comps)
            if node is None:
                node = cache[comps] = self.expand(comps)
            tag = node[0]
            if tag == "sample":
                comps = step(node, comps, masks, rng)
            elif tag == "merge":
                comps = node[1]
            elif tag == "level":
                if pending is None:
                    pending = []
                pending.append((node[1](comps, rng), len(comps)))
                comps = step(node[2], comps, masks, rng)
            else:
                break
        if tag == "base":
            table = node[1]
            bits = rng.getrandbits(len(comps))
            out = table.get(bits)
            if out is None:
                out = table[bits] = node[2](side_mask(comps, bits))
        elif tag == "terminal":
            out = node[1]
        elif tag == "draw":
            out = node[1](comps, rng)
        else:
            out = node[1].run(rng, comps)
        if pending:
            survivor = None
            for candidate, live in reversed(pending):
                if draw_below(rng, live) == 0:
                    survivor = candidate
            if survivor is not None:
                out = survivor()
        return out
