"""The contraction-walk engine shared by every randomized algorithm.

States are partitions of the vertex set, represented as tuples of disjoint
vertex bitmasks sorted by lowest set bit.  The tuple form is hashable, which
lets the repeated-trial solvers memoize per-state data (present edges,
sampling tables) across Monte-Carlo runs on the same instance.

All five algorithms are the same absorbing chain over these states; only
the edge-weight rule and the stopping rule differ.  An algorithm supplies
them as an ``expand(comps, parent=None) -> node`` function, and ``Walk``
caches the node of every visited state.  A node is one of

* ``("sample", cum, total, eids, nexts, inherit)`` - contract edge
  ``eids[i]`` with probability proportional to its weight (``cum`` holds the
  prefix sums); ``eids`` lists every present edge in id order, zero-weight
  ones included; ``nexts`` caches the successor states, built on first use;
  ``inherit`` is the walk's own data about the state that its successors
  are expanded from, kept compact (``bytes`` or tuples aligned with
  ``comps`` or ``eids``, never a dict or set per node);
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

A contraction merges the components one edge meets into one component M
and leaves every other component, and every present edge outside M, as it
was.  So on a cache miss right after a sample step (a level node's nested
one included) ``Walk.run`` passes ``parent = (sample node, parent comps)``,
and ``expand`` derives the new node from the parent's present edges and
``inherit`` data (see ``contraction``, ``inherit_present``,
``inherit_counts`` and ``realign``).  After a merge, a delegate or at the
start, ``parent`` is None and the node is built from scratch.  Both ways
give equal nodes, and ``expand(comps)`` alone is the reference.

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
    tuple when it meets none).

    The merged component takes its first member's place: its lowest bit is
    that member's, so the result stays sorted by lowest set bit.
    """
    merged = 0
    rest = []
    at = 0
    for c in comps:
        if c & mask:
            if not merged:
                at = len(rest)
            merged |= c
        else:
            rest.append(c)
    if merged:
        rest.insert(at, merged)
    return tuple(rest)


def contraction(comps, parent_comps):
    """``(i, M, merged)`` for a state ``comps`` reached from ``parent_comps``
    by one contraction: ``M = comps[i]`` is the component it made and
    ``merged`` lists, in order, the parent components inside M.  Every other
    component is a parent component, unchanged."""
    i = 0
    while comps[i] == parent_comps[i]:
        i += 1
    M = comps[i]
    return i, M, [c for c in parent_comps[i:] if c & M]


def realign(parent_comps, values, i: int, M: int, value) -> list:
    """Per-component ``values`` of ``parent_comps`` carried over to the
    contracted state whose merged component is ``M = comps[i]``: the merged
    components' entries give way to ``value`` at index i."""
    out = [x for c, x in zip(parent_comps, values) if not c & M]
    out.insert(i, value)
    return out


def inherit_present(edge_masks, eids, M: int) -> list[int]:
    """The present edges ``eids`` of a parent state that are still present
    after a contraction made ``M``: those not inside M, in the same order."""
    out_of_m = ~M
    return [eid for eid in eids if edge_masks[eid] & out_of_m]


def inherit_counts(edge_masks, eids, counts, M: int, lost, gained: int):
    """``(present, counts)`` after a contraction made ``M``.

    ``counts[j]`` is how many counted components the parent's present edge
    ``eids[j]`` meets.  ``lost`` lists the counted parent components merged
    into M, and ``gained`` is 1 when M itself is counted, else 0.  An edge
    meeting M loses the merged components it met and gains M; every other
    edge keeps its count.
    """
    out_of_m = ~M
    present = []
    out = []
    for eid, k in zip(eids, counts):
        em = edge_masks[eid]
        if em & M:
            if not em & out_of_m:
                continue
            for c in lost:
                if c & em:
                    k -= 1
            k += gained
        present.append(eid)
        out.append(k)
    return present, out


def present_counts(edge_masks, comps, parent):
    """``(present, counts)``: the present edges of ``comps`` and how many
    components each meets.  With ``parent`` they come from the parent's
    sample node, whose ``inherit`` holds its counts."""
    if parent is None:
        present = present_edge_ids(edge_masks, comps)
        return present, [sum(1 for c in comps if c & edge_masks[eid])
                         for eid in present]
    prev, prev_comps = parent
    _, M, merged = contraction(comps, prev_comps)
    return inherit_counts(edge_masks, prev[3], prev[5], M, merged, 1)


def packer(top: int):
    """Constructor for a compact sequence of ints in ``0..top``: ``bytes``
    when each fits in a byte, else ``tuple``."""
    return bytes if top < 256 else tuple


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
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def ids_mask(eids) -> int:
    """Bitmask of the given edge ids."""
    out = 0
    for eid in eids:
        out |= 1 << eid
    return out


def sample_node(eids, weights, inherit=None):
    """Node contracting ``eids[i]`` with probability proportional to
    ``weights[i]``, or None when every weight is zero.  ``inherit`` is the
    walk's data for expanding the node's successors."""
    cum = list(accumulate(weights))
    if not cum or cum[-1] == 0:
        return None
    return ("sample", cum, cum[-1], eids, [None] * len(eids), inherit)


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


def draw_sample(rng, n: int, k: int) -> list[int]:
    """``rng.sample(range(n), k)``, from one call frame when ``n <= 21``.

    Up to that bound CPython 3.11's ``Random.sample`` always takes its pool
    branch (21 is its least set size), which this repeats with inlined
    ``draw_below`` calls: the same value and the same generator state.
    """
    if n > 21 or not 0 <= k <= n:
        return rng.sample(range(n), k)
    getrandbits = rng.getrandbits
    pool = list(range(n))
    out = []
    for i in range(n, n - k, -1):
        bits = i.bit_length()
        j = getrandbits(bits)
        while j >= i:  # draw_below(rng, i), inlined
            j = getrandbits(bits)
        out.append(pool[j])
        pool[j] = pool[i - 1]
    return out


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

    def fixed_outcome(self):
        """The outcome of every run if the start is terminal, else None."""
        node = self.cache.get(self.start)
        if node is None:
            node = self.cache[self.start] = self.expand(self.start)
        return node[1] if node[0] == "terminal" else None

    def run(self, rng, comps=None):
        """One walk from ``comps`` (default: the singleton partition);
        returns its outcome."""
        if comps is None:
            comps = self.start
        cache = self.cache
        masks = self.masks
        step = sample_step
        pending = None  # (candidate, live) per level node passed
        prev = prev_comps = None  # the sample step that led here, if any
        while True:
            node = cache.get(comps)
            if node is None:
                node = cache[comps] = self.expand(
                    comps, None if prev is None else (prev, prev_comps))
            tag = node[0]
            if tag == "sample":
                prev, prev_comps = node, comps
                comps = step(node, comps, masks, rng)
            elif tag == "merge":
                prev = None
                comps = node[1]
            elif tag == "level":
                if pending is None:
                    pending = []
                pending.append((node[1](comps, rng), len(comps)))
                prev, prev_comps = node[2], comps
                comps = step(prev, comps, masks, rng)
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
