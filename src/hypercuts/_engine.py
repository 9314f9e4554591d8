"""The contraction-walk engine shared by every randomized algorithm.

States are partitions of the vertex set, represented as tuples of disjoint
vertex bitmasks sorted by lowest set bit.  The tuple form is hashable, which
lets the repeated-trial solvers memoize per-state data (present edges,
sampling tables) across Monte-Carlo runs on the same instance.

All five algorithms are the same absorbing chain over these states; only
the edge-weight rule and the stopping rule differ.  The min-cut walk is the
arbitrary-rank node-budgeted walk on which every vertex set fits, so the
five share four rules.  An algorithm supplies them as an
``expand(comps, parent=None) -> node`` function, and ``Walk`` caches every
visited state as an entry ``(comps, node)``.  ``expand`` may also return
``("merge", target)``: the state moves to ``target`` without drawing.  A
merge is resolved at the cache, not in the walk: the state's entry is
``target``'s own (expanded from scratch on a miss), cached under the
state's key too once it is cached under ``target``, so a link to the state
leads straight to ``target``.  A walk's node is one of

* ``("sample", cum, total, eids, nexts, counts, labels)`` - contract edge
  ``eids[i]`` with probability proportional to its weight (``cum`` holds the
  prefix sums); ``eids`` lists every present edge in id order, zero-weight
  ones included; ``nexts[i]`` links the successor after ``eids[i]`` on
  first use: the successor's cache entry itself, so a warm step hashes no
  tuple, and only once that entry is cached, so past the budget a link
  keeps nothing alive; ``counts`` (aligned with ``eids``) and ``labels``
  (aligned with ``comps``) are the state's ``expansion`` data, each
  compact or None;
* ``("draw", draws, table, decode)`` - make the draws ``raws`` and stop with
  the outcome ``decode(comps, raws)``, kept in ``table`` under
  ``tuple(raws)``: one subset draw at a base case (``subset_node``), none
  at a fixed outcome;
* ``("level", draws, sample, decode)`` - make the draws ``raws``, push the
  candidate ``(decode, comps, raws)`` and take one step of the nested
  sample node.  ``draws`` lists ``(bound, bits)``, each a uniform draw
  below ``bound <= 2**bits`` made by ``getrandbits(bits)`` rejection.

A contraction merges the components one edge meets into one component M
and leaves every other component, and every present edge outside M, as it
was.  So on a cache miss right after a sample step (a level node's nested
one included) ``Walk.runs`` passes ``parent = (sample node, parent comps)``,
and ``expand`` hands it to ``expansion``, the one rule that derives a
state's present edges, edge counts and component labels, from the parent
or, when ``parent`` is None (after a merge or at the start), from scratch.
Both ways give equal nodes, and ``expand(comps)`` alone is the reference.

``Walk.runs(rngs)`` is the one loop: it runs one walk per generator in one
frame and yields each outcome.  ``Walk.run(rng)`` is its single walk.

Every walk stops at a draw node.  The candidates pushed by level nodes
(only the k-cut walk has them) are then resolved innermost first: each
replaces the outcome with probability 1/live, live its state's component
count.  Only the survivor is decoded, or, when none survives, the draw
node's draws if its table misses them.  ``Walk.keep`` is a walk's only
store: a state at 1 slot plus its node's length, a merge alias, draw-table
entry or k-cut memo entry at 1, within ``_CACHE_SLOTS`` slots per walk.

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


def _contraction(comps, parent_comps):
    """``(i, M, merged)`` for a state ``comps`` reached from ``parent_comps``
    by one contraction: ``M = comps[i]`` is the component it made and
    ``merged`` lists, in order, the parent components inside M.  Every other
    component is a parent component, unchanged."""
    i = 0
    while comps[i] == parent_comps[i]:
        i += 1
    M = comps[i]
    return i, M, [c for c in parent_comps[i:] if c & M]


def _realign(parent_comps, values, i: int, M: int, value) -> list:
    """Per-component ``values`` of ``parent_comps`` carried over to the
    contracted state whose merged component is ``M = comps[i]``: the merged
    components' entries give way to ``value`` at index i."""
    out = [x for c, x in zip(parent_comps, values) if not c & M]
    out.insert(i, value)
    return out


def _inherit_counts(edge_masks, eids, counts, M: int, merged):
    """``(present, counts)`` after a contraction made ``M`` out of the
    parent components ``merged``.

    ``counts[j]`` is how many components the parent's present edge
    ``eids[j]`` meets.  An edge meeting M loses the merged components it met
    and gains M; every other edge keeps its count.
    """
    out_of_m = ~M
    present = []
    out = []
    for eid, k in zip(eids, counts):
        em = edge_masks[eid]
        if em & M:
            if not em & out_of_m:
                continue
            for c in merged:
                if c & em:
                    k -= 1
            k += 1
        present.append(eid)
        out.append(k)
    return present, _compact(out)


def _compact(values):
    """``values`` (ints >= 0) as ``bytes``, or as a tuple once one reaches
    256."""
    try:
        return bytes(values)
    except ValueError:
        return tuple(values)


def expansion(edge_masks, comps, parent, label=None, count=False):
    """``(present, counts, labels)`` of the state ``comps``: its present
    edges in id order; with ``count``, how many components each one meets;
    with ``label``, ``label(present, c)`` for each component c.  Counts and
    labels are compact, or None when not asked for, and a walk asks for the
    same ones at every state.  With ``parent = (sample node, parent comps)``
    the parent's present edges outside the merged component M and its other
    components' labels carry over, the counts are updated per edge and only
    M is labelled anew; without one everything is computed from scratch.
    """
    counts = labels = None
    if parent is None:
        present = present_edge_ids(edge_masks, comps)
        if count:
            counts = _compact([sum(1 for c in comps if c & edge_masks[eid])
                               for eid in present])
        if label is not None:
            labels = _compact([label(present, c) for c in comps])
        return present, counts, labels
    prev, prev_comps = parent
    i, M, merged = _contraction(comps, prev_comps)
    if count:
        present, counts = _inherit_counts(edge_masks, prev[3], prev[5], M,
                                          merged)
    else:
        out_of_m = ~M
        present = [eid for eid in prev[3] if edge_masks[eid] & out_of_m]
    if label is not None:
        labels = _compact(_realign(prev_comps, prev[6], i, M,
                                   label(present, M)))
    return present, counts, labels


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


def beats_last(costs_a, costs_b) -> bool:
    """True iff a is <= b on the leading criteria and < b on the last."""
    return costs_a[-1] < costs_b[-1] and all(
        x <= y for x, y in zip(costs_a[:-1], costs_b[:-1]))


def front(vectors_by_key, beats) -> set:
    """Keys whose vector no other key's vector ``beats``, for a strict
    transitive order under which a beating vector sorts first: each distinct
    vector, in sorted order, is checked only against those kept so far."""
    kept = []
    for vec in sorted(set(vectors_by_key.values())):
        if not any(beats(k, vec) for k in kept):
            kept.append(vec)
    kept = set(kept)
    return {key for key, vec in vectors_by_key.items() if vec in kept}


def subset_node(comps, decode):
    """Draw node of a uniform subset of ``comps``: one ``getrandbits(live)``
    call, which never rejects; ``decode`` is built once per walk."""
    live = len(comps)
    return ("draw", ((1 << live, live),), {}, decode)


def sample_node(eids, weights, counts=None, labels=None):
    """Node contracting ``eids[i]`` with probability proportional to
    ``weights[i]``, or None when every weight is zero (ValueError when they
    total below zero: no draw could end).  ``counts`` and ``labels`` are the
    state's ``expansion`` data, which its successors are expanded from."""
    cum = list(accumulate(weights))
    if not cum or cum[-1] == 0:
        return None
    if cum[-1] < 0:
        raise ValueError(f"sample weights total {cum[-1]} < 0")
    return ("sample", cum, cum[-1], eids, [None] * len(eids), counts, labels)


# Slots one walk fills through ``Walk.keep``: a state 1 + its node's length
# (~59 B per present-edge slot), anything else 1 (an outcome ~200 B), so a
# walk holds ~200 MiB at worst; 2^20 is 6x the largest bench walk's 172,817.
_CACHE_SLOTS = 1 << 20


class Walk:
    """Cached absorbing-chain walk over the partitions of one hypergraph.

    Expansion is deterministic, so the cache changes nothing about the
    sampled distribution; it makes a warm trial a few list hops.
    """

    def __init__(self, G, expand, value, floor):
        self.masks = G.edge_masks
        self.start = initial_comps(G.n)
        self.expand = expand
        self.value = value
        self.floor = floor
        self.cache: dict[tuple, tuple] = {}  # comps -> its entry
        self.room = _CACHE_SLOTS  # slots left for keep to fill

    def _entry(self, comps, parent=None):
        """The entry of ``comps``: the cache's, or one expanded (from
        ``parent``) and kept.  A merge state's entry is its target's own, kept
        at one slot once the target's is, so no walk steps on a merge node."""
        entry = self.cache.get(comps)
        if entry is None:
            node = self.expand(comps, parent)
            if node[0] == "merge":
                entry = self._entry(node[1])
                return (self.keep(self.cache, comps, entry)
                        if node[1] in self.cache else entry)
            size = len((node[2] if node[0] == "level" else node)[1])
            entry = self.keep(self.cache, comps, (comps, node), 1 + size)
        return entry

    def keep(self, table, key, out, slots=1):
        """``out``, stored in ``table`` under ``key`` if ``slots`` are left."""
        if slots <= self.room:
            table[key] = out
            self.room -= slots
        return out

    def run(self, rng):
        """One walk from the singleton partition; returns its outcome."""
        return next(self.runs((rng,)))

    def runs(self, rngs):
        """One walk per generator in ``rngs``, each from the singleton
        partition; yields each walk's outcome."""
        cache, masks, entry_of = self.cache, self.masks, self._entry
        head = entry_of(self.start)
        for rng in rngs:
            survivor = None  # the level candidate that replaces the outcome
            pending = None  # (decode, comps, raws) per level passed
            getrandbits = rng.getrandbits
            comps, node = head
            while True:
                tag = node[0]
                if tag != "sample":
                    raws = []  # a draw below each bound
                    for bound, bits in node[1]:
                        r = getrandbits(bits)
                        while r >= bound:
                            r = getrandbits(bits)
                        raws.append(r)
                    if tag == "draw":
                        break
                    if pending is None:
                        pending = []
                    pending.append((node[3], comps, raws))
                    node = node[2]
                # a sample step: sampling.draw_below(rng, total), written out
                total = node[2]
                bits = total.bit_length()
                r = getrandbits(bits)
                while r >= total:
                    r = getrandbits(bits)
                idx = bisect_right(node[1], r)
                link = node[4][idx]
                if link is None:
                    nxt = contract_comps(comps, masks[node[3][idx]])
                    link = entry_of(nxt, (node, comps))
                    if cache.get(nxt) is link:  # only a cached entry
                        node[4][idx] = link
                comps, node = link
            if pending:
                for candidate in reversed(pending):
                    live = len(candidate[1])
                    bits = live.bit_length()
                    r = getrandbits(bits)
                    while r >= live:
                        r = getrandbits(bits)
                    if r == 0:
                        survivor = candidate
            if survivor is None:
                table, key = node[2], tuple(raws)
                out = table.get(key)
                if out is None:
                    out = self.keep(table, key, node[3](comps, raws))
            else:
                decode, comps, raws = survivor
                out = decode(comps, raws)
            yield out
