"""Edge-cost multicriteria cut algorithms.

* ``bmulti_walk`` - budget-constrained random
  contraction.  At each step the remaining vertices are classified per
  criterion (those whose single-vertex cut already busts the budget), the
  criterion with the largest class drives a cost-proportional edge
  contraction, and a uniform random subset cut is returned once at most
  rank*t vertices remain.
* ``enumerate_multiobjective`` - the budget-free variant: all randomness
  moves upfront into one cost-weighted permutation per criterion, and every
  interleaving schedule of per-criterion contraction phases is replayed,
  yielding at most n^(t-1) cuts per repetition.  Repetitions continue until
  every budget-optimal cut appears with high probability, and the union is
  pruned by the final criterion through ``_engine.front``, the sorted front
  that ``oracle_multiobjective`` and ``oracle_pareto`` use too.
* ``pareto_pipeline`` / ``enumerate_pareto`` - the enumerated collection's
  own dominance front, which is the pareto set once the collection holds
  every multiobjective min-cut; a given verify count adds the randomized
  dominance search as an opt-in check.
* ``verify_pareto_optimality`` - one-sided dominance test: TRUE is always
  correct for a pareto-optimal input, FALSE is only returned on an explicit
  dominating witness.

Every algorithm reads its cost columns from the hypergraph itself.
Repeated runs on one instance share a per-state cache (see ``_engine.Walk``
and ``_EnumContext``), which changes nothing about the sampled distribution -
state expansion is deterministic - but makes a single trial a few dictionary
hops.  Each criterion's order is one ``sampling.DrawNode`` cursor, which
holds the items drawn to reach it: on the shared draw trie, or past it on
nodes built for one repetition and never stored.  The enumeration also
caches its draw steps.  A step is a repetition's state at one generator
call: a pick on a criterion's cursor, which maps each drawn position to the
next step, or a base draw on a partition node, which has one next step.  A
pick step whose draw takes at most 8 bits reads its position from the
cursor's byte table (``sampling.pick_table``), one lookup per generator
call; a wider one bisects.  A step is built the second time a repetition
takes the branch to it.  A
repetition follows stored steps until its first draw with none stored after
it, then finishes in the one enumeration loop.  Every entry the enumeration
stores counts against one cap, ``_ENUM_CACHE_CAP``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement, repeat
from math import comb

from ._engine import (Walk, beats_last, contract_comps, delta_mask, expansion,
                      front, ids_mask, initial_comps, mask_sum,
                      present_edge_ids, sample_node, side_mask, subset_node)
from .hypergraph import Cut, Hypergraph, InstanceError, exact_int, exact_ints
from .oracle import dominates
from .sampling import REJECT, DrawNode, pick_table

__all__ = [
    "bmulti_walk",
    "success_floor_edge",
    "enumerate_multiobjective",
    "enumerate_pareto",
    "pareto_pipeline",
    "verify_pareto_optimality",
    "default_enum_repetitions",
    "default_verify_repetitions",
    "enum_repetition_count",
    "verify_repetition_count",
    "interleaving_schedules",
]


def _class_of(masks, present, costs, budgets, comp: int) -> int:
    """The per-criterion class of the component ``comp``.

    Class i < t-1 holds the components whose vertex cut over the
    ``present`` edges exceeds budget i and no earlier budget; class t-1 is
    the residue.  A contraction leaves every component but the merged one
    with the same present edges around it, so only that one's class can
    change.
    """
    touching = [eid for eid in present if masks[eid] & comp]
    for i, (ci, budget) in enumerate(zip(costs, budgets)):
        if sum([ci[eid] for eid in touching]) > budget:
            return i
    return len(budgets)


def bmulti_walk(G: Hypergraph, budgets) -> Walk:
    """The budget-constrained contraction walk as a reusable cached ``Walk``.

    Above rank*t components the criterion with the largest class drives a
    cost-proportional contraction; at or below it a uniform subset of the
    components is drawn.  An outcome is witnessed when that subset induces a
    proper bipartition.
    """
    costs = G.costs_by_criterion()
    return _bmulti_walk(G, costs, exact_ints(budgets, len(costs) - 1, "budget"))


def _bmulti_walk(G: Hypergraph, costs, budgets) -> Walk:
    """``bmulti_walk`` over cost columns already read from G, in any order
    (the verifier rotates them); the budgets bound all but the last.  Its
    floor is ``success_floor_edge(n, rank, t)``."""
    t = len(costs)
    masks, full = G.edge_masks, G.full_mask
    base_limit = G.rank * t

    def subset(comps, raws):
        side = side_mask(comps, raws[0])
        return delta_mask(masks, side, full), 0 != side != full

    def class_of(present, comp):
        return _class_of(masks, present, costs, budgets, comp)

    def expand(comps, parent=None):
        if len(comps) > base_limit:
            present, _, classes = expansion(masks, comps, parent, class_of)
            sizes = [classes.count(i) for i in range(t)]
            # largest class drives the contraction; ties break to the lowest
            # criterion, zero-mass criteria fall through to the next largest
            for i in sorted(range(t), key=lambda j: (-sizes[j], j)):
                node = sample_node(present, [costs[i][eid] for eid in present],
                                   None, classes)
                if node:
                    return node
        return subset_node(comps, subset)

    def value(mask):
        # cost on the last criterion, for cuts within every budget
        vec = _mask_costs(costs, mask)
        return vec[-1] if all(v <= b for v, b in zip(vec, budgets)) else None

    return Walk(G, expand, value, success_floor_edge(G.n, G.rank, t))


def _check_shape(n: int, r: int, t: int) -> tuple[int, int, int]:
    """(n, r, t), checked to be exact ints with n >= 1, r >= 2, t >= 1."""
    return exact_int(n, "n", 1), exact_int(r, "r", 2), exact_int(t, "t", 1)


def success_floor_edge(n: int, r: int, t: int) -> Fraction:
    """Per-cut success probability floor of the budgeted contraction walk.

    1/2^(rt) when n <= rt, else (2t+1) / (2^(rt) (rt+1) C(n-t(r-2), 2t)).
    Exact rational.
    """
    _check_shape(n, r, t)
    if n <= r * t:
        return Fraction(1, 2 ** (r * t))
    top = n - t * (r - 2)  # > 2t, since n > rt
    return Fraction(2 * t + 1, 2 ** (r * t) * (r * t + 1)) / comb(top, 2 * t)


def interleaving_schedules(n: int, r: int, t: int) -> list[tuple[int, ...]]:
    """All phase-target sequences n_1 >= ... >= n_{t-1} >= n_t = r*t, n_1 <= n."""
    _check_shape(n, r, t)
    last = r * t
    if n <= last:
        return []
    schedules = []
    for combo in combinations_with_replacement(range(last, n + 1), t - 1):
        schedules.append(tuple(reversed(combo)) + (last,))
    return schedules


# Cap on the entries one enumeration context stores: partition nodes,
# successor links, cut masks, marked draw-trie branches, marked step
# branches and the first step, all counted alike.  Past it, new partition
# entries are built, used and dropped, orders go on over off-trie nodes and
# repetitions finish in the loop, so a long run on a large instance stays in
# bounded memory.  The bound is on entries, not bytes.  At n=10, m=25 the
# cache holds 13.8 MB as it fills and 15.0 MB after 200,000 repetitions, as
# marked branches are built (tracemalloc, CPython 3.11).  A built trie node
# copies its order and cumulative weights, about 230 + 16m bytes for costs
# below 256, so at m=25 a cache of trie nodes alone would hold about 41 MB.
# A pick step's cursor also holds one pick table while its total is below
# 256: 33 + 2^k bytes for a k-bit draw, at most 289, plus its dict slot.
# There is at most one per stored step, so the cap bounds them too.
_ENUM_CACHE_CAP = 1 << 16


class _Step:
    """A repetition's state at one generator call.

    A pick step draws a position on criterion ``phase``'s cursor (``cum``,
    ``total``) in ``k``-bit calls, by the cursor's ``pick_table`` ``tab``
    when ``k`` is at most 8 (else ``tab`` is None); a base step (``cum``
    None) draws ``k`` bits on the partition ``node``, whose full set is
    ``total``.
    ``next[pos]`` is the step after drawing ``pos`` (a base step has only
    ``next[0]``), False once that branch was taken, else None.  ``sched``,
    ``phase``, ``node`` and ``cursors`` say where the loop stands.
    """

    __slots__ = ("cum", "total", "k", "tab", "next", "node", "sched", "phase",
                 "cursors")

    def __init__(self, sched, phase, node, cur, cursors, tab=None):
        self.sched, self.phase, self.node = sched, phase, node
        self.cursors, self.tab = cursors, tab
        if cur is None:
            self.cum, self.k = None, len(node[0])
            self.total = (1 << self.k) - 1
        else:
            self.cum, self.total = cur.cum, cur.total
            self.k = self.total.bit_length()
        self.next = [None] * (1 if cur is None else len(cur.cum))


class _EnumContext:
    """Precomputed data for repeated runs of the enumeration algorithm.

    Runs walk a cache of partition nodes ``(comps, present, succ, cuts)``
    keyed by the component tuple: ``present`` is the bitmask of edge ids
    spanning two components, ``succ`` maps a contracted edge id to the
    successor node and ``cuts`` maps a base-case draw to its cut mask; both
    tables fill on first use.  A phase then scans its order's drawn items
    with one bit test per candidate edge and moves with one dictionary hop
    per contraction.  Expansion is deterministic, so the cache changes no
    draw.

    Each criterion's cost-weighted order is a ``DrawNode`` cursor on one
    trie (``roots``) that every repetition shares.  A branch is marked the
    first time an order takes it and its node is built the second time.
    A pick on a branch not built, or past the cap, goes on over off-trie
    nodes, which are never stored and mark nothing.

    What a repetition does between two generator calls depends only on the
    draws before it, so repetitions also share a tree of steps from
    ``first``, each the state at one generator call (``_Step``).  A step's
    branch is marked the first time a repetition takes it and the next step
    is built the second time, where ``_play`` reaches its next draw; no node
    changes once built, so a step may stand on off-trie cursors.  ``ends``
    holds one step per partition node for a repetition's last draw, which
    nothing follows.  ``tables`` holds the ``pick_table`` of each cursor a
    pick step stands on, built with its first step and shared by the rest.
    After its first draw with no step stored after it, a repetition
    finishes in ``_play``.

    ``size`` counts every stored entry against ``_ENUM_CACHE_CAP``: each
    partition node, successor link and cut mask, each marked branch of the
    trie or of the steps, and the first step.  Building on a mark costs no
    further entry.
    """

    def __init__(self, G: Hypergraph, costs):
        self.masks = G.edge_masks
        self.full = G.full_mask
        self.size = 0
        self.roots = []
        for ci in costs:
            ids = [e for e in range(G.m) if ci[e] > 0]
            self.roots.append(DrawNode.root(ids, [ci[e] for e in ids]))
        # at most r*t vertices: no contraction phase, only the base case
        self.schedules = interleaving_schedules(G.n, G.rank, len(costs)) or [()]
        self.cache: dict[tuple, tuple] = {}
        self.start = self._node(initial_comps(G.n))
        self.first = None
        self.ends = {}
        self.tables = {}  # a pick step's cursor -> its pick_table

    def _store(self) -> bool:
        """Count one more cache entry; False once the cache is full."""
        if self.size >= _ENUM_CACHE_CAP:
            return False
        self.size += 1
        return True

    def _node(self, comps):
        node = self.cache.get(comps)
        if node is None:
            node = (comps, ids_mask(present_edge_ids(self.masks, comps)), {}, {})
            if self._store():
                self.cache[comps] = node
        return node

    def _successor(self, node, eid: int):
        nxt = self._node(contract_comps(node[0], self.masks[eid]))
        if self._store():
            node[2][eid] = nxt
        return nxt

    def _cut(self, node, bits: int) -> int:
        cut = delta_mask(self.masks, side_mask(node[0], bits), self.full)
        if self._store():
            node[3][bits] = cut
        return cut

    def run(self, rng: random.Random, out: set[int], count: int = 1) -> None:
        """``count`` invocations; adds the produced cut bitmasks to ``out``.

        A repetition follows stored steps while it can: a pick is one byte
        lookup in the cursor's ``pick_table`` per ``getrandbits`` call, made
        again while it reads ``REJECT`` (a draw of 9 bits or more is
        ``draw_below``, written out, and one bisect), then one list hop.
        After its first draw with no step stored after it, ``_play``
        finishes the repetition, or on the branch's second visit stops at
        the next draw to store it as a step.  Subset draws landing on the
        empty or full vertex set induce no bipartition and hence no cut;
        those draws contribute nothing.
        """
        getrandbits = rng.getrandbits
        last = len(self.schedules) - 1
        for _ in range(count):
            step = self.first
            if step is None:
                cursors = list(self.roots)
                found = self._play(rng, out, 0, 0, self.start, cursors, None,
                                   self._store())
                if found is None:
                    continue
                step = self.first = self._new_step(found, cursors, None)
            while True:
                tab = step.tab
                if tab is not None:
                    k = step.k
                    at = tab[getrandbits(k)]
                    while at == REJECT:
                        at = tab[getrandbits(k)]
                elif step.cum is None:
                    bits = getrandbits(step.k)
                    if bits and bits != step.total:
                        node = step.node
                        cut = node[3].get(bits)
                        out.add(self._cut(node, bits) if cut is None else cut)
                    at = 0
                else:
                    total = step.total
                    k = step.k
                    r = getrandbits(k)
                    while r >= total:
                        r = getrandbits(k)
                    at = bisect_right(step.cum, r)
                nxt = step.next[at]
                if nxt:
                    step = nxt
                    continue
                cum = step.cum
                if cum is None and step.sched == last:
                    break
                if nxt is None and self._store():  # first visit
                    step.next[at] = False
                cursors = list(step.cursors)
                if cum is None:  # after a base draw the next schedule starts
                    found = self._play(rng, out, step.sched + 1, 0,
                                       self.start, cursors, None, nxt is False)
                else:
                    found = self._play(rng, out, step.sched, step.phase,
                                       step.node, cursors, at, nxt is False)
                if found is None:
                    break
                nxt = step.next[at] = self._new_step(found, cursors, step)
                step = nxt

    def _new_step(self, found, cursors, parent):
        """The step at ``found``, where ``_play`` stopped and left
        ``cursors``; it shares the cursor tuple of the step ``parent`` when
        no cursor moved."""
        sched, phase, node, draws_on = found
        if draws_on is None and sched == len(self.schedules) - 1:
            # the repetition's last draw: nothing follows it, so one step per
            # partition node serves every path
            end = self.ends.get(node[0])
            if end is None:
                end = self.ends[node[0]] = _Step(sched, phase, node, None, None)
            return end
        cursors = tuple(cursors)
        if parent is not None and cursors == parent.cursors:
            cursors = parent.cursors
        tab = None
        if draws_on is not None:  # one table per cursor, shared by its steps
            tab = self.tables.get(draws_on)
            if tab is None:
                tab = self.tables[draws_on] = pick_table(draws_on.cum)
        return _Step(sched, phase, node, draws_on, cursors, tab)

    def _play(self, rng, out, sched, phase, node, cursors, at, build):
        """The repetition's loop, from schedule ``sched`` and phase ``phase``
        on, standing at the partition ``node``.

        Each criterion's order is its cursor, a ``DrawNode``: a phase scans
        the cursor's drawn items and draws one more when it runs out.  A
        pick is ``draw_below``, written out, and one bisect; on a built
        branch it is one hop more, while a pick on a branch not built yet,
        or on an off-trie node, builds an off-trie node.
        ``at``, when not None, is the position the pick the loop stands at
        has drawn already.  With ``build`` the loop stops at its next draw,
        leaving ``cursors`` as they stand, and returns ``(sched, phase,
        node, cursor)``, the cursor None at a base draw.  Else it finishes
        the repetition and returns None.
        """
        getrandbits = rng.getrandbits
        schedules = self.schedules
        pos = 0 if at is None else cursors[phase].depth
        for sched in range(sched, len(schedules)):
            schedule = schedules[sched]
            for i in range(phase, len(schedule)):
                target = schedule[i]
                cur = cursors[i]
                order, drawn = cur.order, cur.depth
                while len(node[0]) > target:
                    present = node[1]
                    while True:
                        if pos == drawn:
                            if not cur.total:
                                eid = None
                                break  # permutation exhausted
                            if at is None:
                                if build:
                                    cursors[i] = cur
                                    return sched, i, node, cur
                                total = cur.total
                                k = total.bit_length()
                                r = getrandbits(k)
                                while r >= total:
                                    r = getrandbits(k)
                                at = bisect_right(cur.cum, r)
                            children = cur.children
                            if children is None:  # off the trie
                                cur = cur.child(at)
                            else:
                                nxt = children.get(at)
                                if nxt:
                                    cur = nxt
                                elif nxt is None:  # first visit: mark, leave
                                    if self._store():
                                        children[at] = False
                                    cur = cur.child(at)
                                else:  # second visit: build the node
                                    cur = children[at] = cur.child(at, {})
                            at = None
                            order = cur.order
                            drawn += 1
                        eid = order[pos]
                        pos += 1
                        if present >> eid & 1:
                            break
                    if eid is None:
                        break  # the phase ends early
                    nxt = node[2].get(eid)
                    node = self._successor(node, eid) if nxt is None else nxt
                cursors[i] = cur
                pos = 0
            if build:
                return sched, len(schedule), node, None
            k = len(node[0])
            bits = getrandbits(k)
            if bits and bits != (1 << k) - 1:
                cut = node[3].get(bits)
                out.add(self._cut(node, bits) if cut is None else cut)
            phase = 0
            node = self.start
        return None


def _times_log_n(count: int, n: int, what: str, flags: str) -> int:
    """ceil(count * ln max(n, 2)); InstanceError when ``count`` is past the
    float range, asking for the repetition count through ``flags``."""
    try:
        return math.ceil(count * math.log(max(n, 2)))
    except OverflowError:
        raise InstanceError(f"the default {what} count overflows a float; "
                            f"give one explicitly ({flags})") from None


def default_enum_repetitions(n: int, r: int, t: int) -> int:
    """Repetition count making the collection a superset of the budget-optimal
    cuts with high probability (asymptotic bound instantiated with constant 1)."""
    _check_shape(n, r, t)  # so the count is at least 1
    return _times_log_n(r * r * t * (2 ** (r * t)) * (n ** (2 * t)), n,
                        "enumeration repetition", "--reps")


def default_verify_repetitions(n: int, r: int, t: int) -> int:
    """Per-criterion repetition count for the dominance search."""
    _check_shape(n, r, t)  # so the count is at least 1
    return _times_log_n(r * (2 ** (r * t)) * (n ** (2 * t)), n,
                        "verification repetition",
                        "verify pareto --reps; --verify-reps auto runs "
                        "no check")


def enum_repetition_count(G: Hypergraph, repetitions: int | None) -> int:
    """Enumeration repetitions on G: the default when ``repetitions`` is
    None, else ``repetitions`` as an exact int >= 1."""
    if repetitions is None:
        return default_enum_repetitions(G.n, G.rank, len(G.costs_by_criterion()))
    return exact_int(repetitions, "repetitions", 1)


def verify_repetition_count(G: Hypergraph, repetitions: int | None) -> int:
    """Per-criterion dominance-search repetitions on G: the default when
    ``repetitions`` is None, else ``repetitions`` as an exact int >= 1."""
    if repetitions is None:
        return default_verify_repetitions(G.n, G.rank, len(G.costs_by_criterion()))
    return exact_int(repetitions, "verify repetitions", 1)


def _mask_costs(costs, mask: int) -> tuple[int, ...]:
    return tuple(mask_sum(ci, mask) for ci in costs)


def _prune_final_criterion(masks: set[int], costs) -> set[int]:
    """Drop F when some F' in the collection is <= on the leading criteria and
    strictly cheaper on the last; idempotent and order-independent."""
    return front({m: _mask_costs(costs, m) for m in masks}, beats_last)


def enumerate_multiobjective(G: Hypergraph, rng: random.Random,
                             repetitions: int | None = None) -> set[Cut]:
    """Union of repeated enumeration runs, pruned by the final criterion.

    With the default repetition count the result equals the set of all
    budget-optimal cuts with high probability.  On an unlucky sample the
    pruned set can retain non-optimal cuts; callers comparing against ground
    truth should report such misses rather than mask them.
    """
    costs = G.costs_by_criterion()
    repetitions = enum_repetition_count(G, repetitions)
    ctx = _EnumContext(G, costs)
    masks: set[int] = set()
    ctx.run(rng, masks, repetitions)
    return {Cut.from_mask(m) for m in _prune_final_criterion(masks, costs)}


def verify_pareto_optimality(G: Hypergraph, cut: Cut, rng: random.Random,
                             repetitions_per_criterion: int | None = None
                             ) -> bool:
    """Randomized dominance check for a cut of G.

    For each criterion i the costs are rotated so that i is minimized
    subject to budgets equal to the cut's costs under the other criteria;
    finding a budget-respecting cut strictly cheaper on i proves domination.
    TRUE is deterministic for pareto-optimal cuts; FALSE is correct whenever
    returned and is found with high probability for dominated cuts.  A cut
    naming an edge G does not have raises InstanceError.
    """
    costs = G.costs_by_criterion()
    t = len(costs)
    repetitions_per_criterion = verify_repetition_count(
        G, repetitions_per_criterion)
    cut_vec = G.cut_costs(cut)
    for i in range(t):
        rotated = [costs[j] for j in range(t) if j != i] + [costs[i]]
        budgets = tuple(cut_vec[j] for j in range(t) if j != i)
        walk = _bmulti_walk(G, rotated, budgets)
        target = cut_vec[i]
        verdict: dict[int, bool] = {}
        for mask, proper in walk.runs(repeat(rng, repetitions_per_criterion)):
            if not proper:
                continue
            hit = verdict.get(mask)
            if hit is None:
                value = walk.value(mask)
                hit = verdict[mask] = value is not None and value < target
            if hit:
                return False
    return True


def pareto_pipeline(G: Hypergraph, rng: random.Random,
                    repetitions: int | None = None,
                    verify_repetitions: int | None = None
                    ) -> tuple[set[Cut], set[Cut]]:
    """(enumerated collection, its pareto-optimal subset).

    The collection comes from ``enumerate_multiobjective``.  Its dominance
    front (``oracle.dominates``) is the pareto set once it holds every
    multiobjective min-cut, as every pareto-optimal cut is one.  Given a
    ``verify_repetitions`` count, checked before the enumeration runs, each
    front cut, in edge-id order, then goes through the randomized dominance
    check with the same generator; else nothing is drawn after it.
    """
    if verify_repetitions is not None:
        verify_repetitions = verify_repetition_count(G, verify_repetitions)
    collection = enumerate_multiobjective(G, rng, repetitions)
    pareto = front({cut: G.cut_costs(cut) for cut in collection}, dominates)
    if verify_repetitions is not None:
        pareto = {cut for cut in sorted(pareto, key=lambda c: c.edge_ids)
                  if verify_pareto_optimality(G, cut, rng, verify_repetitions)}
    return collection, pareto


def enumerate_pareto(G: Hypergraph, rng: random.Random,
                     repetitions: int | None = None,
                     verify_repetitions: int | None = None) -> set[Cut]:
    """Pareto-optimal cuts: the dominance front of the enumerated
    collection, through the randomized dominance check only when
    ``verify_repetitions`` is given.  Always a subset of the collection."""
    return pareto_pipeline(G, rng, repetitions, verify_repetitions)[1]
