"""The cached enumeration context against the label-array loop it replaced.

``reference_run`` is the enumeration repetition as it was written before
partition nodes were cached: a label array rebuilt per schedule, a relabel
loop per contraction and a cut computed per draw.  Its orders are
``ReferenceOrder``, the linear-scan weighted order the draw trie replaced,
so the reference follows no change to the library's order.  The cached
context must produce the same cuts from the same generator calls.
"""

import random
import sys
from itertools import accumulate

import pytest

from hypercuts import multiobjective
from hypercuts._engine import delta_mask
from hypercuts.analysis import gen_random_instance
from hypercuts.multiobjective import _EnumContext, interleaving_schedules
from hypercuts.sampling import DrawNode


class ReferenceOrder:
    """A weighted order drawn by ``randrange``, a cumulative scan over the
    items left and two ``pop`` calls per item."""

    def __init__(self, items, weights, rng):
        self._items = list(items)
        self._weights = list(weights)
        self._total = sum(self._weights)
        self._rng = rng
        self.prefix = []

    def ensure(self, length):
        while len(self.prefix) < length and self._total > 0:
            target = self._rng.randrange(self._total)
            acc = 0
            for pos, w in enumerate(self._weights):
                acc += w
                if acc > target:
                    break
            self.prefix.append(self._items.pop(pos))
            self._total -= self._weights.pop(pos)


def reference_run(G, costs, rng, out):
    n, edges, masks = G.n, G.edges, G.edge_masks
    t = len(costs)
    full_bits = (1 << n) - 1
    if n <= G.rank * t:
        bits = rng.getrandbits(n)
        if bits != 0 and bits != full_bits:
            out.add(delta_mask(masks, bits, G.full_mask))
        return
    orders = []
    for ci in costs:
        ids = [e for e in range(G.m) if ci[e] > 0]
        orders.append(ReferenceOrder(ids, [ci[e] for e in ids], rng))
    for schedule in interleaving_schedules(n, G.rank, t):
        labels = list(range(n))
        live = n
        for i, target in enumerate(schedule):
            order = orders[i]
            prefix = order.prefix
            pos = 0
            while live > target:
                eid = None
                while True:
                    if pos >= len(prefix):
                        order.ensure(pos + 1)
                        if pos >= len(prefix):
                            break
                    cand = prefix[pos]
                    pos += 1
                    vs = edges[cand]
                    l0 = labels[vs[0]]
                    for v in vs[1:]:
                        if labels[v] != l0:
                            eid = cand
                            break
                    if eid is not None:
                        break
                if eid is None:
                    break
                hit = {labels[v] for v in edges[eid]}
                tgt = min(hit)
                for v in range(n):
                    if labels[v] in hit:
                        labels[v] = tgt
                live -= len(hit) - 1
        comp = {}
        for v in range(n):
            comp[labels[v]] = comp.get(labels[v], 0) | (1 << v)
        comps = [comp[root] for root in sorted(comp)]
        bits = rng.getrandbits(len(comps))
        if bits == 0 or bits == (1 << len(comps)) - 1:
            continue
        side = 0
        for idx, cmask in enumerate(comps):
            if (bits >> idx) & 1:
                side |= cmask
        out.add(delta_mask(masks, side, G.full_mask))


def _zero_first(G):
    costs = G.costs_by_criterion()
    return [[0] * G.m] + list(costs[1:])


# label: (n, m, rank, t, max cost, cost columns derived from the instance).
# With the first criterion all zero its order is empty, so phase 1 ends at
# once.  At max cost 64 the first picks' totals are 256 and above, so their
# steps draw 9 bits or more and pick by bisect, not by a pick table.
SHAPES = {
    "base-only": (4, 7, 2, 2, 4, None),
    "zero-criterion": (7, 12, 2, 2, 4, _zero_first),
    "rank-3": (7, 10, 3, 2, 4, None),
    "t1": (7, 11, 2, 1, 4, None),
    "t3": (8, 12, 2, 3, 4, None),
    "wide": (7, 12, 2, 2, 64, None),
}


def _instance(shape, seed):
    n, m, rank, t, max_cost, columns = SHAPES[shape]
    G = gen_random_instance(n, m, rank, t, 0, max_cost=max_cost, seed=seed)
    return G, (columns(G) if columns else G.costs_by_criterion())


def assert_same_as_reference(ctx, G, costs, seed, reps):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(reps):
        got, want = set(), set()
        ctx.run(rng, got)
        reference_run(G, costs, ref_rng, want)
        assert got == want
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cached_enumeration_matches_label_array_loop(shape):
    picks = []
    for seed in range(4):
        G, costs = _instance(shape, seed)
        ctx = _EnumContext(G, costs)
        assert_same_as_reference(ctx, G, costs, seed, 150)
        picks += [step for step in _steps(ctx) if step.cum is not None]
    # a pick by table when its draw takes at most 8 bits, else by bisect
    assert all((step.tab is None) == (step.total >= 256) for step in picks)
    by_table = sum(step.tab is not None for step in picks)
    assert (by_table < len(picks)) == (shape == "wide")
    assert (by_table > 0) == (shape != "base-only")


@pytest.mark.parametrize("cap", [multiobjective._ENUM_CACHE_CAP, 40, 0],
                         ids=["uncapped", "capped-40", "capped-0"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_counted_run_equals_single_runs(monkeypatch, shape, cap):
    # run(rng, out, count) is count single repetitions in one frame: the
    # same masks, generator state and stored entries after every call
    monkeypatch.setattr(multiobjective, "_ENUM_CACHE_CAP", cap)
    G, costs = _instance(shape, 2)
    single, counted = _EnumContext(G, costs), _EnumContext(G, costs)
    rng, ref_rng = random.Random(3), random.Random(3)
    got, want = set(), set()
    for count in (1, 2, 5, 30, 120):
        for _ in range(count):
            single.run(ref_rng, want)
        counted.run(rng, got, count)
        assert got == want
        assert rng.getstate() == ref_rng.getstate()
        assert counted.size == single.size <= cap


def _trie_entries(node):
    # a branch is an entry once marked (False) and stays one once built
    return sum(1 + (_trie_entries(child) if child else 0)
               for child in node.children.values())


def _entries(ctx):
    """(draw-trie branches, partition nodes plus their links and cuts,
    step branches plus the first step)."""
    tries = sum(_trie_entries(root) for root in ctx.roots)
    partitions = len(ctx.cache) + sum(len(node[2]) + len(node[3])
                                      for node in ctx.cache.values())
    # a step branch is an entry once marked (False) and stays one once built
    steps = 0 if ctx.first is None else 1 + sum(
        sum(nxt is not None for nxt in step.next) for step in _steps(ctx))
    return tries, partitions, steps


def test_cache_cap_bounds_entries_and_changes_no_output(monkeypatch):
    G, costs = _instance("rank-3", 1)
    uncapped = _EnumContext(G, costs)
    want = set()
    ref_rng = random.Random(5)
    states = []
    for _ in range(300):
        uncapped.run(ref_rng, want)
        states.append(ref_rng.getstate())
    assert uncapped.size > 40
    assert sum(_entries(uncapped)) == uncapped.size

    monkeypatch.setattr(multiobjective, "_ENUM_CACHE_CAP", 40)
    capped = _EnumContext(G, costs)
    got = set()
    rng = random.Random(5)
    for state in states:
        capped.run(rng, got)
        tries, partitions, steps = _entries(capped)
        assert tries + partitions + steps == capped.size <= 40
        assert rng.getstate() == state
    # all three kinds of entry share the one cap
    assert tries > 0 and partitions > 0 and steps > 0
    assert got == want
    assert_same_as_reference(capped, G, costs, 9, 50)


def _count_leaves(monkeypatch):
    """Record the depth of each off-trie node built from a trie node: one
    entry each time an order leaves the trie."""
    leaves = []
    child = DrawNode.child

    def counted(node, pos, children=None):
        built = child(node, pos, children)
        if node.children is not None and built.children is None:
            leaves.append(built.depth)
        return built

    monkeypatch.setattr(DrawNode, "child", counted)
    return leaves


def _built(node):
    return sum(1 + _built(child) for child in node.children.values() if child)


def _pipeline_instance():
    # the bench's pipeline shape: n=6, rank 2, t=2, max cost 8
    G = gen_random_instance(6, 10, 2, 2, 0, max_cost=8, seed=11)
    return G, G.costs_by_criterion()


def test_pipeline_shape_matches_reference(monkeypatch):
    G, costs = _pipeline_instance()
    ctx = _EnumContext(G, costs)
    leaves = _count_leaves(monkeypatch)
    assert_same_as_reference(ctx, G, costs, 2, 4000)
    warm = len(leaves)
    assert_same_as_reference(ctx, G, costs, 3, 1000)
    # stored branches carry the warm repetitions: an order leaves the trie
    # on a branch taken for the first time only
    assert all(_built(root) > 0 for root in ctx.roots)
    assert len(leaves) - warm < 100


def test_capped_orders_leave_the_trie_mid_repetition(monkeypatch):
    G, costs = _instance("t3", 2)
    monkeypatch.setattr(multiobjective, "_ENUM_CACHE_CAP", 60)
    ctx = _EnumContext(G, costs)
    leaves = _count_leaves(monkeypatch)
    assert_same_as_reference(ctx, G, costs, 4, 400)
    tries, partitions, steps = _entries(ctx)
    assert tries + partitions + steps == ctx.size == 60 and tries > 0
    # orders leave after stored hops, also in repetitions past the cap
    assert max(leaves) >= 2 and len(leaves) > 400


# cache caps: roomy, most branches only marked, every repetition in the loop
CACHE_CAPS = {"roomy": 1 << 20, "forty": 40, "zero": 0}


@pytest.mark.parametrize("cap", sorted(CACHE_CAPS))
@pytest.mark.parametrize("shape", sorted(SHAPES) + ["pipeline"])
def test_steps_match_reference_at_every_step_cap(monkeypatch, shape, cap):
    monkeypatch.setattr(multiobjective, "_ENUM_CACHE_CAP", CACHE_CAPS[cap])
    for seed in range(2):
        if shape == "pipeline":
            G, costs = _pipeline_instance()
        else:
            G, costs = _instance(shape, seed)
        ctx = _EnumContext(G, costs)
        assert_same_as_reference(ctx, G, costs, seed, 300)
        assert sum(_entries(ctx)) == ctx.size <= CACHE_CAPS[cap]
        assert (ctx.first is None) == (cap == "zero")
    if cap == "forty":  # base-only: one node, its 14 cuts and one step
        assert ctx.size == (16 if shape == "base-only" else 40)


def _steps(ctx):
    """Every stored step, the shared last-draw steps included once."""
    seen, todo = {}, [ctx.first]
    while todo:
        step = todo.pop()
        if id(step) in seen:
            continue
        seen[id(step)] = step
        todo.extend(s for s in step.next if s)
    return list(seen.values())


def _assert_whole_orders(ctx):
    """Each stored step's cursors hold whole orders of their roots: the
    drawn items and the items left make up the root's items, and the items
    left keep their original order and weights.  Last-draw steps are the
    shared ones.  Returns the stored steps."""
    weights = [dict(zip(root.order, [b - a for a, b in
                                     zip([0] + root.cum, root.cum)]))
               for root in ctx.roots]
    last = len(ctx.schedules) - 1
    steps = _steps(ctx)
    for step in steps:
        if step.cum is None and step.sched == last:
            # nothing follows the last draw: one step per partition serves
            assert ctx.ends[step.node[0]] is step
            continue
        for cur, root, weight in zip(step.cursors, ctx.roots, weights):
            assert sorted(cur.order) == sorted(root.order)
            left = cur.order[cur.depth:]
            assert list(left) == [e for e in root.order if e in left]
            assert cur.cum == list(accumulate(weight[e] for e in left))
        if step.cum is not None:
            assert step.cursors[step.phase].cum is step.cum
            assert len(step.next) == len(step.cum)
    return steps


def test_stored_steps_hold_whole_orders_after_a_capped_run(monkeypatch):
    G, costs = _instance("t3", 2)
    # a small cache: orders leave the trie mid-repetition
    monkeypatch.setattr(multiobjective, "_ENUM_CACHE_CAP", 60)
    ctx = _EnumContext(G, costs)
    leaves = _count_leaves(monkeypatch)
    assert_same_as_reference(ctx, G, costs, 4, 400)
    tries, partitions, steps = _entries(ctx)
    assert leaves and tries + partitions + steps == ctx.size == 60
    assert steps > 0
    assert any(step.cum is not None for step in _assert_whole_orders(ctx))


def test_steps_stand_on_off_trie_nodes_and_match_reference(monkeypatch):
    G, costs = _instance("t3", 2)
    ctx = _EnumContext(G, costs)
    store, armed = ctx._store, []

    def store_then_fill():
        # Once armed, the first pick step's mark over a trie branch not yet
        # marked takes the cache's last entry.  The trie branch then stays
        # unmarked, so the step built on that mark stands on an off-trie node.
        frame = sys._getframe(1)
        stored = store()
        if stored and armed and frame.f_code.co_name == "run" and ctx.first:
            step, at = frame.f_locals["step"], frame.f_locals["at"]
            cur = step.cursors[step.phase] if step.cum is not None else None
            if cur and cur.children is not None and at not in cur.children:
                monkeypatch.setattr(multiobjective, "_ENUM_CACHE_CAP",
                                    ctx.size)
        return stored

    ctx._store = store_then_fill
    assert_same_as_reference(ctx, G, costs, 4, 50)
    armed.append(True)
    assert_same_as_reference(ctx, G, costs, 4, 200)
    assert_same_as_reference(ctx, G, costs, 5, 400)
    cap = multiobjective._ENUM_CACHE_CAP
    # off-trie nodes mark nothing: every counted branch hangs off a root
    assert sum(_entries(ctx)) == ctx.size == cap < 1 << 16
    off = [cur for step in _assert_whole_orders(ctx) if step.cursors
           for cur in step.cursors if cur.children is None]
    assert off and max(cur.depth for cur in off) >= 2
