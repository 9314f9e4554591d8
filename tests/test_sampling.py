import ast
import pathlib
import random
from bisect import bisect_right
from itertools import accumulate

import pytest

from hypercuts import sampling
from hypercuts.sampling import (REJECT, DrawNode, LazyWeightedOrder,
                                derive_rng, derive_seed, draw_below,
                                pick_table, splitmix64, trial_rngs)
from test_enum_context import ReferenceOrder


def test_splitmix_is_deterministic_and_64bit():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)
    for x in (0, 1, 2 ** 63, 2 ** 64 - 1):
        assert 0 <= splitmix64(x) < 2 ** 64


def test_derive_seed_independent_of_order():
    seeds = [derive_seed(99, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert derive_seed(99, 7) == derive_seed(99, 7)
    assert derive_seed(98, 7) != derive_seed(99, 7)
    with pytest.raises(ValueError):
        derive_seed(0, -1)


def test_derive_rng_streams_replay():
    a = [derive_rng(5, i).random() for i in range(10)]
    b = [derive_rng(5, i).random() for i in range(10)]
    assert a == b


@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 + 3])
@pytest.mark.parametrize("start, count", [(0, 40), (17, 25), (3, 0)])
def test_trial_rngs_are_the_derived_generators(seed, start, count):
    got = []
    for rng in trial_rngs(seed, start, count):
        got.append(rng.getstate())
        # a trial's draws, a held-over gauss value included, leave the next
        # trial's state alone
        rng.gauss(0.0, 1.0)
    assert got == [derive_rng(seed, i).getstate()
                   for i in range(start, start + count)]


def test_trial_rngs_reject_a_negative_index():
    with pytest.raises(ValueError):
        list(trial_rngs(0, -2, 3))


@pytest.mark.parametrize("seed", [-7, 0, 1, 12345, 2 ** 64 - 1, 2 ** 70])
@pytest.mark.parametrize("start", [0, 5, 1000])
def test_trial_rngs_step_to_the_derived_states(seed, start):
    # one splitmix64 state stepped per trial, wrapping past 2^64, is the
    # state derive_seed jumps to
    got = [rng.getstate() for rng in trial_rngs(seed, start, 6)]
    assert got == [derive_rng(seed, i).getstate()
                   for i in range(start, start + 6)]


def test_trial_rngs_check_their_arguments_once(monkeypatch):
    checked = []

    def exact_int(value, *args):
        checked.append(value)
        return value

    monkeypatch.setattr(sampling, "exact_int", exact_int)
    assert sum(1 for _ in trial_rngs(3, 2, 50)) == 50
    assert checked == [3, 2, 50]


def test_lazy_order_matches_eager_draw():
    # a prefix extended over several ensure calls is the order drawn at once
    items = list(range(6))
    weights = [5, 1, 4, 2, 8, 3]
    eager = LazyWeightedOrder(items, weights, random.Random(123))
    eager.ensure(6)
    assert sorted(eager.prefix) == items
    lazy = LazyWeightedOrder(items, weights, random.Random(123))
    lazy.ensure(3)
    first = list(lazy.prefix)
    assert first == eager.prefix[:3]
    lazy.ensure(2)
    assert lazy.prefix == first
    lazy.ensure(6)
    assert lazy.prefix[:3] == first
    assert lazy.prefix == eager.prefix


class BisectOrder:
    """``LazyWeightedOrder`` as it drew before its Fenwick tree: a bisect of
    the running sums of the items left, rebuilt after each pick."""

    def __init__(self, items, weights, rng):
        self._items = list(items)
        self._cum = list(accumulate(weights))
        self._rng = rng
        self.prefix = []

    def ensure(self, length):
        prefix, items, cum, rng = self.prefix, self._items, self._cum, self._rng
        while len(prefix) < length and cum and cum[-1] > 0:
            pos = bisect_right(cum, draw_below(rng, cum[-1]))
            w = cum[pos] - cum[pos - 1] if pos else cum[0]
            prefix.append(items.pop(pos))
            cum[pos:] = [c - w for c in cum[pos + 1:]]


def test_lazy_order_matches_the_bisect_rule():
    # the same prefix and generator state after each of several partial
    # ensure calls, over orders of every length from 0 to 59
    draw = random.Random(2024)
    for case in range(3000):
        m = case % 60
        items = draw.sample(range(1000), m)
        weights = [draw.randint(1, 8) for _ in range(m)]
        rngs = random.Random(case), random.Random(case)
        lazy = LazyWeightedOrder(items, weights, rngs[0])
        frozen = BisectOrder(items, weights, rngs[1])
        for length in sorted(draw.randint(0, m + 2) for _ in range(3)) + [m]:
            lazy.ensure(length)
            frozen.ensure(length)
            assert lazy.prefix == frozen.prefix
            assert rngs[0].getstate() == rngs[1].getstate()


def test_lazy_order_exhaustion():
    order = LazyWeightedOrder([0, 1], [2, 2], random.Random(1))
    order.ensure(10)
    assert sorted(order.prefix) == [0, 1]


def test_lazy_order_empty():
    order = LazyWeightedOrder([], [], random.Random(1))
    order.ensure(3)
    assert order.prefix == []


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 2 ** 31 - 1, 2 ** 31,
                               2 ** 31 + 1, 2 ** 64 + 3])
def test_draw_below_is_randrange(n):
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert draw_below(rng, n) == ref.randrange(n)
            assert rng.getstate() == ref.getstate()


# CPython promises to keep only random()'s sequence across versions, so no
# algorithm calls a generator method but getrandbits; the analysis instance
# generators are exempt
@pytest.mark.parametrize("module", [p for p in sorted(
    pathlib.Path(sampling.__file__).parent.glob("*.py"))
    if p.name != "analysis.py"], ids=lambda p: p.stem)
def test_algorithms_draw_only_through_getrandbits(module):
    methods = {name for name in dir(random.Random)
               if not name.startswith("_")} - {"getrandbits"}
    calls = [f"{module.name}:{node.lineno}"
             for node in ast.walk(ast.parse(module.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in methods]
    assert calls == []


def _draw(node, rng, length, store):
    """``length`` picks from ``node`` on: over stored trie nodes with
    ``store``, else over off-trie nodes.  Returns the last node."""
    while node.depth < length and node.total:
        pos = bisect_right(node.cum, draw_below(rng, node.total))
        if not store:
            node = node.child(pos)
            continue
        if pos not in node.children:
            node.children[pos] = node.child(pos, {})
        node = node.children[pos]
    return node


def test_trie_orders_match_the_linear_scan():
    # a trie kept across orders, an order that leaves a fresh trie after its
    # first pick, a LazyWeightedOrder and the old linear scan all draw the
    # same permutation from the same generator calls
    items = list(range(9))
    weights = [3, 1, 4, 1, 5, 9, 2, 6, 5]
    root = DrawNode.root(items, weights)
    for seed in range(20):
        rngs = [random.Random(seed) for _ in range(4)]
        kept = _draw(root, rngs[0], 9, True)
        fresh = DrawNode.root(items, weights)
        left = _draw(fresh, rngs[1], 1, True)
        reference = ReferenceOrder(items, weights, rngs[2])
        lazy = LazyWeightedOrder(items, weights, rngs[3])
        for length in (2, 5, 9):
            left = _draw(left, rngs[1], length, False)
            assert left.children is None  # off the trie: nothing stored
            reference.ensure(length)
            lazy.ensure(length)
            assert list(left.order[:length]) == reference.prefix
            assert lazy.prefix == reference.prefix
        assert kept.order == left.order
        assert sorted(kept.order) == items and kept.total == 0
        assert len({rng.getstate() for rng in rngs}) == 1
    assert any(root.children.values())  # a branch taken twice is stored


def test_child_holds_the_items_left_and_their_weights():
    root = DrawNode.root("abcd", [3, 1, 4, 2])
    for pos, (order, cum) in enumerate([("abcd", [1, 5, 7]),
                                        ("bacd", [3, 7, 9]),
                                        ("cabd", [3, 4, 6]),
                                        ("dabc", [3, 4, 8])]):
        child = root.child(pos)
        assert (child.order, child.depth, child.cum, child.total) == (
            tuple(order), 1, cum, cum[-1])
        assert child.children is None and root.child(pos, {}).children == {}
    # drawn items in draw order, items left in their original order
    node = root.child(2).child(2).child(0)
    assert (node.order, node.depth, node.cum) == (tuple("cdab"), 3, [1])
    assert node.child(0).total == 0


def _random_weights(draw, total):
    """Positive integer weights summing to ``total``, in random parts."""
    cuts = sorted(draw.sample(range(1, total), draw.randint(0, total - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def test_pick_table_is_the_bisect_of_every_draw():
    # every total from 1 to 255, in random parts, 255 parts of weight 1
    # (the most positions a table holds) and 1 part of 255
    draw = random.Random(37)
    cases = [_random_weights(draw, total) for total in range(1, 256)]
    cases += [[1] * 255, [255], [1], [2], [128], [127, 1]]
    for weights in cases:
        cum = list(accumulate(weights))
        total = cum[-1]
        k = total.bit_length()
        tab = pick_table(cum)
        assert len(tab) == 1 << k
        for r in range(1 << k):
            want = bisect_right(cum, r) if r < total else REJECT
            assert tab[r] == want, (weights, r)
    # a total of 256 or more takes a draw of 9 bits or more: no table
    assert pick_table(list(accumulate([1] * 256))) is None
    assert pick_table([300]) is None
